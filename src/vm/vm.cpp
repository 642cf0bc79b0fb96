#include "vm/vm.hpp"

#include <cmath>
#include <cstdint>

#include "ir/lower.hpp"

namespace pdc::vm {

using ir::IrFunction;
using ir::Op;

CostModel CostModel::default_model() {
  // Cycle costs in the spirit of the paper's 3 GHz Xeon EM64T (Netburst/
  // early Core era): cheap int ALU, 3-5 cycle FP add/mul, ~20 cycle
  // divisions, L1-hit memory ops, and a measurable PAPI read cost for the
  // instrumentation markers.
  CostModel m;
  auto set = [&m](Op op, double c) { m.set_op_cost(op, c); };
  set(Op::ConstI, 1);
  set(Op::ConstF, 1);
  set(Op::Mov, 1);
  set(Op::AddI, 1);
  set(Op::SubI, 1);
  set(Op::MulI, 3);
  set(Op::DivI, 22);
  set(Op::ModI, 22);
  set(Op::NegI, 1);
  set(Op::AddF, 3);
  set(Op::SubF, 3);
  set(Op::MulF, 5);
  set(Op::DivF, 22);
  set(Op::NegF, 2);
  set(Op::LtI, 1);
  set(Op::LeI, 1);
  set(Op::GtI, 1);
  set(Op::GeI, 1);
  set(Op::EqI, 1);
  set(Op::NeI, 1);
  set(Op::LtF, 2);
  set(Op::LeF, 2);
  set(Op::GtF, 2);
  set(Op::GeF, 2);
  set(Op::EqF, 2);
  set(Op::NeF, 2);
  set(Op::NotI, 1);
  set(Op::BoolI, 1);
  set(Op::I2F, 4);
  set(Op::LoadVar, 3);
  set(Op::StoreVar, 3);
  set(Op::AllocArr, 0);  // cost charged via alloc_base/alloc_per_elem
  set(Op::LoadIdx, 4);
  set(Op::StoreIdx, 4);
  set(Op::ArrLen, 1);
  set(Op::Jump, 1);
  set(Op::CJump, 2);
  set(Op::Ret, 2);
  set(Op::Call, 0);  // charged via call_overhead and builtin costs
  set(Op::BlockBegin, 40);
  set(Op::BlockEnd, 40);
  set(Op::IterMark, 2);
  m.builtin_cost_ = {
      {"sqrt", 30}, {"fabs", 2},       {"fmax", 3},    {"fmin", 3},  {"floor", 3},
      {"p2p_rank", 4}, {"p2p_nprocs", 4}, {"p2p_param", 4}, {"p2p_param_f", 4},
      {"p2p_send", 400}, {"p2p_recv", 400}, {"p2p_allreduce_max", 400},
  };
  return m;
}

double CostModel::builtin_cost(const std::string& name) const {
  auto it = builtin_cost_.find(name);
  return it == builtin_cost_.end() ? 0.0 : it->second;
}

bool CostModel::quarter_exact() const {
  // Written so that NaN fails as well.
  auto exact = [](double c) { return c >= 0 && c <= 1048576.0 && std::floor(c * 4) == c * 4; };
  for (double c : op_cost_)
    if (!exact(c)) return false;
  for (const auto& [name, c] : builtin_cost_)
    if (!exact(c)) return false;
  return exact(call_overhead) && exact(per_arg_cost) && exact(alloc_base) &&
         exact(alloc_per_elem);
}

namespace {

// IR operations decoded one to one.
#define PDC_VM_IR_OPS(X)                                                         \
  X(ConstI) X(ConstF) X(Mov)                                                     \
  X(AddI) X(SubI) X(MulI) X(DivI) X(ModI) X(NegI)                                \
  X(AddF) X(SubF) X(MulF) X(DivF) X(NegF)                                        \
  X(LtI) X(LeI) X(GtI) X(GeI) X(EqI) X(NeI)                                      \
  X(LtF) X(LeF) X(GtF) X(GeF) X(EqF) X(NeF)                                      \
  X(NotI) X(BoolI) X(I2F)                                                        \
  X(LoadVar) X(StoreVar)                                                         \
  X(AllocArr) X(LoadIdx) X(StoreIdx) X(ArrLen)                                   \
  X(Jump) X(CJump) X(Ret)                                                        \
  X(BlockBegin) X(BlockEnd) X(IterMark)

// Decoded opcodes: the segment charges, the IR's, and one per call target.
#define PDC_VM_CODES(X)                                                          \
  X(Charge) X(CallCost)                                                          \
  PDC_VM_IR_OPS(X)                                                               \
  X(Sqrt) X(Fabs) X(Fmax) X(Fmin) X(Floor)                                       \
  X(Rank) X(Nprocs) X(Param) X(ParamF)                                           \
  X(Send) X(Recv) X(AllreduceMax)                                                \
  X(CallUser) X(CallUnknown)

enum class Code : std::uint8_t {
#define PDC_VM_ENUM(name) name,
  PDC_VM_CODES(PDC_VM_ENUM)
#undef PDC_VM_ENUM
};

/// One decoded instruction.
struct Instr {
  const void* handler = nullptr;  // label in Vm::exec, bound on the first call
  Code op = Code::Charge;
  ir::IrType type = ir::IrType::I64;  // AllocArr element type
  int dst = -1, a = -1, b = -1;       // registers; Send/Recv: a = peer, b = tag
  int slot = -1;  // scalar or array slot; CallUser: callee; CallUnknown: name
  int t1 = -1, t2 = -1;  // Jump/CJump: code offsets; Send/Recv: offset, count registers
  long long imm_i = 0;   // ConstI, block and iteration ids; Charge: instruction count
  double imm_f = 0;      // ConstF; Charge, CallCost: cycles
  double imm_f2 = 0;     // CallCost: builtin cycles, added second
};

struct Builtin {
  const char* name;
  Code code;
  bool ends_segment;  // its hook may read cycles()
};

constexpr Builtin kBuiltins[] = {
    {"sqrt", Code::Sqrt, false},         {"fabs", Code::Fabs, false},
    {"fmax", Code::Fmax, false},         {"fmin", Code::Fmin, false},
    {"floor", Code::Floor, false},       {"p2p_rank", Code::Rank, false},
    {"p2p_nprocs", Code::Nprocs, false}, {"p2p_param", Code::Param, false},
    {"p2p_param_f", Code::ParamF, false}, {"p2p_send", Code::Send, true},
    {"p2p_recv", Code::Recv, true},      {"p2p_allreduce_max", Code::AllreduceMax, true},
};

const Builtin* find_builtin(const std::string& name) {
  for (const Builtin& b : kBuiltins)
    if (name == b.name) return &b;
  return nullptr;
}

Code code_of(Op op) {
  switch (op) {
#define PDC_VM_SAME(name) \
  case Op::name:          \
    return Code::name;
    PDC_VM_IR_OPS(PDC_VM_SAME)
#undef PDC_VM_SAME
    case Op::Call:
      break;
  }
  return Code::CallUnknown;
}

// Traps, kept out of the interpreter loop.
[[noreturn, gnu::cold, gnu::noinline]] void trap(const IrFunction& fn, const std::string& msg) {
  throw TrapError("in '" + fn.name + "': " + msg);
}

[[noreturn, gnu::cold, gnu::noinline]] void trap_unallocated(const IrFunction& fn, int slot) {
  trap(fn, "use of unallocated array '" + fn.arr_slots[static_cast<std::size_t>(slot)].name + "'");
}

[[noreturn, gnu::cold, gnu::noinline]] void trap_index(const IrFunction& fn, int slot,
                                                       long long idx, std::size_t size) {
  trap(fn, "index " + std::to_string(idx) + " out of bounds for '" +
               fn.arr_slots[static_cast<std::size_t>(slot)].name + "' (size " +
               std::to_string(size) + ")");
}

[[noreturn, gnu::cold, gnu::noinline]] void trap_range(const IrFunction& fn, long long off,
                                                       long long n) {
  trap(fn, "communication range [" + std::to_string(off) + ", " + std::to_string(off + n) +
               ") out of bounds");
}

}  // namespace

/// Flat code for one function: one Charge per segment, jump targets as
/// code offsets, user-call arguments in a side table.
struct Vm::Function {
  const IrFunction* ir = nullptr;
  std::vector<Instr> code;
  std::vector<int> args;              // CallUser: registers or encoded array slots
  std::vector<std::string> unknown;   // CallUnknown: callee names
  bool threaded = false;              // handlers bound

  Function(const ir::IrProgram& prog, const IrFunction& fn, const CostModel& model,
           bool segments);
};

Vm::Function::Function(const ir::IrProgram& prog, const IrFunction& fn, const CostModel& model,
                       bool segments)
    : ir(&fn) {
  code.reserve(2 * fn.instr_count());
  std::vector<int> block_start(fn.blocks.size());
  std::size_t charge = 0;  // the open segment's Charge
  auto open_segment = [&] {
    charge = code.size();
    code.emplace_back();
  };
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    block_start[bi] = static_cast<int>(code.size());
    open_segment();
    const std::vector<ir::Instr>& instrs = fn.blocks[bi].instrs;
    for (std::size_t k = 0; k < instrs.size(); ++k) {
      const ir::Instr& in = instrs[k];
      code[charge].imm_f += model.op_cost(in.op);
      code[charge].imm_i += 1;
      Instr d;
      d.op = code_of(in.op);
      d.type = in.type;
      d.dst = in.dst;
      d.a = in.a;
      d.b = in.b;
      d.slot = in.slot;
      d.t1 = in.t1;
      d.t2 = in.t2;
      d.imm_i = in.imm_i;
      d.imm_f = in.imm_f;
      bool ends = !segments || ir::is_terminator(in.op) || in.op == Op::BlockBegin ||
                  in.op == Op::BlockEnd || in.op == Op::IterMark || in.op == Op::AllocArr;
      if (in.op == Op::Call) {
        const double overhead =
            model.call_overhead + model.per_arg_cost * static_cast<double>(in.args.size());
        double cost = 0;
        auto arg = [&in](std::size_t i) { return in.args[i]; };
        if (const Builtin* b = find_builtin(in.sym)) {
          d.op = b->code;
          cost = model.builtin_cost(in.sym);
          ends = ends || b->ends_segment;
          if (b->code == Code::Send || b->code == Code::Recv) {
            d.a = arg(0);
            d.b = arg(1);
            d.slot = ir::decode_array_arg(arg(2));
            d.t1 = arg(3);
            d.t2 = arg(4);
          } else {
            if (!in.args.empty()) d.a = arg(0);
            if (in.args.size() > 1) d.b = arg(1);
          }
        } else {
          ends = true;
          if (const IrFunction* target = prog.find(in.sym)) {
            d.op = Code::CallUser;
            d.slot = static_cast<int>(target - prog.functions.data());
            d.a = static_cast<int>(args.size());
            d.b = static_cast<int>(in.args.size());
            args.insert(args.end(), in.args.begin(), in.args.end());
          } else {
            d.op = Code::CallUnknown;
            d.slot = static_cast<int>(unknown.size());
            unknown.push_back(in.sym);
          }
        }
        if (ends) {
          Instr c;
          c.op = Code::CallCost;
          c.imm_f = overhead;
          c.imm_f2 = cost;
          code.push_back(c);
        } else {
          code[charge].imm_f += overhead + cost;
        }
      }
      code.push_back(d);
      if (ends && k + 1 < instrs.size()) open_segment();
    }
  }
  for (Instr& d : code) {
    if (d.op == Code::Jump || d.op == Code::CJump) {
      d.t1 = block_start[static_cast<std::size_t>(d.t1)];
      if (d.op == Code::CJump) d.t2 = block_start[static_cast<std::size_t>(d.t2)];
    }
  }
}

Vm::Vm(const ir::IrProgram& program, CostModel model)
    : prog_(&program), model_(std::move(model)), hooks_(&default_hooks_) {
  default_hooks_.vm_ = this;
  const bool segments = model_.quarter_exact();
  functions_.reserve(program.functions.size());
  for (const IrFunction& fn : program.functions)
    functions_.emplace_back(program, fn, model_, segments);
}

Vm::~Vm() = default;

void Vm::set_hooks(CommHooks* hooks) {
  hooks_ = hooks != nullptr ? hooks : &default_hooks_;
  hooks_->vm_ = this;
}

Value Vm::call(const std::string& name, const std::vector<Value>& args) {
  const IrFunction* fn = prog_->find(name);
  if (fn == nullptr) throw TrapError("call to unknown function '" + name + "'");
  const std::vector<std::shared_ptr<ArrayObj>> arrays(static_cast<std::size_t>(fn->num_params));
  return exec(functions_[static_cast<std::size_t>(fn - prog_->functions.data())], args.data(),
              args.size(), arrays.data(), 0);
}

long long Vm::run_main() { return call("main").i; }

Value Vm::exec(Function& fn, const Value* args, std::size_t nargs,
               const std::shared_ptr<ArrayObj>* array_args, int depth) {
  const IrFunction& src = *fn.ir;
  if (depth > 200) throw TrapError("call depth limit exceeded in '" + src.name + "'");

  std::vector<Value> regs(static_cast<std::size_t>(src.num_regs));
  std::vector<Value> vars(src.var_slots.size());
  // The frame owns its arrays; the loop reads them through `arrays`, raw
  // pointers kept in step with `owned`.
  std::vector<std::shared_ptr<ArrayObj>> owned(src.arr_slots.size());
  std::vector<ArrayObj*> arrays(src.arr_slots.size(), nullptr);

  // Scalar args land in registers 0..num_params-1 (lowering convention);
  // array slots with a param index bind to the caller's objects.
  for (std::size_t i = 0; i < nargs && i < regs.size(); ++i) regs[i] = args[i];
  for (std::size_t s = 0; s < src.arr_slots.size(); ++s) {
    const ir::ArrSlot& slot = src.arr_slots[s];
    if (!slot.is_param) continue;
    const std::shared_ptr<ArrayObj>& bound = array_args[static_cast<std::size_t>(slot.param_index)];
    if (!bound)
      throw TrapError("array parameter '" + slot.name + "' of '" + src.name + "' not bound");
    owned[s] = bound;
    arrays[s] = bound.get();
  }

  Value* const r = regs.data();
  Value* const v = vars.data();
  const Instr* const code = fn.code.data();
  const Instr* pc = code;

  // Direct threading: each instruction carries the address of its handler's
  // label. Labels are local to this function, so the addresses are bound
  // here, on the function's first call. A computed goto runs no destructors:
  // a handler's objects with destructors must die before it dispatches.
  static const void* const kDispatch[] = {
#define PDC_VM_LABEL(name) &&op_##name,
      PDC_VM_CODES(PDC_VM_LABEL)
#undef PDC_VM_LABEL
  };
  if (!fn.threaded) {
    for (Instr& d : fn.code) d.handler = kDispatch[static_cast<std::size_t>(d.op)];
    fn.threaded = true;
  }
#define DISPATCH() goto* pc->handler
#define NEXT() \
  do {         \
    ++pc;      \
    DISPATCH();  \
  } while (0)
#define RI(x) r[x].i
#define RF(x) r[x].f

  DISPATCH();

op_Charge:
  cycles_ += pc->imm_f;
  papi_.instructions += static_cast<std::uint64_t>(pc->imm_i);
  if (cycles_ > cycle_limit_) [[unlikely]]
    trap(src, "cycle limit exceeded");
  NEXT();
op_CallCost:
  cycles_ += pc->imm_f;
  cycles_ += pc->imm_f2;
  NEXT();

op_ConstI: RI(pc->dst) = pc->imm_i; NEXT();
op_ConstF: RF(pc->dst) = pc->imm_f; NEXT();
op_Mov: r[pc->dst] = r[pc->a]; NEXT();

op_AddI: RI(pc->dst) = RI(pc->a) + RI(pc->b); NEXT();
op_SubI: RI(pc->dst) = RI(pc->a) - RI(pc->b); NEXT();
op_MulI: RI(pc->dst) = RI(pc->a) * RI(pc->b); NEXT();
op_DivI:
  if (RI(pc->b) == 0) [[unlikely]]
    trap(src, "integer division by zero");
  RI(pc->dst) = RI(pc->a) / RI(pc->b);
  NEXT();
op_ModI:
  if (RI(pc->b) == 0) [[unlikely]]
    trap(src, "integer modulo by zero");
  RI(pc->dst) = RI(pc->a) % RI(pc->b);
  NEXT();
op_NegI: RI(pc->dst) = -RI(pc->a); NEXT();
op_AddF: RF(pc->dst) = RF(pc->a) + RF(pc->b); NEXT();
op_SubF: RF(pc->dst) = RF(pc->a) - RF(pc->b); NEXT();
op_MulF: RF(pc->dst) = RF(pc->a) * RF(pc->b); NEXT();
op_DivF: RF(pc->dst) = RF(pc->a) / RF(pc->b); NEXT();
op_NegF: RF(pc->dst) = -RF(pc->a); NEXT();
op_LtI: RI(pc->dst) = RI(pc->a) < RI(pc->b); NEXT();
op_LeI: RI(pc->dst) = RI(pc->a) <= RI(pc->b); NEXT();
op_GtI: RI(pc->dst) = RI(pc->a) > RI(pc->b); NEXT();
op_GeI: RI(pc->dst) = RI(pc->a) >= RI(pc->b); NEXT();
op_EqI: RI(pc->dst) = RI(pc->a) == RI(pc->b); NEXT();
op_NeI: RI(pc->dst) = RI(pc->a) != RI(pc->b); NEXT();
op_LtF: RI(pc->dst) = RF(pc->a) < RF(pc->b); NEXT();
op_LeF: RI(pc->dst) = RF(pc->a) <= RF(pc->b); NEXT();
op_GtF: RI(pc->dst) = RF(pc->a) > RF(pc->b); NEXT();
op_GeF: RI(pc->dst) = RF(pc->a) >= RF(pc->b); NEXT();
op_EqF: RI(pc->dst) = RF(pc->a) == RF(pc->b); NEXT();
op_NeF: RI(pc->dst) = RF(pc->a) != RF(pc->b); NEXT();
op_NotI: RI(pc->dst) = RI(pc->a) == 0 ? 1 : 0; NEXT();
op_BoolI: RI(pc->dst) = RI(pc->a) != 0 ? 1 : 0; NEXT();
op_I2F: RF(pc->dst) = static_cast<double>(RI(pc->a)); NEXT();

op_LoadVar: r[pc->dst] = v[pc->slot]; NEXT();
op_StoreVar: v[pc->slot] = r[pc->a]; NEXT();

op_AllocArr: {
  const long long size = RI(pc->a);
  if (size < 0) [[unlikely]]
    trap(src, "negative array size");
  std::shared_ptr<ArrayObj>& slot = owned[static_cast<std::size_t>(pc->slot)];
  slot = std::make_shared<ArrayObj>();
  slot->elem = pc->type;
  slot->data.assign(static_cast<std::size_t>(size), Value{});
  arrays[static_cast<std::size_t>(pc->slot)] = slot.get();
  cycles_ += model_.alloc_base + model_.alloc_per_elem * static_cast<double>(size);
  NEXT();
}
op_LoadIdx: {
  const ArrayObj* arr = arrays[static_cast<std::size_t>(pc->slot)];
  if (arr == nullptr) [[unlikely]]
    trap_unallocated(src, pc->slot);
  const long long idx = RI(pc->a);
  if (static_cast<unsigned long long>(idx) >= arr->data.size()) [[unlikely]]
    trap_index(src, pc->slot, idx, arr->data.size());
  r[pc->dst] = arr->data[static_cast<std::size_t>(idx)];
  NEXT();
}
op_StoreIdx: {
  ArrayObj* arr = arrays[static_cast<std::size_t>(pc->slot)];
  if (arr == nullptr) [[unlikely]]
    trap_unallocated(src, pc->slot);
  const long long idx = RI(pc->a);
  if (static_cast<unsigned long long>(idx) >= arr->data.size()) [[unlikely]]
    trap_index(src, pc->slot, idx, arr->data.size());
  arr->data[static_cast<std::size_t>(idx)] = r[pc->b];
  NEXT();
}
op_ArrLen: {
  const ArrayObj* arr = arrays[static_cast<std::size_t>(pc->slot)];
  if (arr == nullptr) [[unlikely]]
    trap_unallocated(src, pc->slot);
  RI(pc->dst) = static_cast<long long>(arr->data.size());
  NEXT();
}

  // Every block starts with a Charge: branch to its handler directly.
op_Jump:
  pc = code + pc->t1;
  goto op_Charge;
op_CJump:
  pc = code + (RI(pc->a) != 0 ? pc->t1 : pc->t2);
  goto op_Charge;
op_Ret: {
  if (!block_stack_.empty() && depth == 0) block_stack_.clear();
  Value out;
  if (pc->a >= 0) out = r[pc->a];
  return out;
}

op_BlockBegin:
  block_stack_.emplace_back(static_cast<int>(pc->imm_i), cycles_);
  NEXT();
op_BlockEnd: {
  if (block_stack_.empty() || block_stack_.back().first != pc->imm_i) [[unlikely]]
    trap(src, "mismatched dperf_block_end(" + std::to_string(pc->imm_i) + ")");
  const auto [id, start] = block_stack_.back();
  block_stack_.pop_back();
  VPapi::BlockStat& stat = papi_.blocks[id];
  ++stat.executions;
  stat.cycles += cycles_ - start;
  NEXT();
}
op_IterMark:
  ++papi_.iter_marks;
  hooks_->iter_mark(pc->imm_i);
  NEXT();

op_Sqrt: RF(pc->dst) = std::sqrt(RF(pc->a)); NEXT();
op_Fabs: RF(pc->dst) = std::fabs(RF(pc->a)); NEXT();
op_Fmax: RF(pc->dst) = std::fmax(RF(pc->a), RF(pc->b)); NEXT();
op_Fmin: RF(pc->dst) = std::fmin(RF(pc->a), RF(pc->b)); NEXT();
op_Floor: RF(pc->dst) = std::floor(RF(pc->a)); NEXT();
op_Rank: RI(pc->dst) = hooks_->rank(); NEXT();
op_Nprocs: RI(pc->dst) = hooks_->nprocs(); NEXT();
op_Param: RI(pc->dst) = hooks_->param(static_cast<int>(RI(pc->a))); NEXT();
op_ParamF: RF(pc->dst) = hooks_->param_f(static_cast<int>(RI(pc->a))); NEXT();
op_Send:
op_Recv: {
  ArrayObj* arr = arrays[static_cast<std::size_t>(pc->slot)];
  if (arr == nullptr) [[unlikely]]
    trap_unallocated(src, pc->slot);
  const long long off = RI(pc->t1);
  const long long n = RI(pc->t2);
  if (off < 0 || n < 0 || off + n > static_cast<long long>(arr->data.size())) [[unlikely]]
    trap_range(src, off, n);
  const int peer = static_cast<int>(RI(pc->a));
  const int tag = static_cast<int>(RI(pc->b));
  if (pc->op == Code::Send)
    hooks_->send(peer, tag, *arr, off, n);
  else
    hooks_->recv(peer, tag, *arr, off, n);
  NEXT();
}
op_AllreduceMax: RF(pc->dst) = hooks_->allreduce_max(RF(pc->a)); NEXT();

op_CallUser: {
  Value out;
  {
    const int* call = fn.args.data() + pc->a;
    const auto n = static_cast<std::size_t>(pc->b);
    std::vector<Value> call_args(n);
    std::vector<std::shared_ptr<ArrayObj>> call_arrays(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (ir::is_array_arg(call[i]))
        call_arrays[i] = owned[static_cast<std::size_t>(ir::decode_array_arg(call[i]))];
      else
        call_args[i] = r[call[i]];
    }
    out = exec(functions_[static_cast<std::size_t>(pc->slot)], call_args.data(), n,
               call_arrays.data(), depth + 1);
  }
  if (pc->dst >= 0) r[pc->dst] = out;
  NEXT();
}
op_CallUnknown:
  trap(src, "call to unknown function '" + fn.unknown[static_cast<std::size_t>(pc->slot)] + "'");

#undef RI
#undef RF
#undef NEXT
#undef DISPATCH
}

}  // namespace pdc::vm
