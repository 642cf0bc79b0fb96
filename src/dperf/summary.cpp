#include "dperf/summary.hpp"

#include <algorithm>

namespace pdc::dperf {

std::uint64_t TraceSummary::op_count() const {
  std::uint64_t n = pre.size();
  for (const IterBlock& b : blocks)
    n += static_cast<std::uint64_t>(b.ops.size()) * b.repeats;
  return n;
}

TraceSummary summarize_trace(const Trace& trace) {
  TraceSummary s;
  s.rank = trace.rank;
  s.nprocs = trace.nprocs;
  s.host_hz = trace.host_hz;

  // Marker positions partition the event stream.
  std::vector<std::size_t> markers;
  for (std::size_t i = 0; i < trace.events.size(); ++i)
    if (trace.events[i].kind == TraceEvent::Kind::IterMark) markers.push_back(i);
  s.iterations = markers.size();

  const auto body = [&trace](std::size_t from, std::size_t to) {
    std::vector<TraceEvent> ops;
    ops.reserve(to - from);
    for (std::size_t i = from; i < to; ++i)
      if (trace.events[i].kind != TraceEvent::Kind::IterMark)
        ops.push_back(trace.events[i]);
    return ops;
  };

  const std::size_t first = markers.empty() ? trace.events.size() : markers.front();
  s.pre = body(0, first);

  for (std::size_t m = 0; m < markers.size(); ++m) {
    const std::size_t from = markers[m];
    const std::size_t to = m + 1 < markers.size() ? markers[m + 1] : trace.events.size();
    std::vector<TraceEvent> ops = body(from, to);
    std::uint64_t compute = 0;
    for (const TraceEvent& e : ops)
      if (e.kind == TraceEvent::Kind::Compute) compute += e.ns;
    s.span_ns = std::max(s.span_ns, compute);
    if (!s.blocks.empty() && s.blocks.back().ops == ops)
      ++s.blocks.back().repeats;
    else
      s.blocks.push_back(IterBlock{std::move(ops), 1});
  }

  for (const TraceEvent& e : trace.events) {
    switch (e.kind) {
      case TraceEvent::Kind::Compute:
        s.total_compute_ns += e.ns;
        break;
      case TraceEvent::Kind::Send:
        if (e.peer >= 0 && e.peer < trace.nprocs) {
          // A rank talks to a handful of neighbours: a sorted vector, not an
          // nprocs-sized table (that would be O(ranks^2) over a trace set).
          auto it = std::lower_bound(
              s.send_to.begin(), s.send_to.end(), e.peer,
              [](const PeerVolume& v, int peer) { return v.peer < peer; });
          if (it == s.send_to.end() || it->peer != e.peer)
            it = s.send_to.insert(it, PeerVolume{e.peer});
          it->bytes += e.bytes;
          ++it->count;
        }
        break;
      case TraceEvent::Kind::Allreduce:
        ++s.collectives;
        break;
      case TraceEvent::Kind::Recv:
      case TraceEvent::Kind::IterMark:
        break;
    }
  }
  return s;
}

}  // namespace pdc::dperf
