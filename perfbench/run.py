#!/usr/bin/env python3
"""End-to-end prediction benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the scenario CLI, the pdc_serve daemon and the benchmark's probe from
the repository sources (into $CARGO_TARGET_DIR, default .bench_build), runs
one workload, checks every answer, writes one result file and prints the
result as the last line of stdout:

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run made after the untraced one. --reduced shrinks every workload
to seconds-long requests (used by test_run.py). See README.md.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_paper", "fullpop", "warm_whatif")
CHILD_TIMEOUT_S = 170
# The analytic mode's documented accuracy against the replay.
ANALYTIC_BOUND = 0.10
MIB = float(1 << 20)

END_TO_END = {
    "setup_s": "s", "request_s": "s", "request_p90_s": "s", "points_per_s": "1/s",
    "peak_rss_mb": "MiB", "prediction_error": "fraction", "analytic_error": "fraction",
}
PER_LAYER = {
    "minic.frontend_s": "s", "ir.compile_s": "s", "ir.compiles": "count",
    "vm.exec_s": "s", "vm.cycles": "count", "vm.cycles_per_s": "1/s",
    "dperf.trace_s": "s", "dperf.trace_runs": "count", "dperf.trace_events": "count",
    "dperf.profile_s": "s", "dperf.summarize_s": "s", "dperf.summary_mb": "MiB",
    "dperf.plan_s": "s", "dperf.plan_ops": "count", "dperf.plan_queries": "count",
    "scenario.deploy_s": "s", "scenario.render_s": "s",
    "sim.reference_s": "s", "sim.replay_s": "s", "sim.events": "count", "sim.events_per_s": "1/s",
    "net.flows": "count", "net.reshares": "count", "net.flows_rescanned": "count",
    "net.classes_active": "count", "net.routes_computed": "count", "net.route_hits": "count",
    "serve.hit_ms": "ms", "serve.miss_overhead_ms": "ms", "serve.hits": "count",
    "serve.misses": "count", "serve.cache_mb": "MiB", "serve.memo_trace_mb": "MiB",
    "trace.coverage": "fraction", "trace.overhead": "fraction",
}
LAYER_SECONDS = [k for k, u in PER_LAYER.items() if u == "s"]


class BenchError(Exception):
    """The benchmark itself could not run (build, missing sources, hung child)."""


# ------------------------------------------------------------------ inputs

def scn(name, platform, peers, opt, mode, seed, extra=()):
    lines = [f"scenario {name}", f"platform {platform}", f"peers {peers}", f"opt {opt}",
             f"mode {mode}", f"seed {seed}", *extra]
    return "\n".join(lines) + "\n"


def sizing(reduced):
    """Obstacle sizing lines: none (paper defaults), or the reduced test size."""
    return ["grid 386", "iters 40"] if reduced else []


def cold_paper_round(seed, rnd, reduced):
    rng = random.Random(f"cold_paper/{seed}/{rnd}")
    size = sizing(reduced)
    reqs = [scn(f"cold-o3-grid5000-s{seed}-r{rnd}", "grid5000", 4, 3, "both", seed, size),
            scn(f"cold-o0-lan-s{seed}-r{rnd}", "lan", 4, 0, "both-analytic", seed, size)]
    if rnd >= 0:
        rng.shuffle(reqs)
    return reqs


FULLPOP_PLATFORM_SEED = 42


def fullpop_round(seed, rnd, reduced):
    rng = random.Random(f"fullpop/{seed}/{rnd}")
    peers = 300 if reduced else 10000
    common = ["ranks 0", "boot lazy", "trackers 4", "grid 258", "iters 2"]
    # The platform seed is fixed: the generated graphs, and so every simulated
    # output, are the same in every run; the benchmark seed names the requests.
    reqs = [scn(f"fullpop-small_world-s{seed}-r{rnd}", "small_world routers=64", peers, 0,
                "both", FULLPOP_PLATFORM_SEED, common),
            scn(f"fullpop-scale_free-s{seed}-r{rnd}", "scale_free routers=64", peers, 0,
                "both-analytic", FULLPOP_PLATFORM_SEED, common)]
    if rnd >= 0:
        rng.shuffle(reqs)
    return reqs


# warm_whatif catalogue: (platform, peers, mode, scheme, alloc, churn lines).
# Every entry runs 32 ranks at O3 on the memoized trace set; the simulated
# outputs of an entry do not depend on the benchmark seed.
LINK_CHURN = ("churn link_rate 0.01", "churn link_scale 0.5", "churn link_time 20",
              "churn horizon 200")
PEER_CHURN = ("churn rate 0.0005", "churn downtime 20", "churn horizon 100", "churn attempts 3")
WHATIFS = [
    ("grid5000", 32, "predict", "sync", "hierarchical", ()),
    ("grid5000", 1000, "analytic", "async", "flat", ()),
    ("grid5000", 10000, "both", "sync", "hierarchical", ()),
    ("grid5000", 1000, "both", "sync", "hierarchical", LINK_CHURN),
    ("lan", 32, "both", "async", "hierarchical", ()),
    ("lan", 1000, "predict", "sync", "flat", ()),
    ("lan", 10000, "analytic", "sync", "hierarchical", ()),
    ("lan", 1000, "predict", "sync", "hierarchical", PEER_CHURN),
    ("xdsl", 32, "predict", "sync", "hierarchical", ()),
    ("xdsl", 1000, "both", "sync", "hierarchical", ()),
    ("xdsl", 500, "both-analytic", "sync", "flat", ()),
    ("scale_free", 32, "both-analytic", "sync", "hierarchical", ()),
    ("scale_free", 1000, "predict", "sync", "flat", ()),
    ("scale_free", 10000, "both-analytic", "async", "hierarchical", ()),
    ("scale_free", 10000, "predict", "sync", "hierarchical", LINK_CHURN),
    ("small_world", 32, "analytic", "sync", "hierarchical", ()),
    ("small_world", 1000, "both-analytic", "sync", "hierarchical", ()),
    ("small_world", 10000, "both", "async", "flat", ()),
]
# The one request kept although it fails a check on every run: at 32 ranks
# the analytic plan on the LAN preset is ~54% off the replay (see README.md,
# Known faults). Its text does not depend on the seed; after its first answer
# the daemon serves it from the cache.
KNOWN_FAULT = ("lan", 32, "both-analytic", "sync", "hierarchical", ())
KNOWN_FAULT_NAME = "whatif-known-fault-lan-both-analytic"
HITS_PER_ROUND = 8


def whatif_text(name, entry, reduced):
    platform, peers, mode, scheme, alloc, churn = entry
    if reduced:
        peers = min(peers, 200)
    extra = ["ranks 32", "boot lazy", f"trackers {4 if peers >= 1000 else 1}",
             f"scheme {scheme}", f"alloc {alloc}", *churn, *sizing(reduced)]
    return scn(name, platform, peers, 3, mode, 42, extra)


def warm_setup_text(seed, reduced):
    return whatif_text(f"warm-setup-s{seed}", ("grid5000", 32, "predict", "sync",
                                               "hierarchical", ()), reduced)


def textual_variant(text, rng):
    """The same spec written differently: shuffled key lines, a comment,
    doubled blanks. Renders to the same canonical text."""
    lines = text.strip("\n").split("\n")
    head, rest = lines[0], lines[1:]
    rng.shuffle(rest)
    rest = [ln.replace(" ", "   ", 1) for ln in rest]
    return "\n".join([f"# repeated what-if {rng.randrange(1 << 30)}", head, "", *rest]) + "\n"


def warm_round(seed, rnd, reduced):
    """One round: every catalogue entry once under a fresh name (a miss), the
    known-fault request, and textual repeats of earlier entries (hits)."""
    rng = random.Random(f"warm_whatif/{seed}/{rnd}")
    misses = [whatif_text(f"wi-s{seed}-r{rnd}-{i:02d}", e, reduced) for i, e in enumerate(WHATIFS)]
    misses.append(whatif_text(KNOWN_FAULT_NAME, KNOWN_FAULT, reduced))
    rng.shuffle(misses)
    seq = list(misses)
    for _ in range(HITS_PER_ROUND):
        src = rng.choice([t for t in misses if KNOWN_FAULT_NAME not in t])
        pos = rng.randrange(seq.index(src) + 1, len(seq) + 1)
        seq.insert(pos, textual_variant(src, rng))
    return seq


ROUNDS = {"cold_paper": cold_paper_round, "fullpop": fullpop_round, "warm_whatif": warm_round}
# fullpop's requests are memory-bound (the 10^4-rank summaries peak at
# 3.1 GiB) and vary more from process to process than cold_paper's, so every
# run times each of them at least twice.
MIN_ROUNDS = {"fullpop": 2}


# ------------------------------------------------------------------ checks
#
# Each check returns a list of failure messages (empty = pass). They take
# plain data so that test_run.py can feed them corrupted answers.

def check_answer(rec, canonical, lower_bound_s, ranks, known_fault=False):
    """Checks (1), (2), (4) and (6) on one RunRecord (a parsed dict)."""
    out = []
    if "error" in rec:
        return [f"answer carries error: {rec['error']}"]
    if rec.get("spec") != canonical:
        out.append("spec echo differs from the canonical text of the request")
    for phase in ("reference", "predicted", "analytic"):
        ph = rec.get(phase)
        if ph is None:
            continue
        if ph["computation"]["peers"] != ranks:
            out.append(f"{phase}: computation.peers {ph['computation']['peers']} != {ranks}")
        if ph["flownet"]["flows_starved"] != 0:
            out.append(f"{phase}: {ph['flownet']['flows_starved']} starved flows")
        if phase != "reference" and ph["solve_seconds"] < lower_bound_s * (1 - 1e-12):
            out.append(f"{phase}: solve {ph['solve_seconds']} s below the compute lower "
                       f"bound {lower_bound_s} s")
    churn = "churn" in (rec.get("predicted") or {})
    if rec.get("analytic") and rec.get("predicted") and not churn:
        err = abs(rec["analytic"]["solve_seconds"] - rec["predicted"]["solve_seconds"]) / \
            rec["predicted"]["solve_seconds"]
        if err > ANALYTIC_BOUND:
            out.append(f"analytic solve {100 * err:.1f}% off the replay (bound "
                       f"{100 * ANALYTIC_BOUND:.0f}%)" + (" [known fault]" if known_fault else ""))
    return out


def check_facts(key, facts):
    """Check (3): every send in the trace set has its receive."""
    if facts["unmatched"] != 0:
        return [f"trace set {key}: {facts['unmatched']} unmatched sends/receives"]
    return []


def lower_bound_s(facts, fastest_hz):
    """Largest per-rank compute sum, run at the platform's fastest host."""
    return facts["max_compute_ns"] * 1e-9 * facts["host_hz"] / fastest_hz


def check_repeat(tag, body, first_body):
    """Check (5), cache half: a repeated spec is a hit with the same bytes."""
    out = []
    if tag != "hit":
        out.append(f"repeated spec answered '{tag}', not 'hit'")
    if body != first_body:
        out.append("hit body differs from the first answer")
    return out


def check_same_record(a, b, what):
    return [] if a == b else [f"{what}: RunRecords differ"]


# ------------------------------------------------------------------ plumbing

def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PDC_")}


def build(build_root):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no repository sources (CMakeLists.txt, src/) in {ROOT}")
    bdir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "example_pdc_scenario",
                      "example_pdc_serve", "perfbench_probe"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return {"cli": os.path.join(bdir, "pdc", "example_pdc_scenario"),
            "serve": os.path.join(bdir, "pdc", "example_pdc_serve"),
            "probe": os.path.join(bdir, "perfbench_probe"),
            "lib": os.path.join(bdir, "pdc", "libpdc.a")}


def run_child(cmd, cwd):
    """Runs a child to completion; returns (wall seconds, peak RSS MiB)."""
    # stderr goes to a file: a pipe nobody reads could fill and stall the child.
    err_path = os.path.join(cwd, "stderr.log")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
    deadline = t0 + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
        time.sleep(0.002)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n{read(err_path)[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def read(path):
    with open(path) as f:
        return f.read()


class Daemon:
    """One pdc_serve with one worker on a Unix socket in the work directory."""

    def __init__(self, exe, workdir):
        sock = os.path.join(workdir, "s.sock")
        self.addr = sock if len(sock) < 100 else os.path.relpath(sock)
        self.proc = subprocess.Popen([exe, "--unix", "s.sock", "-j", "1"], cwd=workdir,
                                     env=child_env(), stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.peak_rss_mb = None
        line = self.proc.stdout.readline().decode()
        while line and not line.startswith("pdc_serve ready"):
            line = self.proc.stdout.readline().decode()
        if not line:
            self.stop()
            raise BenchError("pdc_serve did not start")

    def _call(self, payload):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(CHILD_TIMEOUT_S)
        try:
            s.connect(self.addr)
            s.sendall(payload)
            f = s.makefile("rb")
            head = f.readline().decode().split()
            if not head:
                raise BenchError("pdc_serve closed the connection without an answer")
            body = f.read(int(head[1]))
            return head, body.decode()
        finally:
            s.close()

    def run(self, text):
        data = text.encode()
        head, body = self._call(b"RUN scn %d\n" % len(data) + data)
        return (head[2] if head[0] == "OK" else "error"), body

    def stats(self):
        return json.loads(self._call(b"STATS\n")[1])

    def stop(self):
        if self.proc.poll() is None and self.peak_rss_mb is None:
            try:
                self._call(b"SHUTDOWN\n")
            except (OSError, BenchError):
                self.proc.kill()
        try:
            _, _, usage = os.wait4(self.proc.pid, 0)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        except ChildProcessError:
            pass
        self.proc.stdout.close()


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "examples", "CMakeLists.txt"):
        top = os.path.join(ROOT, base)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def mem_total_mb():
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


# ------------------------------------------------------------------ the run

class Run:
    def __init__(self, args, exe, build_root):
        self.args = args
        self.exe = exe
        self.build_root = build_root
        self.workdir = os.path.join(build_root, "perfbench", "work", args.workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.nfile = 0
        self.requests = []   # {name, file, text, tag, seconds, body}
        self.failures = []   # (request name or None, message, known_fault)
        self.attempted = 0
        self.failed = 0
        self.rss = []

    def spec_file(self, text):
        self.nfile += 1
        path = os.path.join(self.workdir, f"q{self.nfile:04d}.scn")
        write(path, text)
        return path

    # -- probe helpers
    def probe_specs(self, files):
        out = os.path.join(self.workdir, "specs.json")
        run_child([self.exe["probe"], "specs", out, *files], self.workdir)
        return {s["file"]: s for s in json.loads(read(out))}

    def trace_facts(self, spec_file, key):
        """Facts of the trace set for `key`, cached per library build."""
        lib = hashlib.sha256(open(self.exe["lib"], "rb").read()).hexdigest()[:16]
        cache = os.path.join(self.build_root, "perfbench", "facts", f"{lib}-{key}.json")
        if not os.path.isfile(cache):
            os.makedirs(os.path.dirname(cache), exist_ok=True)
            out = os.path.join(self.workdir, "facts.json")
            run_child([self.exe["probe"], "facts", out, spec_file], self.workdir)
            os.replace(out, cache)
        return json.loads(read(cache))["facts"]

    # -- workloads
    def timed_rounds(self, send):
        rnd = 0
        t0 = time.perf_counter()
        while True:
            for text in ROUNDS[self.args.workload](self.args.seed, rnd, self.args.reduced):
                send(text)
            rnd += 1
            if (time.perf_counter() - t0 >= self.args.seconds
                    and rnd >= MIN_ROUNDS.get(self.args.workload, 1)):
                return time.perf_counter() - t0

    def cold(self):
        """Each request in a fresh scenario CLI process."""
        def send(text, timed=True):
            f = self.spec_file(text)
            out = f + ".json"
            wall, rss = run_child([self.exe["cli"], "-o", out, f], self.workdir)
            if timed:
                self.rss.append(rss)
                self.requests.append({"name": text.split("\n")[0][9:], "file": f, "text": text,
                                      "tag": "cold", "seconds": wall, "body": read(out)})

        t0 = time.perf_counter()
        # Set-up: the round's first request kind, unshuffled (round -1), untimed.
        setup_text = ROUNDS[self.args.workload](self.args.seed, -1, self.args.reduced)[0]
        send(setup_text, timed=False)
        self.setup_s = time.perf_counter() - t0
        self.timed_s = self.timed_rounds(send)

    def warm(self):
        t0 = time.perf_counter()
        daemon = Daemon(self.exe["serve"], self.workdir)
        try:
            setup_text = warm_setup_text(self.args.seed, self.args.reduced)
            tag, body = daemon.run(setup_text)
            if tag == "error":
                raise BenchError(f"warm set-up request failed: {body}")
            self.setup_s = time.perf_counter() - t0

            def send(text):
                t = time.perf_counter()
                tag, body = daemon.run(text)
                self.requests.append({"name": None, "file": None, "text": text, "tag": tag,
                                      "seconds": time.perf_counter() - t, "body": body})

            self.timed_s = self.timed_rounds(send)
            self.serve_stats = daemon.stats()
        finally:
            daemon.stop()
        self.rss.append(daemon.peak_rss_mb)
        for r in self.requests:
            r["file"] = self.spec_file(r["text"])

    # -- checks
    def check(self):
        specs = self.probe_specs(sorted({r["file"] for r in self.requests}))
        facts = self.facts = {}
        for r in self.requests:
            s = specs[r["file"]]
            r["canonical"], r["key"] = s["canonical"], s["key"]
            if s["key"] not in facts:
                facts[s["key"]] = self.trace_facts(r["file"], s["key"])
                for msg in check_facts(s["key"], facts[s["key"]]):
                    self.failures.append((None, msg, False))
        first = {}
        for r in self.requests:
            self.attempted += 1
            s = specs[r["file"]]
            r["record"] = json.loads(r["body"]) if r["tag"] != "error" else {"error": r["body"]}
            r["name"] = r["record"].get("scenario", r["name"])
            known = r["name"] == KNOWN_FAULT_NAME
            msgs = check_answer(r["record"], s["canonical"],
                                lower_bound_s(facts[s["key"]], s["fastest_hz"]), s["ranks"], known)
            if r["tag"] in ("hit", "miss"):
                if s["canonical"] in first:
                    msgs += check_repeat(r["tag"], r["body"], first[s["canonical"]])
                else:
                    first[s["canonical"]] = r["body"]
                    if r["tag"] != "miss":
                        msgs.append(f"first answer for a spec tagged '{r['tag']}'")
            r["failed"] = bool(msgs)
            if msgs:
                self.failed += 1
                self.failures += [(r["name"], m, known and m.endswith("[known fault]"))
                                  for m in msgs]
        if self.args.workload == "warm_whatif":
            self.sample_cli(first)

    def sample_cli(self, first):
        """Check (5), CLI half: one seeded miss answer equals the CLI's record."""
        rng = random.Random(f"cli-sample/{self.args.seed}")
        misses = [r for r in self.requests if r["tag"] == "miss" and r["name"] != KNOWN_FAULT_NAME]
        r = rng.choice(misses)
        out = r["file"] + ".cli.json"
        run_child([self.exe["cli"], "-o", out, r["file"]], self.workdir)
        for msg in check_same_record(read(out), r["body"], f"daemon vs CLI for {r['name']}"):
            self.failures.append((r["name"], msg, False))

    # -- metrics
    def end_to_end(self):
        # Cache hits are left out of the latency figures (serve.hit_ms
        # reports them); throughput counts every RunRecord answered.
        lat = [r["seconds"] for r in self.requests if r["tag"] != "hit"]
        distinct = {}
        for r in self.requests:
            if not r["failed"]:
                distinct.setdefault(r["canonical"], r["record"])
        pe = [rec["prediction_error"] for rec in distinct.values() if "prediction_error" in rec]
        ae = [rec["analytic_error"] for rec in distinct.values()
              if "analytic_error" in rec and "churn" not in rec.get("predicted", {})]
        return {
            "setup_s": self.setup_s,
            "request_s": statistics.median(lat),
            "request_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8]
            if len(lat) > 1 else lat[0],
            "points_per_s": len(self.requests) / self.timed_s,
            "peak_rss_mb": max(self.rss),
            "prediction_error": statistics.fmean(pe) if pe else 0.0,
            "analytic_error": statistics.fmean(ae) if ae else 0.0,
        }

    def traced(self, untraced_median):
        """The traced run: the first round's requests, hits left out, through
        the probe."""
        probe = self.exe["probe"]
        out = os.path.join(self.workdir, "traced.json")
        first_round = len(ROUNDS[self.args.workload](self.args.seed, 0, self.args.reduced))
        reqs = [r for r in self.requests[:first_round] if r["tag"] != "hit"]
        if self.args.workload == "warm_whatif":
            setup = self.spec_file(warm_setup_text(self.args.seed, self.args.reduced))
            run_child([probe, "traced", out, "--warm", setup, *[r["file"] for r in reqs]],
                      self.workdir)
            doc = json.loads(read(out))
            traced = [q["traced_seconds"] for q in doc["requests"]]
            untraced = [q["untraced_seconds"] for q in doc["requests"]]
            overhead = statistics.median(traced) / statistics.median(untraced)
            for r, q in zip(reqs, doc["requests"]):
                r["inproc_s"] = q["untraced_seconds"]
            docs = [doc]
        else:
            # Cold: one fresh probe process per request.
            docs, walls = [], []
            for r in reqs:
                wall, _ = run_child([probe, "traced", out, r["file"]], self.workdir)
                walls.append(wall)
                docs.append(json.loads(read(out)))
            traced = [q["traced_seconds"] for d in docs for q in d["requests"]]
            overhead = statistics.median(walls) / untraced_median
        for r in reqs:
            if self.args.workload == "warm_whatif":
                self.expect_same(read(r["file"] + ".untraced.json"), r["body"], r["name"],
                                 "in-process untraced")
            self.expect_same(read(r["file"] + ".traced.json"), r["body"], r["name"], "traced")
        return self.layer_metrics(docs, reqs, traced, overhead)

    def expect_same(self, a, b, name, what):
        for msg in check_same_record(a, b, f"{what} vs answered record for {name}"):
            self.failures.append((name, msg, False))

    def layer_metrics(self, docs, reqs, traced, overhead):
        n = len(reqs)
        sec, cnt = {}, {}
        for d in docs:
            for k, v in d["seconds"].items():
                sec[k] = sec.get(k, 0.0) + v
            for k, v in d["counts"].items():
                cnt[k] = cnt.get(k, 0.0) + v
            for key, f in d["facts"].items():
                if f != self.facts.get(key, f):
                    self.failures.append((None, f"traced trace set {key} differs from the "
                                          "program's", False))
        m = {k: 0.0 for k in PER_LAYER}
        for k in LAYER_SECONDS:
            m[k] = sec.get(k, 0.0) / n
        for k in ("ir.compiles", "vm.cycles", "dperf.trace_runs", "dperf.trace_events",
                  "dperf.summary_mb", "dperf.plan_ops", "dperf.plan_queries"):
            m[k] = cnt.get(k, 0.0) / n
        m["vm.cycles_per_s"] = m["vm.cycles"] / m["vm.exec_s"] if m["vm.exec_s"] else 0.0
        for r in reqs:
            rec = r["record"]
            for phase in ("reference", "predicted", "analytic"):
                ph = rec.get(phase)
                if ph is None:
                    continue
                m["sim.events"] += ph["engine"]["events_dispatched"] / n
                m["net.flows"] += ph["flownet"]["flows_started"] / n
                m["net.reshares"] += ph["flownet"]["reshares"] / n
                m["net.flows_rescanned"] += ph["flownet"]["flows_rescanned"] / n
                m["net.classes_active"] += ph["flownet"]["classes_active"] / n
                m["net.routes_computed"] += ph["routes"]["routes_computed"] / n
                m["net.route_hits"] += ph["routes"]["cache_hits"] / n
        sim_s = m["sim.reference_s"] + m["sim.replay_s"]
        m["sim.events_per_s"] = m["sim.events"] / sim_s if sim_s else 0.0
        if self.args.workload == "warm_whatif":
            st = self.serve_stats
            hits = [r["seconds"] for r in self.requests if r["tag"] == "hit"]
            m["serve.hit_ms"] = 1000 * statistics.median(hits)
            m["serve.miss_overhead_ms"] = 1000 * statistics.median(
                [r["seconds"] - r["inproc_s"] for r in reqs])
            m["serve.hits"] = st["cache"]["hits"]
            m["serve.misses"] = st["cache"]["misses"]
            m["serve.cache_mb"] = st["cache"]["bytes"] / MIB
            m["serve.memo_trace_mb"] = st["memos"]["trace_bytes"] / MIB
        m["trace.coverage"] = sum(m[k] for k in LAYER_SECONDS) / statistics.fmean(traced)
        m["trace.overhead"] = overhead
        self.limiting_layer = max(LAYER_SECONDS, key=lambda k: m[k])
        return m


def result_file(run, metrics, units, correct):
    path = os.path.join(run.build_root, "perfbench", "results",
                        f"{run.args.workload}-seed{run.args.seed}-trace{run.args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "workload": run.args.workload, "seed": run.args.seed, "seconds": run.args.seconds,
        "trace": run.args.trace, "reduced": run.args.reduced, "commit": commit_id(),
        "source_digest": source_digest(), "nproc": os.cpu_count(), "mem_total_mb": mem_total_mb(),
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "failures": [{"request": n, "message": m, "known_fault": k} for n, m, k in run.failures],
        "metrics": [{"name": k, "unit": units[k], "value": v} for k, v in metrics.items()],
        "limiting_layer": getattr(run, "limiting_layer", None),
        "requests": [{
            "name": r["name"], "tag": r["tag"], "host_seconds": r["seconds"],
            "failed": r["failed"],
            "simulated": {ph: {"solve_seconds": r["record"][ph]["solve_seconds"],
                               "total_seconds": r["record"][ph]["total_seconds"]}
                          for ph in ("reference", "predicted", "analytic") if ph in r["record"]},
        } for r in run.requests],
    }
    write(path, json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="seconds-long requests for the benchmark's own tests")
    args = ap.parse_args(argv)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_root)
        run = Run(args, exe, build_root)
        if args.workload == "warm_whatif":
            run.warm()
        else:
            run.cold()
        run.check()
        e2e = run.end_to_end()
        if args.trace:
            metrics, units = run.traced(e2e["request_s"]), PER_LAYER
        else:
            metrics, units = e2e, END_TO_END
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    correct = all(known for _, _, known in run.failures)
    path = result_file(run, metrics, units, correct)
    for name, msg, known in run.failures:
        print(f"perfbench: {'known fault' if known else 'FAILED'}: {name or '-'}: {msg}",
              file=sys.stderr)
    if args.trace:
        print(f"limiting layer ({args.workload}): {run.limiting_layer}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
