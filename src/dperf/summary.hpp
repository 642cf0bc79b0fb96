// Compact per-iteration trace summaries: the input to the analytic planner
// (ROADMAP item 3). A dPerf trace is collapsed once into its pre-loop events
// plus run-length-encoded iteration bodies — extrapolated traces, whose
// steady chunks are literal copies, compress to a handful of blocks — and a
// set of aggregates (compute work, span, per-peer send volume, collective
// count) that campaigns and tools can inspect without replaying anything.
#pragma once

#include <cstdint>
#include <vector>

#include "dperf/trace.hpp"

namespace pdc::dperf {

/// One run of identical iteration bodies. `ops` holds the events of a single
/// iteration with the IterMark stripped (marker ids differ per iteration and
/// carry no cost, so dropping them is what makes bodies comparable).
struct IterBlock {
  std::vector<TraceEvent> ops;
  std::uint64_t repeats = 1;
};

/// Outbound volume toward one peer rank.
struct PeerVolume {
  int peer = -1;
  double bytes = 0;
  std::uint64_t count = 0;
};

struct TraceSummary {
  int rank = 0;
  int nprocs = 1;
  double host_hz = 3e9;

  /// Events before the first iteration marker (setup, first sends).
  std::vector<TraceEvent> pre;
  /// RLE-compressed iteration bodies. Iteration i spans [marker_i,
  /// marker_{i+1}); the final block additionally holds everything after the
  /// last marker (the closing iteration plus post-loop events).
  std::vector<IterBlock> blocks;

  // Aggregates over the whole trace.
  std::uint64_t iterations = 0;        // number of iteration markers
  std::uint64_t total_compute_ns = 0;  // pre + all iterations
  std::uint64_t span_ns = 0;           // max single-iteration compute
  std::uint64_t collectives = 0;       // allreduce count
  std::vector<PeerVolume> send_to;     // peers actually sent to, ascending

  /// Expanded operation count (pre + sum over blocks of ops * repeats).
  std::uint64_t op_count() const;
};

/// One pass over the trace; never fails (a marker-free trace summarizes to
/// pre-only with zero iterations).
TraceSummary summarize_trace(const Trace& trace);

}  // namespace pdc::dperf
