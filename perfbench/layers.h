// layers.h — per-layer measurements of the traced run.
//
// Three sources, all driven from the benchmark's own files:
//  * counts: deltas of the program's own counters (fefet.* in obs::Metrics
//    and the flat LU's structure-cache diagnostics) over the untraced half
//    of the traced run, per op;
//  * unit costs: each layer's public call replayed on the workload's own
//    netlist at a mid-write state (deck emit/parse/freeze, Assembler
//    assemble and solveForUpdate, MosfetModel::evaluate, the LK static
//    field, the hierarchical engine's solve, a sweep-pool pass);
//  * self time per layer from obs::Trace span containment on each thread,
//    over the traced half.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Copy of the program's counters and histograms, by name.
struct Counters {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, fefet::obs::MetricsSnapshot::HistogramValue>
      histograms;

  static Counters now();
  /// This snapshot minus an earlier one.
  Counters since(const Counters& before) const;
  /// Accumulate a delta.
  void add(const Counters& delta);
  /// Counter value, 0 when absent.
  double counter(const std::string& name) const;
  /// Mean of a histogram's observations, 0 when empty or absent.
  double histogramMean(const std::string& name) const;
};

/// Structure-cache diagnostics of a simulator's flat sparse LU.
struct LuCounts {
  double full = 0.0;
  double numeric = 0.0;
  double pivotFallbacks = 0.0;
};
LuCounts luCounts(const fefet::spice::Simulator* simulator);

/// Unit costs from replaying each layer's public call.
struct Probes {
  double emitMs = 0.0;
  double parseMs = 0.0;
  double freezeMs = 0.0;
  double assembleUs = 0.0;
  double mosfetNs = 0.0;
  double lkNs = 0.0;
  double firstSolveUs = 0.0;
  double solveUs = 0.0;
  double schurColdUs1t = 0.0;  ///< first solve of a fresh engine, 1 thread
  double schurColdUsNt = 0.0;  ///< same, at min(4, nproc) threads
  double schurWarmUs = 0.0;    ///< repeat solve at 1 thread: every block skipped
  double queueWaitUs = 0.0;
};
Probes runProbes(Workload workload, Session& session);

/// Self time per span name, summed over threads: a span's duration minus
/// the part its direct children on the same thread cover.
void accumulateSelfTimes(const std::vector<fefet::obs::TraceEvent>& events,
                         std::map<std::string, double>& selfNs);

/// Everything the traced run collected.
struct TracedRun {
  Tally untraced;
  Tally traced;
  double untracedWall = 0.0;  ///< seconds in untraced steps
  double tracedWall = 0.0;    ///< seconds in traced steps
  Counters delta;             ///< program counters over untraced steps
  LuCounts lu;                ///< flat LU diagnostics over untraced steps
  std::map<std::string, double> selfNs;
  std::uint64_t dropped = 0;
  Probes probes;
};

std::vector<Metric> layerMetrics(const TracedRun& run);

}  // namespace perfbench
