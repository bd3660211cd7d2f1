#include "layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "bench_stats.h"
#include "core/array_netlist.h"
#include "ferro/lk_model.h"
#include "sim/sweep_engine.h"
#include "sim/thread_pool.h"
#include "spice/assembler.h"
#include "spice/deck_parser.h"
#include "spice/newton.h"
#include "xtor/mosfet_model.h"

// The hierarchical engine is one of the solver paths the project may
// retire; without it the Schur probes read 0 and the benchmark still
// builds.
#if __has_include("spice/hier_engine.h")
#include "spice/hier_engine.h"
#define PERFBENCH_HAVE_HIER_ENGINE 1
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over `reps` single timed calls of `fn`, in seconds.
template <typename Fn>
double medianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(secondsSince(t0));
  }
  return median(samples);
}

/// Seconds per call of a cheap `fn`: median over five batches, each long
/// enough (>= 20 ms) to swamp the clock reads.
template <typename Fn>
double secondsPerCall(Fn&& fn) {
  long calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long i = 0; i < calls; ++i) fn();
    if (secondsSince(t0) >= 0.02 || calls >= (1L << 26)) break;
    calls *= 4;
  }
  return medianSeconds(5, [&] {
           for (long i = 0; i < calls; ++i) fn();
         }) /
         static_cast<double>(calls);
}

volatile double g_sink = 0.0;

/// Deck emit, parse and freeze of the workload's array; for cell_mc the
/// one-cell deck of its nominal cell.
void probeSetup(Workload workload, Probes& out) {
  core::ArrayNetlistConfig config = arrayConfig(workload);
  if (workload == Workload::kCellMc) {
    const core::Cell2TConfig cell = nominalCell();
    config.rows = config.cols = 1;
    config.fefet = cell.fefet;
    config.accessMos = cell.accessMos;
    config.accessWidth = cell.accessWidth;
  }
  constexpr int kReps = 5;
  std::string deck;
  out.emitMs = 1e3 * medianSeconds(kReps, [&] {
                 deck = core::emitArrayDeck(config);
               });
  std::vector<double> parse, freeze;
  for (int i = 0; i < kReps; ++i) {
    spice::Netlist netlist;
    auto t0 = Clock::now();
    spice::parseDeckString(deck, netlist);
    parse.push_back(secondsSince(t0));
    for (int c = 0; c < config.cols; ++c) {
      netlist.markBorderNode("wbl" + std::to_string(c));
      netlist.markBorderNode("sl" + std::to_string(c));
    }
    t0 = Clock::now();
    netlist.freeze();
    freeze.push_back(secondsSince(t0));
  }
  out.parseMs = 1e3 * median(parse);
  out.freezeMs = 1e3 * median(freeze);
}

/// The Jacobian of the probe state's netlist, assembled at that state.
struct Assembled {
  spice::Assembler assembler;
  explicit Assembled(const ProbeState& state)
      : assembler(state.simulator->netlist().stampPattern(),
                  state.simulator->netlist().unknownCount() >
                      spice::kDenseToSparseCrossover) {
    assemble(state);
  }
  void assemble(const ProbeState& state) {
    const spice::Netlist& netlist = state.simulator->netlist();
    const spice::SystemView view(state.simulator->solution(),
                                 netlist.nodeCount());
    assembler.assemble(netlist, view, /*dc=*/false, state.time, state.dt,
                       spice::IntegrationMethod::kTrapezoidal,
                       spice::NewtonOptions{}.gmin,
                       spice::NewtonOptions{}.useBatchedKernels);
  }
};

/// Assembly and the flat linear solve through Assembler::solveForUpdate
/// (the facade that survives a change of LU).
void probeAssembleAndSolve(const ProbeState& state, Probes& out) {
  Assembled first(state);
  out.assembleUs = 1e6 * secondsPerCall([&] { first.assemble(state); });

  std::vector<double> dx;
  std::vector<double> firstSolve;
  for (int i = 0; i < 3; ++i) {
    Assembled fresh(state);
    const auto t0 = Clock::now();
    fresh.assembler.solveForUpdate(dx, /*reuseLuStructure=*/true);
    firstSolve.push_back(secondsSince(t0));
  }
  out.firstSolveUs = 1e6 * median(firstSolve);
  first.assembler.solveForUpdate(dx, true);
  out.solveUs =
      1e6 * secondsPerCall([&] { first.assembler.solveForUpdate(dx, true); });
}

void probeDevices(const core::FefetParams& fefet, Probes& out) {
  const fefet::xtor::MosfetModel mos(fefet.mos, fefet.width);
  std::vector<std::array<double, 3>> bias;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      bias.push_back({0.68 * i / 7.0, -0.3 + 1.3 * j / 7.0, 0.0});
    }
  }
  std::size_t k = 0;
  out.mosfetNs = 1e9 * secondsPerCall([&] {
                   const auto& b = bias[k++ % bias.size()];
                   g_sink = g_sink + mos.evaluate(b[0], b[1], b[2]).ids;
                 });
  const fefet::ferro::LandauKhalatnikov lk(fefet.lk);
  std::size_t m = 0;
  out.lkNs = 1e9 * secondsPerCall([&] {
               const double p = -0.3 + 0.6 * static_cast<double>(m++ % 64) / 63.0;
               g_sink = g_sink + lk.staticField(p) + lk.staticFieldSlope(p);
             });
}

/// The hierarchical engine's solve on a BBD-partitioned netlist: the
/// first solve of a fresh engine factors every block and the border
/// (cold); repeating it with unchanged values skips every block (warm).
void probeSchur(const ProbeState& state, int threads, Probes& out) {
#ifdef PERFBENCH_HAVE_HIER_ENGINE
  const spice::Netlist& netlist = state.simulator->netlist();
  const spice::BbdPartition* partition = netlist.partition();
  if (partition == nullptr || !partition->useful()) return;
  const Assembled assembled(state);
  const auto& a = assembled.assembler;
  std::vector<double> dx;
  std::vector<double> cold1, coldN, warm;
  for (int i = 0; i < 3; ++i) {
    for (int t : {1, threads}) {
      spice::HierEngine engine(netlist.stampPattern(), *partition,
                               fefet::linalg::SchurOptions{}, t);
      auto t0 = Clock::now();
      engine.solveForUpdate(a.csr(), a.residual(), dx);
      (t == 1 ? cold1 : coldN).push_back(secondsSince(t0));
      if (t == 1) {
        t0 = Clock::now();
        engine.solveForUpdate(a.csr(), a.residual(), dx);
        warm.push_back(secondsSince(t0));
      }
    }
  }
  if (coldN.empty()) coldN = cold1;  // a one-CPU host
  out.schurColdUs1t = 1e6 * median(cold1);
  out.schurColdUsNt = 1e6 * median(coldN);
  out.schurWarmUs = 1e6 * median(warm);
#else
  (void)state;
  (void)threads;
  (void)out;
#endif
}

/// p50 queue wait of the sweep pool over sixteen passes of one empty
/// point per worker.
void probeSweepPool(Probes& out) {
  const Counters before = Counters::now();
  fefet::sim::SweepOptions options;
  options.threads = cellThreads();
  for (int i = 0; i < 16; ++i) {
    fefet::sim::SweepEngine engine(options);
    engine.run(std::vector<int>(static_cast<std::size_t>(options.threads), 0),
               [](int, const fefet::sim::SweepContext&) { return 0; });
  }
  const Counters delta = Counters::now().since(before);
  const auto it = delta.histograms.find("fefet.sweep.queue_wait_s");
  if (it != delta.histograms.end()) {
    out.queueWaitUs =
        1e6 * histogramQuantile(it->second.edges, it->second.buckets, 0.5);
  }
}

template <typename S>
LuCounts luCountsOf(const S* simulator) {
  LuCounts out;
  // Guarded so a change of the LU's diagnostics API reads 0 instead of
  // breaking the build.
  if constexpr (requires(const S& s) {
                  s.newton().sparseFactorizer().fullFactorizations();
                  s.newton().sparseFactorizer().numericRefactorizations();
                  s.newton().sparseFactorizer().pivotFallbacks();
                }) {
    if (simulator != nullptr) {
      const auto& lu = simulator->newton().sparseFactorizer();
      out.full = static_cast<double>(lu.fullFactorizations());
      out.numeric = static_cast<double>(lu.numericRefactorizations());
      out.pivotFallbacks = static_cast<double>(lu.pivotFallbacks());
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Counters Counters::now() {
  const auto snap = fefet::obs::Metrics::snapshot();
  Counters out;
  for (const auto& c : snap.counters) out.counters[c.name] = c.value;
  for (const auto& h : snap.histograms) out.histograms[h.name] = h;
  return out;
}

Counters Counters::since(const Counters& before) const {
  Counters out = *this;
  for (auto& [name, value] : out.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= it->second;
  }
  for (auto& [name, h] : out.histograms) {
    const auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    const auto& b = it->second;
    for (std::size_t i = 0; i < h.buckets.size() && i < b.buckets.size(); ++i) {
      h.buckets[i] -= b.buckets[i];
    }
    h.count -= b.count;
    h.sum -= b.sum;
  }
  return out;
}

void Counters::add(const Counters& delta) {
  for (const auto& [name, value] : delta.counters) counters[name] += value;
  for (const auto& [name, h] : delta.histograms) {
    auto [it, inserted] = histograms.try_emplace(name, h);
    if (inserted) continue;
    auto& mine = it->second;
    for (std::size_t i = 0; i < mine.buckets.size() && i < h.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

double Counters::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Counters::histogramMean(const std::string& name) const {
  const auto it = histograms.find(name);
  if (it == histograms.end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

LuCounts luCounts(const spice::Simulator* simulator) {
  return luCountsOf(simulator);
}

Probes runProbes(Workload workload, Session& session) {
  Probes out;
  probeSetup(workload, out);
  const ProbeState state = session.probeState();
  probeAssembleAndSolve(state, out);
  probeDevices(state.fefet, out);
  // Fan-out is measured at the sweep width, min(4, nproc), whatever
  // thread count the workload itself runs the engine at.
  const int schurThreads = cellThreads();
  if (workload == Workload::kCellMc) {
    // One cell has no bordered-block-diagonal structure; the smallest
    // array of the nominal cell (2x2, two blocks) gives the layer's fixed
    // cost instead.
    core::ArrayNetlistConfig config;
    config.rows = config.cols = 2;
    config.fefet = nominalCell().fefet;
    core::ArrayNetlist array(config);
    probeSchur({&array.simulator(), config.fefet, state.time, state.dt},
               schurThreads, out);
  } else {
    probeSchur(state, schurThreads, out);
  }
  probeSweepPool(out);
  return out;
}

void accumulateSelfTimes(const std::vector<fefet::obs::TraceEvent>& events,
                         std::map<std::string, double>& selfNs) {
  std::map<int, std::vector<const fefet::obs::TraceEvent*>> byThread;
  for (const auto& e : events) byThread[e.thread].push_back(&e);
  for (auto& [thread, list] : byThread) {
    // Parents first: earlier start, and on a tie the longer span.
    std::stable_sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->startNs != b->startNs ? a->startNs < b->startNs
                                      : a->durNs > b->durNs;
    });
    struct Open {
      const fefet::obs::TraceEvent* event;
      double childNs;
    };
    std::vector<Open> stack;
    const auto close = [&] {
      const Open& top = stack.back();
      selfNs[top.event->name] += static_cast<double>(top.event->durNs) - top.childNs;
      stack.pop_back();
    };
    for (const auto* e : list) {
      while (!stack.empty() &&
             stack.back().event->startNs + stack.back().event->durNs <= e->startNs) {
        close();
      }
      if (!stack.empty()) stack.back().childNs += static_cast<double>(e->durNs);
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) close();
  }
}

std::vector<Metric> layerMetrics(const TracedRun& run) {
  const Counters& d = run.delta;
  const Probes& p = run.probes;
  const double ops = static_cast<double>(std::max<std::size_t>(run.untraced.ops.size(), 1));
  const double steps = d.counter("fefet.transient.steps");
  const double rejected = d.counter("fefet.transient.rejected_steps");
  const double iterations = d.counter("fefet.transient.newton_iterations");
  const double assemblies = d.counter("fefet.assembler.assemblies");
  const double blockFactors = d.counter("fefet.hier.block_factorizations");
  const double blockSkips = d.counter("fefet.hier.block_factor_skips");
  const double hierSolves = d.counter("fefet.hier.solves");

  // Attribution: counted calls times their replayed unit cost, against the
  // untraced ops' wall time.  A hierarchical solve costs between a warm
  // (all blocks skipped) and a cold (all refactored) solve, in proportion
  // to the blocks it refactored.
  double solveUnitUs = p.solveUs;
  if (hierSolves > 0.0) {
    const double refactored = ratio(blockFactors, blockFactors + blockSkips);
    const double coldUs = fefet::sim::defaultThreadCount() > 1
                              ? p.schurColdUsNt
                              : p.schurColdUs1t;
    solveUnitUs = p.schurWarmUs + (coldUs - p.schurWarmUs) * refactored;
  }
  double opWallUs = 0.0;
  for (const auto& op : run.untraced.ops) opWallUs += op.hostMs * 1e3;
  const double attributedUs = assemblies * p.assembleUs + iterations * solveUnitUs;

  double selfTotal = 0.0;
  for (const auto& [name, ns] : run.selfNs) selfTotal += ns;
  const auto share = [&](const char* span) {
    const auto it = run.selfNs.find(span);
    return it == run.selfNs.end() ? 0.0 : ratio(it->second, selfTotal);
  };

  return {
      {"core.array_netlist.emit_ms", "ms", p.emitMs},
      {"spice.deck_parser.parse_ms", "ms", p.parseMs},
      {"spice.netlist.freeze_ms", "ms", p.freezeMs},
      {"spice.simulator.steps", "1/op", steps / ops},
      {"spice.simulator.rejected_steps", "1/op", rejected / ops},
      {"spice.simulator.dt_cuts", "1/op", d.counter("fefet.transient.dt_cuts") / ops},
      {"spice.simulator.step_accept_ratio", "1", ratio(steps, steps + rejected)},
      {"spice.newton.iterations", "1/op", iterations / ops},
      {"spice.newton.iters_per_step", "1", ratio(iterations, steps + rejected)},
      {"spice.newton.gmin_rescued", "1/op",
       d.counter("fefet.newton.outcome.gmin_rescued") / ops},
      {"spice.newton.stagnated", "1/op", d.counter("fefet.newton.outcome.stagnated") / ops},
      {"spice.assembler.assemble_us", "us", p.assembleUs},
      {"spice.assembler.assemblies", "1/op", assemblies / ops},
      {"xtor.mosfet.evaluate_ns", "ns", p.mosfetNs},
      {"ferro.lk.field_ns", "ns", p.lkNs},
      {"common.linalg.first_solve_us", "us", p.firstSolveUs},
      {"common.linalg.solve_us", "us", p.solveUs},
      {"common.linalg.full_factorizations", "1/op", run.lu.full / ops},
      {"common.linalg.numeric_refactorizations", "1/op", run.lu.numeric / ops},
      {"common.linalg.pivot_fallbacks", "1/op", run.lu.pivotFallbacks / ops},
      {"common.linalg.lu_reuse_ratio", "1", ratio(run.lu.numeric, run.lu.full + run.lu.numeric)},
      {"common.schur.solve_us_1t", "us", p.schurColdUs1t},
      {"common.schur.solve_us_nt", "us", p.schurColdUsNt},
      {"common.schur.fanout_gain", "1", ratio(p.schurColdUs1t, p.schurColdUsNt)},
      {"common.schur.block_factorizations", "1/op", blockFactors / ops},
      {"common.schur.block_skips", "1/op", blockSkips / ops},
      {"common.schur.collapsed_ratio", "1", d.histogramMean("fefet.hier.collapsed_ratio")},
      {"common.schur.schur_refactors", "1/op", d.counter("fefet.hier.schur_refactors") / ops},
      {"common.schur.schur_reuses", "1/op", d.counter("fefet.hier.schur_reuses") / ops},
      {"sim.sweep_engine.busy_ratio", "1",
       ratio(run.untraced.sweepPointSeconds, run.untraced.sweepCapacitySeconds)},
      {"sim.sweep_engine.queue_wait_p50_us", "us", p.queueWaitUs},
      {"obs.trace.overhead_ratio", "1", ratio(run.tracedWall, run.untracedWall)},
      {"obs.trace.dropped", "count", static_cast<double>(run.dropped)},
      {"core.op.attributed_ratio", "1", ratio(attributedUs, opWallUs)},
      {"core.op.self_share", "1", share("bench.op")},
      {"spice.simulator.self_share", "1", share("transient")},
      {"spice.newton.self_share", "1", share("newton.solve")},
      {"spice.assembler.self_share", "1", share("newton.assemble")},
      {"common.linalg.self_share", "1", share("newton.lu_solve")},
      {"sim.sweep_engine.self_share", "1", share("sweep.point")},
  };
}

}  // namespace perfbench
