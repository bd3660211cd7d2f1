// main.cc — the benchmark program.
//
//   perfbench --workload <cell_mc|array_flat|array_hier> --seed <n>
//             --seconds <s> --trace <0|1> --reference <file>
//             [--trace-out <file>] [--write-reference]
//   perfbench --workload <name> --print-env
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the workload twice in lock step, untraced and traced, and reports
// the per-layer metrics (see layers.h).  Both check the simulated outputs
// and print, as the last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics.  Exit codes: 0 all outputs
// correct, 1 a wrong output (the JSON is still printed), 2 bad usage,
// environment or build (nothing is reported).
//
// run.py builds this binary and runs it with a scrubbed environment.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench_stats.h"
#include "layers.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kBuildProblem = "a sanitizer build";
#elif !defined(__OPTIMIZE__)
constexpr const char* kBuildProblem = "an unoptimised build";
#else
constexpr const char* kBuildProblem = nullptr;
#endif

using Clock = std::chrono::steady_clock;

// Set-up is short, so one burst of timings catches one momentary host
// state.  It is repeated between the timed steps (kept out of the op
// timings and the window), up to this many samples, and the median
// reported.
constexpr std::size_t kMaxSetupSamples = 200;
// Per-thread trace ring: one traced step (an array op, or two cells per
// sweep worker) records well under this many spans.
constexpr std::size_t kTraceRing = 1 << 17;

struct Args {
  Workload workload = Workload::kCellMc;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string traceOut;
  bool writeReference = false;
  bool printEnv = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload <cell_mc|array_flat|array_hier> "
               "--seed <n> --seconds <s> --trace <0|1> --reference <file> "
               "[--trace-out <file>] [--write-reference]\n"
               "       perfbench --workload <name> --print-env\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference" || flag == "--print-env") {
      (flag == "--print-env" ? args.printEnv : args.writeReference) = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parseWorkload(value);
        if (!w) usage("unknown workload '" + value + "'");
        args.workload = *w;
        haveWorkload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0 && args.seconds <= 3600.0)) {
          usage("--seconds must be in (0, 3600]");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--reference") {
        args.reference = value;
      } else if (flag == "--trace-out") {
        args.traceOut = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (args.reference.empty() && !args.printEnv) {
    usage("--reference is required");
  }
  return args;
}

/// Every FEFET_* variable must be one the workload sets itself, with its
/// value: inherited toggles would silently change what is measured.
void checkEnvironment(Workload workload) {
  std::map<std::string, std::string> wanted;
  for (const auto& [k, v] : workloadEnvironment(workload)) wanted[k] = v;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("FEFET_", 0) != 0) continue;
    const std::string key = entry.substr(0, entry.find('='));
    const std::string value = entry.substr(key.size() + 1);
    const auto it = wanted.find(key);
    if (it == wanted.end() || it->second != value) {
      usage("inherited environment variable " + key +
            " would change the measurement; run through run.py, which "
            "scrubs FEFET_* variables");
    }
    wanted.erase(it);
  }
  if (!wanted.empty()) {
    usage("workload needs " + wanted.begin()->first + "=" +
          wanted.begin()->second + " in the environment (run.py sets it)");
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Run the golden scenario and fold its failures and reference mismatches
/// into `tally`.
void checkGolden(const Args& args, const Reference& reference, Tally& tally) {
  Tally golden;
  const Reference actual = runGolden(args.workload, golden);
  tally.attempted += golden.attempted;
  tally.failed += golden.failed;
  for (const auto& e : golden.errors) tally.errors.push_back("golden: " + e);
  for (const auto& m : reference.compare(actual)) {
    tally.fail("golden output differs from reference: " + m);
  }
}

void printResult(const Tally& tally, bool correct,
                 const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!validMetricName(m.name)) {
      std::cerr << "perfbench: invalid metric name " << m.name << "\n";
      std::exit(2);
    }
    std::cout << "metric " << m.name << " = " << formatNumber(m.value) << " "
              << m.unit << "\n";
    json << (i ? ", " : "") << "\"" << m.name
         << "\": {\"value\": " << formatNumber(m.value) << ", \"unit\": \""
         << m.unit << "\"}";
  }
  json << "}}";
  std::cout << "op_fail_ratio = "
            << formatNumber(tally.attempted
                                ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 0.0)
            << " (" << tally.failed << " of " << tally.attempted << " ops)\n";
  for (const auto& e : tally.errors) std::cout << "FAILED: " << e << "\n";
  std::cout << json.str() << std::endl;
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int runTimed(const Args& args, const Reference& reference) {
  std::vector<double> setup;
  const auto setUp = [&] {
    const auto t0 = Clock::now();
    auto session = makeSession(args.workload, args.seed);
    setup.push_back(secondsSince(t0));
    return session;
  };
  const auto session = setUp();

  Tally tally;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  double setupInWindow = 0.0;
  // At least three ops, so each op kind has a sample.
  do {
    session->step(tally);
    if (setup.size() < kMaxSetupSamples) {
      const auto t0 = Clock::now();
      setUp();
      setupInWindow += secondsSince(t0);
    }
  } while (Clock::now() < deadline || tally.ops.size() < 3);
  const double wall = secondsSince(start) - setupInWindow;
  session->finish(tally);
  checkGolden(args, reference, tally);

  std::map<OpKind, std::vector<double>> byKind;
  std::vector<double> all;
  double simNs = 0.0;
  for (const auto& op : tally.ops) {
    byKind[op.kind].push_back(op.hostMs);
    all.push_back(op.hostMs);
    simNs += op.simNs;
  }
  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setup)},
      {"sim_ns_per_s", "ns/s", simNs / wall},
      {"write_p50_ms", "ms", median(byKind[OpKind::kWrite])},
      {"read_p50_ms", "ms", median(byKind[OpKind::kRead])},
      {"hold_p50_ms", "ms", median(byKind[OpKind::kHold])},
      {"peak_rss_mb", "MB", peakRssMb()},
  };
  // The op tail is printed, not reported as a metric: the array runs have
  // too few ops to resolve p99, and cell_mc's p99 sits on the edge of a
  // slow mode of about 1 % of ops (marginal cells), so it jumps between
  // runs by far more than any usable bound.
  const double tail = tailPercentileRank(all.size());
  std::cout << "samples: setup " << setup.size() << ", write "
            << byKind[OpKind::kWrite].size() << ", read "
            << byKind[OpKind::kRead].size() << ", hold "
            << byKind[OpKind::kHold].size() << ", all ops " << all.size()
            << " in " << formatNumber(wall) << " s\n"
            << "tail: op p99 = " << formatNumber(percentile(all, 99.0))
            << " ms, " << (tail >= 99.0 ? "resolved" : "unresolved")
            << " (highest percentile with >= 10 samples beyond it: "
            << (tail > 0.0 ? "p" + formatNumber(tail) + " = " +
                                 formatNumber(percentile(all, tail)) + " ms"
                           : std::string("none"))
            << ")\n";
  if (args.workload == Workload::kCellMc) {
    std::cout << "cells: " << tally.cells << " simulated, "
              << tally.passedCells << " passed, " << tally.rejectedCells
              << " outside the nonvolatile regime\n";
  }
  const bool correct = tally.failed == 0;
  printResult(tally, correct, metrics);
  return correct ? 0 : 1;
}

int runTraced(const Args& args, const Reference& reference) {
  // Two instances in lock step: each unit of work runs untraced on one and
  // traced on the other, so both halves simulate identical work.
  const int cellChunk = 2 * cellThreads();
  auto untraced = makeSession(args.workload, args.seed, cellChunk);
  auto traced = makeSession(args.workload, args.seed, cellChunk);
  TracedRun run;
  const LuCounts luBefore = luCounts(untraced->simulator());
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  bool wroteTrace = false;
  do {
    const Counters before = Counters::now();
    auto t0 = Clock::now();
    untraced->step(run.untraced);
    run.untracedWall += secondsSince(t0);
    run.delta.add(Counters::now().since(before));

    fefet::obs::Trace::enable(kTraceRing);
    t0 = Clock::now();
    traced->step(run.traced);
    run.tracedWall += secondsSince(t0);
    fefet::obs::Trace::disable();
    run.dropped += fefet::obs::Trace::dropped();
    accumulateSelfTimes(fefet::obs::Trace::events(), run.selfNs);
    if (!wroteTrace && !args.traceOut.empty()) {
      wroteTrace = true;
      if (!fefet::obs::Trace::writeChromeJson(args.traceOut)) {
        std::cerr << "perfbench: cannot write " << args.traceOut << "\n";
      }
    }
  } while (Clock::now() < deadline || run.untraced.ops.size() < 3);
  fefet::obs::Trace::clear();
  const LuCounts luAfter = luCounts(untraced->simulator());
  run.lu = {luAfter.full - luBefore.full, luAfter.numeric - luBefore.numeric,
            luAfter.pivotFallbacks - luBefore.pivotFallbacks};
  untraced->finish(run.untraced);
  traced->finish(run.traced);
  run.probes = runProbes(args.workload, *untraced);
  untraced.reset();
  traced.reset();

  Tally tally = run.untraced;
  tally.merge(run.traced);
  checkGolden(args, reference, tally);
  if (run.dropped > 0) {
    tally.fail("trace rings overflowed: " + std::to_string(run.dropped) +
               " spans dropped");
  }
  std::cout << "traced: " << run.untraced.ops.size()
            << " ops untraced in " << formatNumber(run.untracedWall)
            << " s, the same ops traced in " << formatNumber(run.tracedWall)
            << " s\n";
  const bool correct = tally.failed == 0;
  printResult(tally, correct, layerMetrics(run));
  return correct ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (args.printEnv) {
    for (const auto& [key, value] : workloadEnvironment(args.workload)) {
      std::cout << key << "=" << value << "\n";
    }
    return 0;
  }
  if (kBuildProblem != nullptr) {
    std::cerr << "perfbench: refusing to report from " << kBuildProblem
              << "\n";
    return 2;
  }
  checkEnvironment(args.workload);
  std::cout << "perfbench workload=" << toString(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << args.trace << " nproc=" << cellThreads()
            << " pool_threads=" << fefet::sim::defaultThreadCount()
            << " compiler=\"" << __VERSION__ << "\" build=" << PERFBENCH_BUILD_TYPE
            << "\n";

  if (args.writeReference) {
    Tally golden;
    const Reference actual = runGolden(args.workload, golden);
    if (golden.failed > 0) {
      for (const auto& e : golden.errors) std::cerr << "FAILED: " << e << "\n";
      return 1;
    }
    std::ofstream out(args.reference);
    out << actual.serialize();
    return out ? 0 : 2;
  }

  std::ifstream in(args.reference);
  if (!in) usage("cannot read reference " + args.reference);
  std::stringstream text;
  text << in.rdbuf();
  Reference reference;
  try {
    reference = Reference::parse(text.str());
  } catch (const std::exception& e) {
    usage(std::string("bad reference: ") + e.what());
  }
  return args.trace ? runTraced(args, reference) : runTimed(args, reference);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
