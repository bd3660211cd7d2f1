#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_stats.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/variability.h"
#include "obs/trace.h"
#include "sim/sweep_engine.h"

namespace perfbench {

namespace {

// cell_mc operating point: the paper's 0.68 V writes at 550 ps.
constexpr double kCellWriteVolts = 0.68;
constexpr double kCellWritePulse = 550e-12;
constexpr double kCellHoldSeconds = 1e-9;
constexpr double kArrayHoldSeconds = 2e-9;
// Read current above this classifies as a stored 1 (the array's default
// sense level).
constexpr double kReadThresholdAmps = 1e-6;
// Golden scenarios are seeded independently of the run's --seed so one
// committed reference checks every run.
constexpr std::uint64_t kGoldenSeed = 20160605;
constexpr int kGoldenCells = 48;
constexpr std::size_t kMaxErrors = 8;

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double simulatedNs(const spice::Waveform& waveform) {
  const auto t = waveform.time();
  return t.empty() ? 0.0 : t.back() * 1e9;
}

// ---------------------------------------------------------------- cells --

struct CellResult {
  std::vector<OpSample> ops;
  long attempted = 0;
  long failed = 0;
  std::string error;
  bool rejected = false;
  bool pass = false;
  double finalP = 0.0;
};

/// One Monte Carlo sample: perturb the nominal cell, then write 1, hold,
/// read, write 0, hold, read.  A cell outside the nonvolatile regime is a
/// simulated outcome (rejected), a solver error is a failed op.
CellResult runCell(const core::Cell2TConfig& nominal, std::uint64_t seed) {
  CellResult out;
  const core::VariationSpec spec;
  fefet::stats::Rng rng(seed);
  core::Cell2TConfig cfg = nominal;
  cfg.fefet = core::perturbDevice(nominal.fefet, spec, rng);
  cfg.accessMos.vt0 = nominal.accessMos.vt0 + rng.normal(0.0, spec.vtSigma);
  std::unique_ptr<core::Cell2T> cell;
  try {
    cell = std::make_unique<core::Cell2T>(cfg);
  } catch (const fefet::InvalidArgumentError&) {
    out.rejected = true;
    return out;
  }
  cell->setStoredBit(false);

  const auto timed = [&](OpKind kind, auto&& op) {
    ++out.attempted;
    const auto t0 = std::chrono::steady_clock::now();
    core::CellOpResult result = [&] {
      const fefet::obs::Span span("bench.op");
      return op();
    }();
    const double ms = seconds(std::chrono::steady_clock::now() - t0) * 1e3;
    out.ops.push_back({kind, ms, simulatedNs(result.waveform)});
    return result;
  };
  const auto write = [&](bool one) {
    return timed(OpKind::kWrite, [&] {
      return cell->write(one, kCellWritePulse, kCellWriteVolts);
    });
  };
  const auto hold = [&] {
    timed(OpKind::kHold, [&] { return cell->hold(kCellHoldSeconds); });
  };
  const auto readsOne = [&] {
    return timed(OpKind::kRead, [&] { return cell->read(); }).readCurrent >
           kReadThresholdAmps;
  };
  try {
    bool pass = write(true).bitAfter;
    hold();
    pass = readsOne() && pass;
    pass = !write(false).bitAfter && pass;
    hold();
    pass = !readsOne() && pass;
    out.pass = pass;
    out.finalP = cell->polarization();
  } catch (const fefet::NumericalError& e) {
    ++out.failed;
    out.error = e.what();
  }
  return out;
}

/// Cells [first, first + count) of the seeded population, one sweep point
/// each, results in index order.
std::vector<CellResult> runCells(const core::Cell2TConfig& nominal,
                                 std::uint64_t seed, long first, int count,
                                 int threads, Tally& tally) {
  std::vector<long> points(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) points[static_cast<std::size_t>(i)] = first + i;
  fefet::sim::SweepOptions options;
  options.threads = threads;
  options.baseSeed = seed;
  options.failurePolicy = fefet::sim::SweepFailurePolicy::kCollectAndContinue;
  fefet::sim::SweepEngine engine(options);
  const auto t0 = std::chrono::steady_clock::now();
  auto results = engine.run(points, [&](long index, const fefet::sim::SweepContext&) {
    return runCell(nominal, fefet::sim::SweepEngine::pointSeed(
                                seed, static_cast<std::size_t>(index)));
  });
  const double wall = seconds(std::chrono::steady_clock::now() - t0);
  tally.sweepCapacitySeconds += wall * engine.threadCount();
  for (const auto& outcome : engine.outcomes()) {
    tally.sweepPointSeconds += outcome.seconds;
    if (outcome.status != fefet::sim::SweepPointStatus::kOk) {
      tally.fail("sweep point did not complete: " + outcome.message);
    }
  }
  for (const auto& r : results) {
    tally.ops.insert(tally.ops.end(), r.ops.begin(), r.ops.end());
    tally.attempted += r.attempted;
    tally.failed += r.failed;
    if (!r.error.empty() && tally.errors.size() < kMaxErrors) {
      tally.errors.push_back("cell op: " + r.error);
    }
    ++tally.cells;
    if (r.rejected) ++tally.rejectedCells;
    if (r.pass) ++tally.passedCells;
  }
  return results;
}

class CellSession : public Session {
 public:
  CellSession(std::uint64_t seed, int chunk)
      : seed_(seed),
        threads_(cellThreads()),
        chunk_(chunk > 0 ? chunk : 16 * threads_),
        nominal_(nominalCell()),
        nominalCell_(std::make_unique<core::Cell2T>(nominal_)) {
    // Sweep-engine start: one pass over an empty point per worker.
    fefet::sim::SweepOptions options;
    options.threads = threads_;
    fefet::sim::SweepEngine engine(options);
    engine.run(std::vector<int>(static_cast<std::size_t>(threads_), 0),
               [](int, const fefet::sim::SweepContext&) { return 0; });
  }

  void step(Tally& tally) override {
    runCells(nominal_, seed_, next_, chunk_, threads_, tally);
    next_ += chunk_;
  }

  void finish(Tally&) override {}

  ProbeState probeState() override {
    core::Cell2T& cell = *nominalCell_;
    cell.write(true, kCellWritePulse, kCellWriteVolts);
    // Re-apply the first half of the same write: the state sits mid-pulse
    // with the write biases on.
    const double edge = nominal_.edgeTime;
    spice::TransientOptions options;
    options.duration = 3.0 * edge + 0.5 * kCellWritePulse;
    options.dtMax = options.duration / 200.0;
    cell.simulator().runTransient(options, {});
    return {&cell.simulator(), cell.config().fefet, options.duration,
            options.dtMax};
  }

 private:
  std::uint64_t seed_;
  int threads_;
  int chunk_;
  long next_ = 0;
  core::Cell2TConfig nominal_;
  std::unique_ptr<core::Cell2T> nominalCell_;
};

// --------------------------------------------------------------- arrays --

/// Op-kind template of an array workload.  array_flat is write-heavy
/// (4 W : 3 R : 3 H); array_hier is read- and hold-heavy (2 : 4 : 4), where
/// hold-bias collapse pays.  Both open with one op of each kind, and every
/// hold follows a read: what a hold costs depends on the op before it (on
/// array_hier a hold after a write took about 1.7x a hold after a read),
/// so a mixed history would spread the hold latency by seed.  Holds are
/// the fewest ops of a run, so each template has at least three in ten.
const char* arrayKinds(Workload workload) {
  return workload == Workload::kArrayFlat ? "WRHWRHWWRH" : "WRHRHWRHRH";
}

class ArraySession : public Session {
 public:
  ArraySession(Workload workload, std::uint64_t seed)
      : config_(arrayConfig(workload)),
        array_(std::make_unique<core::ArrayNetlist>(config_)),
        expected_(initialPattern(seed, config_.rows, config_.cols)),
        stream_(seed, config_.rows, config_.cols, arrayKinds(workload)) {
    array_->setPattern(expected_);
  }

  void step(Tally& tally) override { run(stream_.next(), tally); }

  /// Run one op, time it and check its outputs against the bits written.
  core::ArrayNetOpResult run(const ArrayOp& op, Tally& tally) {
    ++tally.attempted;
    core::ArrayNetOpResult result;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      const fefet::obs::Span span("bench.op");
      switch (op.kind) {
        case OpKind::kWrite:
          result = array_->writeBit(op.row, op.col, op.value);
          break;
        case OpKind::kRead:
          result = array_->readBit(op.row, op.col);
          break;
        case OpKind::kHold:
          result = array_->hold(kArrayHoldSeconds);
          break;
      }
    } catch (const fefet::NumericalError& e) {
      tally.fail(std::string(toString(op.kind)) + " failed: " + e.what());
      resync();
      return result;
    }
    const double ms = seconds(std::chrono::steady_clock::now() - t0) * 1e3;
    tally.ops.push_back({op.kind, ms, simulatedNs(result.waveform)});
    const std::string cell =
        " (" + std::to_string(op.row) + "," + std::to_string(op.col) + ")";
    // A std::vector<bool> proxy: assigning to it updates expected_.
    auto want = expected_[static_cast<std::size_t>(op.row)]
                          [static_cast<std::size_t>(op.col)];
    if (op.kind == OpKind::kWrite) {
      if (!result.ok) tally.fail("write did not take" + cell);
      want = op.value;
    } else if (op.kind == OpKind::kRead &&
               (!result.ok || result.bitRead != want)) {
      tally.fail("read back " + std::to_string(result.bitRead) +
                 ", expected " + std::to_string(want) + cell);
    }
    if (!result.ok) resync();
    return result;
  }

  void finish(Tally& tally) override {
    for (int r = 0; r < config_.rows; ++r) {
      for (int c = 0; c < config_.cols; ++c) {
        if (array_->bitAt(r, c) !=
            expected_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]) {
          tally.fail("cell (" + std::to_string(r) + "," + std::to_string(c) +
                     ") lost its bit");
        }
      }
    }
  }

  ProbeState probeState() override {
    array_->writeBit(0, 0, true);
    // Re-apply the first half of the same write (see CellSession).
    spice::TransientOptions options;
    options.duration = 3.0 * config_.edgeTime + 0.5 * config_.writePulse;
    options.dtMax = options.duration / 150.0;
    array_->simulator().runTransient(options, {});
    return {&array_->simulator(), config_.fefet, options.duration,
            options.dtMax};
  }

  const spice::Simulator* simulator() const override {
    return &array_->simulator();
  }

  core::ArrayNetlist& array() { return *array_; }
  bool expectedAt(int r, int c) const {
    return expected_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  }

 private:
  /// After a failed op the expected contents follow the simulated state,
  /// so one failure is counted once.
  void resync() {
    for (int r = 0; r < config_.rows; ++r) {
      for (int c = 0; c < config_.cols; ++c) {
        expected_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            array_->bitAt(r, c);
      }
    }
  }

  core::ArrayNetlistConfig config_;
  std::unique_ptr<core::ArrayNetlist> array_;
  std::vector<std::vector<bool>> expected_;
  ArrayOpStream stream_;
};

Reference goldenArray(Workload workload, Tally& tally) {
  ArraySession session(workload, kGoldenSeed);
  core::ArrayNetlist& array = session.array();
  Reference out;
  out.window = array.pOn() - array.pOff();
  // A stored 0 to read back: the first one in row-major order.
  int zr = 0, zc = 1;
  for (int i = 1; i < array.rows() * array.cols(); ++i) {
    if (!session.expectedAt(i / array.cols(), i % array.cols())) {
      zr = i / array.cols();
      zc = i % array.cols();
      break;
    }
  }
  session.run({OpKind::kWrite, 0, 0, true}, tally);
  const auto one = session.run({OpKind::kRead, 0, 0, false}, tally);
  const auto zero = session.run({OpKind::kRead, zr, zc, false}, tally);
  using Kind = Reference::Kind;
  out.add(Kind::kExact, "read_one.bit", one.bitRead);
  out.add(Kind::kCurrent, "read_one.current", one.readCurrent);
  out.add(Kind::kExact, "read_zero.bit", zero.bitRead);
  out.add(Kind::kCurrent, "read_zero.current", zero.readCurrent);
  const auto p = array.polarizations();
  for (int r = 0; r < array.rows(); ++r) {
    for (int c = 0; c < array.cols(); ++c) {
      out.add(Kind::kPolarization,
              "p." + std::to_string(r) + "." + std::to_string(c),
              p[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

Reference goldenCells(Tally& tally) {
  const core::Cell2TConfig nominal = nominalCell();
  const core::Cell2T cell(nominal);
  Reference out;
  out.window = cell.onPolarization() - cell.offPolarization();
  const auto results =
      runCells(nominal, kGoldenSeed, 0, kGoldenCells, cellThreads(), tally);
  using Kind = Reference::Kind;
  out.add(Kind::kExact, "passes", static_cast<double>(tally.passedCells));
  out.add(Kind::kExact, "rejected", static_cast<double>(tally.rejectedCells));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string name = "cell." + std::to_string(i);
    if (results[i].rejected) {
      out.add(Kind::kExact, name + ".rejected", 1.0);
    } else {
      out.add(Kind::kExact, name + ".pass", results[i].pass);
      out.add(Kind::kPolarization, name + ".p", results[i].finalP);
    }
  }
  return out;
}

}  // namespace

void Tally::fail(const std::string& message) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(message);
}

void Tally::merge(const Tally& other) {
  ops.insert(ops.end(), other.ops.begin(), other.ops.end());
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(e);
  }
  cells += other.cells;
  rejectedCells += other.rejectedCells;
  passedCells += other.passedCells;
  sweepPointSeconds += other.sweepPointSeconds;
  sweepCapacitySeconds += other.sweepCapacitySeconds;
}

std::optional<Workload> parseWorkload(const std::string& name) {
  if (name == "cell_mc") return Workload::kCellMc;
  if (name == "array_flat") return Workload::kArrayFlat;
  if (name == "array_hier") return Workload::kArrayHier;
  return std::nullopt;
}

const char* toString(Workload workload) {
  switch (workload) {
    case Workload::kCellMc:
      return "cell_mc";
    case Workload::kArrayFlat:
      return "array_flat";
    case Workload::kArrayHier:
      return "array_hier";
  }
  return "?";
}

std::vector<std::pair<std::string, std::string>> workloadEnvironment(
    Workload workload) {
  // The solver is chosen the way a user chooses it today, so changes to
  // the engines' defaults or options need no edit here.
  if (workload == Workload::kArrayHier) {
    return {{"FEFET_HIERARCHICAL_SOLVE", "1"}, {"FEFET_THREADS", "1"}};
  }
  return {};
}

int cellThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

core::ArrayNetlistConfig arrayConfig(Workload workload) {
  core::ArrayNetlistConfig config;
  config.rows = config.cols = workload == Workload::kArrayHier ? 32 : 16;
  return config;
}

core::Cell2TConfig nominalCell() { return core::Cell2TConfig{}; }

Tally runCellBatch(std::uint64_t seed, long first, int count, int threads) {
  Tally tally;
  runCells(nominalCell(), seed, first, count, threads, tally);
  return tally;
}

std::unique_ptr<Session> makeSession(Workload workload, std::uint64_t seed,
                                     int cellChunk) {
  if (workload == Workload::kCellMc) {
    return std::make_unique<CellSession>(seed, cellChunk);
  }
  return std::make_unique<ArraySession>(workload, seed);
}

Reference runGolden(Workload workload, Tally& tally) {
  return workload == Workload::kCellMc ? goldenCells(tally)
                                       : goldenArray(workload, tally);
}

// ------------------------------------------------------------ reference --

namespace {

const char* kindName(Reference::Kind kind) {
  switch (kind) {
    case Reference::Kind::kExact:
      return "exact";
    case Reference::Kind::kPolarization:
      return "p";
    case Reference::Kind::kCurrent:
      return "i";
  }
  return "?";
}

}  // namespace

std::string Reference::serialize() const {
  std::ostringstream os;
  os << "# perfbench golden outputs: <kind> <name> <value>\n"
     << "# exact = bit or count, p = polarization [C/m^2] compared at 1e-3 "
        "of the window, i = read current [A] compared at 0.5 %\n"
     << "window " << formatNumber(window) << "\n";
  for (const auto& e : entries) {
    os << kindName(e.kind) << " " << e.name << " " << formatNumber(e.value)
       << "\n";
  }
  return os.str();
}

Reference Reference::parse(const std::string& text) {
  Reference ref;
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind, name;
    double value = 0.0;
    if (!(fields >> kind)) continue;
    if (kind == "window") {
      if (!(fields >> ref.window)) {
        throw std::runtime_error("reference line " + std::to_string(lineNo) +
                                 ": bad window");
      }
      continue;
    }
    if (!(fields >> name >> value)) {
      throw std::runtime_error("reference line " + std::to_string(lineNo) +
                               ": expected <kind> <name> <value>");
    }
    Kind k;
    if (kind == "exact") {
      k = Kind::kExact;
    } else if (kind == "p") {
      k = Kind::kPolarization;
    } else if (kind == "i") {
      k = Kind::kCurrent;
    } else {
      throw std::runtime_error("reference line " + std::to_string(lineNo) +
                               ": unknown kind '" + kind + "'");
    }
    ref.add(k, name, value);
  }
  if (!(ref.window > 0.0) || ref.entries.empty()) {
    throw std::runtime_error("reference has no window or no entries");
  }
  return ref;
}

std::vector<std::string> Reference::compare(const Reference& actual) const {
  std::vector<std::string> mismatches;
  if (actual.entries.size() != entries.size()) {
    mismatches.push_back("reference has " + std::to_string(entries.size()) +
                         " outputs, run produced " +
                         std::to_string(actual.entries.size()));
  }
  for (std::size_t i = 0; i < std::min(entries.size(), actual.entries.size());
       ++i) {
    const Entry& want = entries[i];
    const Entry& got = actual.entries[i];
    double tolerance = 0.0;
    switch (want.kind) {
      case Kind::kExact:
        break;
      case Kind::kPolarization:
        tolerance = 1e-3 * window;
        break;
      case Kind::kCurrent:
        tolerance = 5e-3 * std::abs(want.value) + 1e-9;
        break;
    }
    if (got.name != want.name || got.kind != want.kind ||
        !(std::abs(got.value - want.value) <= tolerance)) {
      mismatches.push_back(want.name + ": reference " +
                           formatNumber(want.value) + ", got " + got.name +
                           " = " + formatNumber(got.value));
    }
  }
  return mismatches;
}

}  // namespace perfbench
