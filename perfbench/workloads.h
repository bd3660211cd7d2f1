// workloads.h — the benchmark's workloads, driven through the public
// core / sim entry points.
//
//  cell_mc     Monte Carlo of independently perturbed 2T cells
//              (core::VariationSpec defaults), one sim::SweepEngine point
//              per cell: write 1 at 0.68 V / 550 ps, hold, read, write 0,
//              hold, read.  11 unknowns per system:
//              device evaluation, step control and the sweep pool do the
//              work; the sparse LU and Schur code never run.
//  array_flat  16x16 array (896 unknowns), write-heavy random-cell stream
//              under the Table 1 bias scheme, flat solver, one thread: the
//              global sparse LU dominates every Newton iteration.
//  array_hier  32x32 array (3328 unknowns), read- and hold-heavy stream,
//              hierarchical solver selected through the environment
//              (FEFET_HIERARCHICAL_SOLVE=1, FEFET_THREADS=1): Schur border
//              work, block sparse LU and hold-bias collapse do the work.
//              One engine thread, because at 2 threads per-op times moved
//              by 21-34 % (IQR) between runs on a 4-vCPU host; the engine's
//              fan-out is measured by the traced run's Schur probe instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "op_stream.h"

namespace perfbench {

namespace core = fefet::core;
namespace spice = fefet::spice;

enum class Workload { kCellMc, kArrayFlat, kArrayHier };

std::optional<Workload> parseWorkload(const std::string& name);
const char* toString(Workload workload);

/// Environment a workload sets for itself; every other FEFET_* variable
/// must be absent while it runs.
std::vector<std::pair<std::string, std::string>> workloadEnvironment(
    Workload workload);

/// Sweep threads of cell_mc: min(4, nproc).
int cellThreads();

/// One timed op.
struct OpSample {
  OpKind kind = OpKind::kHold;
  double hostMs = 0.0;  ///< host wall time of the op
  double simNs = 0.0;   ///< simulated time the op covered
};

/// What a run did, accumulated across steps.
struct Tally {
  std::vector<OpSample> ops;
  long attempted = 0;  ///< ops started
  long failed = 0;     ///< solver errors and wrong outputs
  std::vector<std::string> errors;  ///< first few failure messages
  // cell_mc outcomes (simulated, not failures).
  long cells = 0;
  long rejectedCells = 0;  ///< outside the nonvolatile regime
  long passedCells = 0;    ///< both polarities written and read back
  // Sweep-pool occupancy (cell_mc).
  double sweepPointSeconds = 0.0;
  double sweepCapacitySeconds = 0.0;  ///< threads x wall

  void fail(const std::string& message);
  void merge(const Tally& other);
};

/// Where the per-layer probes replay calls: a simulator whose state is in
/// the middle of a write, with the write biases still applied.
struct ProbeState {
  spice::Simulator* simulator = nullptr;
  core::FefetParams fefet;
  double time = 0.0;  ///< local time of the state [s]
  double dt = 0.0;    ///< a typical accepted step at that point [s]
};

/// One workload instance: built anew by makeSession() (the timed
/// set-up), then advanced one closed-loop unit per step().
class Session {
 public:
  virtual ~Session() = default;
  /// Run the next unit of work: one array op, or one sweep chunk of cells.
  virtual void step(Tally& tally) = 0;
  /// End-of-run consistency checks of the simulated state.
  virtual void finish(Tally& tally) = 0;
  /// Put the instance into a mid-write state for the layer probes.
  virtual ProbeState probeState() = 0;
  /// The instance's simulator when it has exactly one (arrays).
  virtual const spice::Simulator* simulator() const { return nullptr; }
};

/// One sweep over cells [first, first + count) of the seeded cell_mc
/// population at `threads` workers; a cell's inputs depend only on the
/// seed and its index.
Tally runCellBatch(std::uint64_t seed, long first, int count, int threads);

/// Build a workload instance: for arrays deck emit, parse, freeze() and
/// the seeded initial pattern; for cell_mc the nominal cell and the sweep
/// engine start.  `cellChunk` is the number of cells per cell_mc step.
std::unique_ptr<Session> makeSession(Workload workload, std::uint64_t seed,
                                     int cellChunk = 0);

/// Array configuration of an array workload (solver left to the
/// environment).
core::ArrayNetlistConfig arrayConfig(Workload workload);

/// Nominal 2T cell of cell_mc.
core::Cell2TConfig nominalCell();

/// Reference outputs: named values with the tolerance class each is
/// compared at.
struct Reference {
  enum class Kind { kExact, kPolarization, kCurrent };
  struct Entry {
    Kind kind = Kind::kExact;
    std::string name;
    double value = 0.0;
  };
  double window = 0.0;  ///< memory window pOn - pOff [C/m^2]
  std::vector<Entry> entries;

  void add(Kind kind, const std::string& name, double value) {
    entries.push_back({kind, name, value});
  }
  std::string serialize() const;
  static Reference parse(const std::string& text);
  /// Mismatches of `actual` against this reference: bits and counts
  /// exact, P within 1e-3 of the memory window, read current within 0.5 %
  /// (plus a 1 nA floor for the sub-threshold current of a stored 0).
  std::vector<std::string> compare(const Reference& actual) const;
};

/// Run the workload's fixed golden scenario (independent of the run's
/// seed) on a fresh instance and collect its outputs; `tally` (empty on
/// entry) receives the scenario's ops and failures.
Reference runGolden(Workload workload, Tally& tally);

}  // namespace perfbench
