// newton.h — damped Newton–Raphson over the MNA residual system, with
// per-unknown step limiting and optional gmin continuation for hard DC
// operating points.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "spice/assembler.h"
#include "spice/netlist.h"

namespace fefet::spice {

/// Dense -> sparse crossover: systems with more unknowns than this use the
/// sparse LU, the rest dense LU.  With the KLU-style sparse LU the sparse
/// solve measured faster from 6 unknowns up (DESIGN.md §6.2), so the
/// dense path is kept only for systems no larger than one 2T cell (11
/// unknowns): cell studies and their golden data keep dense numerics.
inline constexpr int kDenseToSparseCrossover = 11;

struct NewtonOptions {
  int maxIterations = 80;
  double voltageAbsTol = 1e-6;    ///< [V] update tolerance on node voltages
  double auxAbsTol = 1e-9;        ///< update tolerance on aux unknowns
  double relTol = 1e-4;           ///< relative part of both checks
  double residualAbsTol = 1e-9;   ///< [A]/[V] absolute residual floor
  double residualRelTol = 1e-6;   ///< residual vs row activity scale
  double maxVoltageStep = 0.6;    ///< [V] damping clamp per iteration
  double maxAuxStep = 0.1;        ///< damping clamp on aux unknowns
  double gmin = 1e-12;            ///< [S] node-to-ground regularization
  /// Keep the sparse LU's ordering, pivot sequence and L/U patterns
  /// across Newton iterations and timesteps, recomputing values only (a
  /// pivot that falls below threshold re-pivots).  Off drops the cached
  /// analysis before every solve, for A/B testing and diagnostics.
  bool reuseLuStructure = true;
  /// Ignored: kept only so perfbench/layers.cc, which passes it to
  /// Assembler::assemble, still builds.  Nothing else may set or read it.
  bool useBatchedKernels = true;
  /// Ignored: kept only so perfbench/selftest.cc, which sets them, still
  /// builds.  The flat sparse/dense LU is the only solve path; nothing
  /// else may set or read these two fields.
  bool useHierarchicalSolve = false;
  int hierThreads = 0;
};

struct NewtonStats {
  int iterations = 0;
  bool converged = false;
  double finalResidualNorm = 0.0;
  /// Gmin rescue levels applied before this solve converged (0 when the
  /// nominal gmin sufficed).
  int gminEscalations = 0;
  /// Gmin actually used by the converged solve (options.gmin nominally).
  double gminUsed = 0.0;
};

/// Solve F(x) = 0 for the frozen netlist at one (DC or transient) instant.
/// `x` holds the initial guess and receives the solution.
class NewtonSolver {
 public:
  NewtonSolver(Netlist& netlist, const NewtonOptions& options);

  /// One full Newton solve with the supplied stamp-context template (its
  /// view/stamper fields are filled per iteration).  Returns stats;
  /// `converged == false` means the caller should cut dt / apply gmin.
  NewtonStats solve(std::vector<double>& x, bool dc, double time, double dt,
                    IntegrationMethod method);

  /// Like solve(), but on non-convergence retries with gmin raised by
  /// x100 per level, up to `maxEscalations` levels capped at `gminMax`.
  /// A rescue that converges reports the escalation count and the gmin it
  /// needed; x is only updated by the converging attempt.
  NewtonStats solveWithEscalation(std::vector<double>& x, bool dc,
                                  double time, double dt,
                                  IntegrationMethod method,
                                  int maxEscalations, double gminMax);

  /// DC solve with gmin stepping fallback: tries a direct solve, then a
  /// sequence of decreasing gmin values.  Throws NumericalError when even
  /// the continuation fails.
  NewtonStats solveDcWithContinuation(std::vector<double>& x);

  /// Sparse-LU diagnostics of the flat solve (zeros on the dense path).
  const linalg::SparseLuFactorizer& sparseFactorizer() const {
    return assembler_.solver().sparseFactorizer();
  }

  /// Wall-clock budget observed by the iteration loop: every iteration
  /// polls it and an expired deadline raises DeadlineExceeded (carrying
  /// the iteration count and last residual).  Set by Simulator per
  /// transient run; defaults to unlimited.
  void setDeadline(const Deadline& deadline) { deadline_ = deadline; }

 private:
  NewtonStats solveWithGmin(std::vector<double>& x, bool dc, double time,
                            double dt, IntegrationMethod method, double gmin);

  Netlist& netlist_;
  NewtonOptions options_;
  Assembler assembler_;                  ///< compiled stamp pipeline
  // Reused across iterations/escalation levels: the Newton update and the
  // trial vector of escalation/continuation attempts (no per-iteration
  // heap churn).
  std::vector<double> dx_;
  std::vector<double> attempt_;
  Deadline deadline_;  ///< unlimited unless a transient run set one
};

}  // namespace fefet::spice
