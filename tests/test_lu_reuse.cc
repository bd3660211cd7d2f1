// Tests of the sparse LU's pattern cache: the linalg-level
// SparseLuFactorizer contracts (refactorization bit-identical to a fresh
// factorization with the same pivot sequence, counter bookkeeping,
// pattern-change and pivot-collapse fallbacks, singular detection,
// zero-diagonal MNA rows, linear fill on circuit Jacobians) and the
// solver-level guarantee that Newton trajectories do not change when the
// Newton solver reuses the cached analysis across iterations and
// timesteps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/linalg.h"
#include "core/array_netlist.h"
#include "obs/metrics.h"
#include "spice/assembler.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "spice/waveform.h"

namespace fefet {
namespace {

linalg::SparseMatrix tridiagonal(std::size_t n, double diag, double off) {
  linalg::SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, diag);
    if (i > 0) m.add(i, i - 1, off);
    if (i + 1 < n) m.add(i, i + 1, off);
  }
  return m;
}

/// MNA of a conductance ladder driven by a voltage source at node 0: the
/// source's branch unknown (last row/column) has a zero diagonal.
linalg::SparseMatrix sourcedLadder(std::size_t nodes, double g, double drift) {
  linalg::SparseMatrix m(nodes + 1);
  for (std::size_t i = 0; i < nodes; ++i) {
    m.add(i, i, 2.0 * g + 1e-3 * drift * static_cast<double>(i % 5));
    if (i > 0) m.add(i, i - 1, -g);
    if (i + 1 < nodes) m.add(i, i + 1, -g);
  }
  m.add(0, nodes, 1.0);
  m.add(nodes, 0, 1.0);
  m.add(nodes, nodes, 0.0);  // explicit structural zero, as assembly leaves
  return m;
}

void factorCsr(linalg::SparseLuFactorizer& lu, const linalg::SparseMatrix& m) {
  linalg::CsrMatrix csr;
  m.toCsr(csr);
  lu.factor(csr.view());
}

double relativeResidual(const linalg::SparseMatrix& m,
                        const std::vector<double>& x,
                        const std::vector<double>& b) {
  const auto ax = m.multiply(x);
  double num = 0.0, den = linalg::normInf(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    num = std::max(num, std::abs(ax[i] - b[i]));
  }
  return num / den;
}

TEST(SparseMatrix, SetZeroKeepStructurePreservesPattern) {
  linalg::SparseMatrix m(3);
  m.add(0, 0, 1.0);
  m.add(1, 2, -4.0);
  m.setZeroKeepStructure();
  EXPECT_EQ(m.nonZeros(), 2u);  // nodes survive as explicit zeros
  EXPECT_DOUBLE_EQ(m.row(0).at(0), 0.0);
  EXPECT_DOUBLE_EQ(m.row(1).at(2), 0.0);
  m.add(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(m.row(1).at(2), 5.0);
}

TEST(SparseLuFactorizer, MatchesFreshLuBitForBit) {
  // Same pattern every pass with drifting values, like Newton iterations
  // of a fixed circuit.  The pivots stay well above threshold, so the
  // refactorization keeps the pivot sequence that a fresh full
  // factorization of the drifted matrix also picks — and must then
  // reproduce its factor, hence its solution, bit for bit.
  const std::size_t nodes = 60;
  std::vector<double> b(nodes + 1);
  for (std::size_t i = 0; i <= nodes; ++i) b[i] = std::sin(1.0 + 0.37 * i);

  linalg::SparseLuFactorizer cached;
  for (int pass = 0; pass < 4; ++pass) {
    const auto m = sourcedLadder(nodes, 1.0 + 0.1 * pass, pass);
    factorCsr(cached, m);
    linalg::SparseLuFactorizer fresh;
    factorCsr(fresh, m);
    EXPECT_EQ(fresh.fullFactorizations(), 1);
    EXPECT_EQ(cached.nnzLu(), fresh.nnzLu());
    const auto xCached = cached.solve(b);
    const auto xFresh = fresh.solve(b);
    ASSERT_EQ(xCached.size(), xFresh.size());
    for (std::size_t i = 0; i < xFresh.size(); ++i) {
      EXPECT_EQ(xCached[i], xFresh[i]) << "pass " << pass << " x[" << i
                                       << "] differs from fresh LU";
    }
    EXPECT_LT(relativeResidual(m, xCached, b), 1e-13);
  }
  EXPECT_EQ(cached.fullFactorizations(), 1);
  EXPECT_EQ(cached.numericRefactorizations(), 3);
  EXPECT_EQ(cached.pivotFallbacks(), 0);
}

TEST(SparseLuFactorizer, PatternChangeRunsFullFactorization) {
  linalg::SparseLuFactorizer cached;
  factorCsr(cached, tridiagonal(10, 4.0, -1.0));
  EXPECT_EQ(cached.fullFactorizations(), 1);

  auto wider = tridiagonal(10, 4.0, -1.0);
  wider.add(0, 9, 0.5);  // new structural entry -> cache cannot be reused
  factorCsr(cached, wider);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 0);
  EXPECT_EQ(cached.pivotFallbacks(), 0);

  // The widened pattern becomes the new cache; repeating it reuses it.
  factorCsr(cached, wider);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 1);
}

TEST(SparseLuFactorizer, PivotDriftFallsBackToFullFactorization) {
  // Both diagonals start dominant, so the first factorization pivots on
  // the diagonal.  Then they collapse to 1e-9 against off-diagonal 1s:
  // whichever column is eliminated first, its cached pivot is now below
  // kPivotTolerance of the column max, so the refactorization must give
  // up and re-pivot on the same ordering.
  const auto make = [](double d) {
    linalg::SparseMatrix a(2);
    a.add(0, 0, d);
    a.add(0, 1, 1.0);
    a.add(1, 0, 1.0);
    a.add(1, 1, d);
    return a;
  };
  linalg::SparseLuFactorizer cached;
  factorCsr(cached, make(4.0));
  EXPECT_EQ(cached.fullFactorizations(), 1);

  const auto collapsed = make(1e-9);
  factorCsr(cached, collapsed);
  EXPECT_EQ(cached.pivotFallbacks(), 1);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 0);

  const std::vector<double> b{6.0, 3.0};
  const auto x = cached.solve(b);
  EXPECT_LT(relativeResidual(collapsed, x, b), 1e-15);

  // The re-pivoted sequence is cached: the same matrix now refactors.
  factorCsr(cached, collapsed);
  EXPECT_EQ(cached.pivotFallbacks(), 1);
  EXPECT_EQ(cached.numericRefactorizations(), 1);
}

TEST(SparseLuFactorizer, StillDetectsSingularMatrices) {
  linalg::SparseMatrix empty(2);
  empty.add(0, 0, 1.0);
  empty.add(1, 0, 1.0);  // column 1 empty -> structurally singular
  linalg::SparseLuFactorizer lu;
  EXPECT_THROW(factorCsr(lu, empty), NumericalError);

  const auto make = [](double a11) {
    linalg::SparseMatrix m(2);
    m.add(0, 0, 1.0);
    m.add(0, 1, 2.0);
    m.add(1, 0, 2.0);
    m.add(1, 1, a11);
    return m;
  };
  linalg::SparseLuFactorizer cached;
  EXPECT_THROW(factorCsr(cached, make(4.0)), NumericalError);  // rank 1

  // Singular after a successful factorization: the refactorization's
  // collapsed pivot falls back, and the full factorization throws.
  factorCsr(cached, make(5.0));
  EXPECT_TRUE(cached.factored());
  try {
    factorCsr(cached, make(4.0));
    FAIL() << "singular refactorization did not throw";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("elimination step"),
              std::string::npos);
  }
  EXPECT_FALSE(cached.factored());
  // And the factorizer recovers on the next regular matrix.
  factorCsr(cached, make(6.0));
  const auto x = cached.solve(std::vector<double>{3.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
}

TEST(SparseLuFactorizer, SolvesZeroDiagonalMnaSystem) {
  // A resistor mesh with two voltage sources: each source's branch row
  // and column have a structurally zero diagonal, so those columns can
  // only pivot off the diagonal.
  const std::size_t nodes = 30;
  linalg::SparseMatrix m(nodes + 2);
  linalg::DenseMatrix d(nodes + 2, nodes + 2);
  const auto add = [&](std::size_t r, std::size_t c, double v) {
    m.add(r, c, v);
    d.at(r, c) += v;
  };
  for (std::size_t i = 0; i < nodes; ++i) {
    add(i, i, 1e-3);  // leak to ground
    for (const std::size_t j : {i + 1, i + 7}) {
      if (j >= nodes) continue;
      const double g = 1.0 / (100.0 + static_cast<double>(i * j % 13));
      add(i, i, g);
      add(j, j, g);
      add(i, j, -g);
      add(j, i, -g);
    }
  }
  for (const auto& [node, branch] :
       {std::pair<std::size_t, std::size_t>{0, nodes},
        std::pair<std::size_t, std::size_t>{nodes - 1, nodes + 1}}) {
    add(node, branch, 1.0);
    add(branch, node, 1.0);
  }
  std::vector<double> b(nodes + 2, 0.0);
  b[nodes] = 1.0;       // V1 = 1 V
  b[nodes + 1] = -0.5;  // V2 = -0.5 V

  linalg::SparseLuFactorizer lu;
  factorCsr(lu, m);
  const auto x = lu.solve(b);
  const auto xd = linalg::DenseLu(d).solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[nodes - 1], -0.5, 1e-14);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x[i], xd[i], 1e-12);
  EXPECT_LT(relativeResidual(m, x, b), 1e-14);
}

/// nnz(A) and nnz(L+U) of a frozen netlist's Jacobian, assembled at zero
/// state in transient (trapezoidal) mode.
std::pair<std::size_t, std::size_t> jacobianFill(spice::Netlist& netlist) {
  using namespace spice;
  if (!netlist.frozen()) netlist.freeze();
  Assembler assembler(netlist.stampPattern(), /*useSparse=*/true);
  const std::vector<double> x(static_cast<std::size_t>(netlist.unknownCount()),
                              0.0);
  assembler.assemble(netlist, SystemView(x, netlist.nodeCount()),
                     /*dc=*/false, 0.0, 1e-12, IntegrationMethod::kTrapezoidal,
                     1e-12);
  linalg::SparseLuFactorizer lu;
  lu.factor(assembler.csr());
  return {assembler.csr().rowPtr.back(), lu.nnzLu()};
}

void buildRcLadder(spice::Netlist& n, int stages) {
  using namespace spice;
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < stages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
  }
}

TEST(SparseLuFactorizer, FillIsLinearOnRcLadder) {
  // Deterministic and untimed: a ladder is tridiagonal plus one source
  // branch, so a fill-reducing order keeps nnz(L+U) within a constant
  // factor of nnz(A) at every length.
  for (const int stages : {200, 2000}) {
    spice::Netlist n;
    buildRcLadder(n, stages);
    const auto [nnzA, nnzLu] = jacobianFill(n);
    EXPECT_LE(nnzLu, 3 * nnzA) << stages << " stages";
  }
}

TEST(SparseLuFactorizer, FillIsBoundedOnArrayJacobian) {
  core::ArrayNetlistConfig config;
  config.rows = 16;
  config.cols = 16;
  core::ArrayNetlist array(config);
  ASSERT_GT(array.netlist().unknownCount(), 800);
  const auto [nnzA, nnzLu] = jacobianFill(array.netlist());
  EXPECT_LE(nnzLu, 2 * nnzA);
}

// A long RC ladder pushes the unknown count past the sparse-path threshold
// (160) so the transient exercises SparseLuFactorizer inside the Newton
// solver's Assembler.
spice::TransientResult runLadder(bool reuse, long* numericRefactorizations) {
  using namespace spice;
  Netlist n;
  buildRcLadder(n, 200);
  NewtonOptions newton;
  newton.reuseLuStructure = reuse;
  Simulator sim(n, newton);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 2e-9;
  options.dtMax = 20e-12;
  auto result = sim.runTransient(
      options, {Probe::v("s1"), Probe::v("s100"), Probe::v("s200")});
  if (numericRefactorizations) {
    *numericRefactorizations =
        sim.newton().sparseFactorizer().numericRefactorizations();
  }
  return result;
}

TEST(LuReuse, NewtonTrajectoryIsBitIdenticalWithAndWithoutCache) {
  // Without the cache every solve orders and fully factors afresh; with
  // it, Newton iterations and timesteps refactor on the cached pivot
  // sequence.  The ladder's pivot choices do not depend on the iterate
  // (dominant node diagonals, one fixed source branch), so the full
  // factorizations pick the cached sequence too, and by the
  // refactorization contract both runs are bit-identical — which implies
  // equal step and iteration counts and agreement within the golden-data
  // tolerance.
  long numericRefactorizations = 0;
  const auto cached = runLadder(true, &numericRefactorizations);
  const auto fresh = runLadder(false, nullptr);

  // The cache must actually have been exercised: every accepted step after
  // the first reuses the analysis instead of re-deriving it.
  EXPECT_GT(numericRefactorizations, 10);
  EXPECT_EQ(cached.stats.steps, fresh.stats.steps);
  EXPECT_EQ(cached.stats.newtonIterations, fresh.stats.newtonIterations);

  ASSERT_EQ(cached.waveform.sampleCount(), fresh.waveform.sampleCount());
  const auto tCached = cached.waveform.time();
  const auto tFresh = fresh.waveform.time();
  for (std::size_t i = 0; i < tCached.size(); ++i) {
    ASSERT_EQ(tCached[i], tFresh[i]) << "timestep sequence diverged at " << i;
  }
  for (const char* col : {"v(s1)", "v(s100)", "v(s200)"}) {
    const auto a = cached.waveform.column(col);
    const auto b = fresh.waveform.column(col);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << col << " diverged at sample " << i;
    }
  }
}

TEST(LuReuse, NewtonSolvesPublishLuMetrics) {
  if (!obs::Metrics::enabled()) GTEST_SKIP() << "metrics disabled";
  obs::Counter& full = obs::Metrics::counter("fefet.lu.full_factorizations");
  obs::Counter& refactor = obs::Metrics::counter("fefet.lu.refactorizations");
  obs::Counter& fallbacks = obs::Metrics::counter("fefet.lu.pivot_fallbacks");
  const auto full0 = full.total();
  const auto refactor0 = refactor.total();
  const auto fallbacks0 = fallbacks.total();
  long numericRefactorizations = 0;
  runLadder(true, &numericRefactorizations);
  EXPECT_EQ(full.total() - full0, 1u);
  EXPECT_EQ(refactor.total() - refactor0,
            static_cast<std::uint64_t>(numericRefactorizations));
  EXPECT_EQ(fallbacks.total() - fallbacks0, 0u);
  // 200-stage ladder: tridiagonal plus the source branch, no fill.
  EXPECT_EQ(obs::Metrics::gauge("fefet.lu.nnz_lu").value(), 603.0);
}

}  // namespace
}  // namespace fefet
