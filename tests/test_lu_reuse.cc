// Tests of the sparse LU structure cache: the linalg-level
// SparseLuFactorizer contracts (bit-identical solves, counter bookkeeping,
// pattern-change and pivot-drift fallbacks) and the solver-level guarantee
// that Newton trajectories are unchanged when the Newton solver reuses the
// cached structure across iterations and timesteps.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/linalg.h"
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
  const std::size_t n = 40;
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(1.0 + 0.37 * i);

  linalg::SparseLuFactorizer cached;
  for (int pass = 0; pass < 4; ++pass) {
    // Same pattern every pass, drifting values (like Newton iterations of
    // a fixed circuit); diagonal dominance keeps the pivot order stable.
    const double diag = 4.0 + 0.1 * pass;
    const double off = -1.0 - 0.01 * pass;
    const auto m = tridiagonal(n, diag, off);
    cached.factor(m);
    const linalg::SparseLu fresh(m);
    const auto xCached = cached.solve(b);
    const auto xFresh = fresh.solve(b);
    ASSERT_EQ(xCached.size(), xFresh.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(xCached[i], xFresh[i]) << "pass " << pass << " x[" << i
                                       << "] differs from fresh LU";
    }
  }
  EXPECT_EQ(cached.fullFactorizations(), 1);
  EXPECT_EQ(cached.numericRefactorizations(), 3);
  EXPECT_EQ(cached.pivotFallbacks(), 0);
}

TEST(SparseLuFactorizer, PatternChangeRunsFullFactorization) {
  linalg::SparseLuFactorizer cached;
  cached.factor(tridiagonal(10, 4.0, -1.0));
  EXPECT_EQ(cached.fullFactorizations(), 1);

  auto wider = tridiagonal(10, 4.0, -1.0);
  wider.add(0, 9, 0.5);  // new structural entry -> cache cannot be reused
  cached.factor(wider);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 0);
  EXPECT_EQ(cached.pivotFallbacks(), 0);

  // The widened pattern becomes the new cache; repeating it reuses it.
  cached.factor(wider);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 1);
}

TEST(SparseLuFactorizer, PivotDriftFallsBackToFullFactorization) {
  // Column 0: |a10| > |a00| initially, so partial pivoting permutes rows.
  linalg::SparseMatrix a(2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 2.0);
  a.add(1, 1, 1.0);
  linalg::SparseLuFactorizer cached;
  cached.factor(a);
  EXPECT_EQ(cached.fullFactorizations(), 1);

  // Same pattern, but now |a00| wins the pivot scan: the cached pivot
  // sequence is stale and the factorizer must rebuild rather than reuse.
  linalg::SparseMatrix drifted(2);
  drifted.add(0, 0, 5.0);
  drifted.add(0, 1, 1.0);
  drifted.add(1, 0, 2.0);
  drifted.add(1, 1, 1.0);
  cached.factor(drifted);
  EXPECT_EQ(cached.pivotFallbacks(), 1);
  EXPECT_EQ(cached.fullFactorizations(), 2);

  const auto x = cached.solve(std::vector<double>{6.0, 3.0});
  const auto back = drifted.multiply(x);
  EXPECT_NEAR(back[0], 6.0, 1e-12);
  EXPECT_NEAR(back[1], 3.0, 1e-12);
}

TEST(SparseLuFactorizer, StillDetectsSingularMatrices) {
  linalg::SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(1, 0, 1.0);  // column 1 empty -> singular
  linalg::SparseLuFactorizer cached;
  EXPECT_THROW(cached.factor(m), NumericalError);
}

// A long RC ladder pushes the unknown count past the sparse-path threshold
// (160) so the transient exercises SparseLuFactorizer inside the Newton
// solver's Assembler.
spice::TransientResult runLadder(bool reuse, long* numericRefactorizations) {
  using namespace spice;
  Netlist n;
  constexpr int kStages = 200;
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < kStages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
  }
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
  long numericRefactorizations = 0;
  const auto cached = runLadder(true, &numericRefactorizations);
  const auto fresh = runLadder(false, nullptr);

  // The cache must actually have been exercised: every accepted step after
  // the first reuses the structure instead of re-deriving it.
  EXPECT_GT(numericRefactorizations, 10);

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

}  // namespace
}  // namespace fefet
