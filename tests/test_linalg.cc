// Unit tests for common/linalg.h: dense and sparse LU solvers.
#include "common/linalg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/stats.h"

namespace fefet::linalg {
namespace {

TEST(DenseMatrix, MultiplyIdentityLike) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(1, 1) = 3.0;
  const std::vector<double> x = {1.0, -1.0};
  const auto y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
}

TEST(DenseLu, Solves2x2) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 3.0; a.at(0, 1) = 2.0;
  a.at(1, 0) = 1.0; a.at(1, 1) = 4.0;
  DenseLu lu(a);
  const auto x = lu.solve(std::vector<double>{7.0, 9.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 0.0; a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0; a.at(1, 1) = 0.0;
  DenseLu lu(a);
  const auto x = lu.solve(std::vector<double>{5.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(DenseLu, DetectsSingular) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1.0; a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0; a.at(1, 1) = 4.0;
  EXPECT_THROW(DenseLu{a}, NumericalError);
}

TEST(SparseMatrix, AccumulatesAndCounts) {
  SparseMatrix m(3);
  m.add(0, 0, 1.0);
  m.add(0, 0, 2.0);
  m.add(2, 1, -1.0);
  EXPECT_EQ(m.nonZeros(), 2u);
  EXPECT_DOUBLE_EQ(m.row(0).at(0), 3.0);
}

/// Factor a row-map matrix through its CSR form.
void factorCsr(SparseLuFactorizer& lu, const SparseMatrix& m) {
  CsrMatrix csr;
  m.toCsr(csr);
  lu.factor(csr.view());
}

TEST(SparseLu, SolvesTridiagonal) {
  const std::size_t n = 50;
  SparseMatrix m(n);
  std::vector<double> b(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 2.0);
    if (i > 0) m.add(i, i - 1, -1.0);
    if (i + 1 < n) m.add(i, i + 1, -1.0);
  }
  SparseLuFactorizer lu;
  factorCsr(lu, m);
  const auto x = lu.solve(b);
  const auto back = m.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], 1.0, 1e-9);
  EXPECT_EQ(lu.nnzLu(), m.nonZeros());  // a path orders without fill
}

TEST(SparseLu, DetectsSingular) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(1, 0, 1.0);  // column 1 empty -> singular
  SparseLuFactorizer lu;
  EXPECT_THROW(factorCsr(lu, m), NumericalError);
}

TEST(Norms, InfAndTwo) {
  const std::vector<double> v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(normInf(v), 4.0);
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
}

// Property sweep: sparse LU agrees with dense LU on random sparse systems
// with partial pivoting stress (large off-diagonal entries), and its
// solution leaves a residual at rounding level — on the first (full)
// factorization and on value-only refactorizations of the same pattern,
// including one where a third of the diagonals collapse to 1e-9 so cached
// pivots fall below threshold.
class SparseVsDense : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDense, AgreeOnRandomSystems) {
  const int n = GetParam();
  const auto un = static_cast<std::size_t>(n);
  stats::Rng rng(static_cast<std::uint64_t>(n) * 977u + 13u);
  SparseMatrix s(un);
  // Diagonally-influenced random sparse pattern plus a few large
  // off-diagonal couplings to exercise pivoting.
  for (std::size_t i = 0; i < un; ++i) {
    s.add(i, i, rng.uniform(0.5, 2.0));
    for (int k = 0; k < 3; ++k) {
      s.add(i, static_cast<std::size_t>(rng.uniformInt(0, n - 1)),
            rng.uniform(-3.0, 3.0));
    }
  }
  std::vector<double> b(un);
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);
  CsrMatrix csr;
  s.toCsr(csr);

  SparseLuFactorizer lu;
  for (int pass = 0; pass < 4; ++pass) {
    if (pass > 0) {  // new values, same pattern
      for (std::size_t r = 0; r < un; ++r) {
        for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
          const bool collapse = pass == 2 && csr.colIdx[p] == r && r % 3 == 0;
          csr.values[p] = collapse ? 1e-9 : csr.values[p] * rng.uniform(0.5, 1.5);
        }
      }
    }
    DenseMatrix d(un, un);
    double normA = 0.0;
    for (std::size_t r = 0; r < un; ++r) {
      double rowSum = 0.0;
      for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
        d.at(r, csr.colIdx[p]) = csr.values[p];
        rowSum += std::abs(csr.values[p]);
      }
      normA = std::max(normA, rowSum);
    }
    const auto xd = DenseLu(d).solve(b);
    lu.factor(csr.view());
    const auto xs = lu.solve(b);
    const auto ax = d.multiply(xs);
    // The collapsed passes are nearly singular (|x| up to ~1e11), so
    // agreement there is relative to the solution's size.
    const double tol = pass < 2 ? 1e-7 : 1e-7 * (1.0 + normInf(xd));
    double residual = 0.0;
    for (std::size_t i = 0; i < un; ++i) {
      EXPECT_NEAR(xs[i], xd[i], tol)
          << "n=" << n << " pass " << pass << " i=" << i;
      residual = std::max(residual, std::abs(ax[i] - b[i]));
    }
    // ||A x - b|| <= 1e-12 (||A|| ||x|| + ||b||), infinity norms.
    EXPECT_LE(residual, 1e-12 * (normA * normInf(xs) + normInf(b)))
        << "n=" << n << " pass " << pass;
  }
  // Every factor() is one full factorization or one refactorization; the
  // collapsed diagonals forced at least one fallback to a full one.
  EXPECT_EQ(lu.fullFactorizations() + lu.numericRefactorizations(), 4);
  EXPECT_EQ(lu.fullFactorizations(), 1 + lu.pivotFallbacks());
  EXPECT_GE(lu.pivotFallbacks(), 1) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseVsDense,
                         ::testing::Values(2, 5, 10, 25, 60, 120));

// ---------------------------------------------------------------------------
// Several right-hand sides against one matrix: the LinearSolver facade
// must reproduce its backends bit for bit, and its sparse instances must
// factor once and refactor for every later right-hand side.

/// Random test system with pivoting stress; returns (dense, sparse) pair.
void buildRandomSystem(int n, std::uint64_t seed, DenseMatrix* d,
                       SparseMatrix* s) {
  stats::Rng rng(seed);
  *d = DenseMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  *s = SparseMatrix(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double diag = rng.uniform(0.5, 2.0);
    d->at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += diag;
    s->add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), diag);
    for (int k = 0; k < 3; ++k) {
      const int j = rng.uniformInt(0, n - 1);
      const double v = rng.uniform(-3.0, 3.0);
      d->at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) += v;
      s->add(static_cast<std::size_t>(i), static_cast<std::size_t>(j), v);
    }
  }
}

TEST(MultiRhs, LinearSolverFacadeMatchesBackends) {
  // The facade's solves reproduce, right-hand side by right-hand side,
  // the backends' solves of the same matrix.
  constexpr int kN = 24;
  constexpr std::size_t kRhs = 3;
  DenseMatrix d;
  SparseMatrix s;
  buildRandomSystem(kN, 99u, &d, &s);
  stats::Rng rng(3u);
  std::vector<double> b(kRhs * kN);
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);
  const auto column = [&](std::size_t c) {
    return std::span<const double>(b).subspan(c * kN, kN);
  };

  DenseLuFactorizer dlu;
  dlu.factor(d);
  SparseLuFactorizer slu;
  factorCsr(slu, s);

  CsrMatrix csr;
  s.toCsr(csr);
  LinearSolver dense(kN, /*sparse=*/false);
  LinearSolver sparse(kN, /*sparse=*/true);
  LinearSolver sparseNoReuse(kN, /*sparse=*/true);
  LinearSolver rowMap(kN, /*sparse=*/true);
  std::vector<double> x;
  std::vector<double> xDenseRef(kN), xSparseRef(kN);
  const auto expectEqual = [&](const std::vector<double>& ref) {
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(x[i], ref[i]);
  };
  for (std::size_t c = 0; c < kRhs; ++c) {
    dlu.solve(column(c), xDenseRef);
    slu.solve(column(c), xSparseRef);
    dense.solve(d, column(c), x);
    expectEqual(xDenseRef);
    // CSR with reuse, CSR without reuse (re-analysed every call) and the
    // row-map oracle's overload all run the same factorization.
    sparse.solve(csr.view(), column(c), x, /*reuseStructure=*/true);
    expectEqual(xSparseRef);
    sparseNoReuse.solve(csr.view(), column(c), x, /*reuseStructure=*/false);
    expectEqual(xSparseRef);
    rowMap.solve(s, column(c), x);
    expectEqual(xSparseRef);
  }
  EXPECT_EQ(sparse.sparseFactorizer().fullFactorizations(), 1);
  EXPECT_EQ(sparse.sparseFactorizer().numericRefactorizations(),
            static_cast<long>(kRhs) - 1);
  EXPECT_EQ(sparseNoReuse.sparseFactorizer().fullFactorizations(),
            static_cast<long>(kRhs));
}

// ---------------------------------------------------------------------------
// Approximate minimum degree ordering.

bool isPermutation(const std::vector<std::size_t>& order, std::size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const std::size_t v : order) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

TEST(ApproximateMinimumDegree, ReturnsAPermutation) {
  // Random graphs with isolated vertices, duplicate and one-directional
  // edges, self loops, and a hub dense enough to be ordered last.
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 400u}) {
    stats::Rng rng(n * 31u + 7u);
    std::vector<std::size_t> ptr{0};
    std::vector<std::size_t> adj;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 9 != 4) {
        for (int k = 0; k < 3; ++k) {
          adj.push_back(static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<int>(n) - 1)));
        }
      }
      if (i == 0) {
        for (std::size_t j = 0; j < n; ++j) adj.push_back(j);  // hub
      }
      ptr.push_back(adj.size());
    }
    const auto order = approximateMinimumDegree(n, ptr, adj);
    EXPECT_TRUE(isPermutation(order, n)) << "n=" << n;
  }
  EXPECT_TRUE(approximateMinimumDegree(0, std::vector<std::size_t>{0}, {})
                  .empty());
}

TEST(ApproximateMinimumDegree, OrdersAStarHubLast) {
  // Eliminating the hub first would fill the whole matrix; minimum
  // degree takes every leaf first.
  constexpr std::size_t kLeaves = 12;
  std::vector<std::size_t> ptr{0};
  std::vector<std::size_t> adj;
  for (std::size_t j = 1; j <= kLeaves; ++j) adj.push_back(j);
  ptr.push_back(adj.size());
  for (std::size_t j = 1; j <= kLeaves; ++j) ptr.push_back(adj.size());
  const auto order = approximateMinimumDegree(kLeaves + 1, ptr, adj);
  ASSERT_TRUE(isPermutation(order, kLeaves + 1));
  EXPECT_EQ(order.back(), 0u);
}

TEST(ApproximateMinimumDegree, GridFillStaysNearNestedDissectionScale) {
  // 5-point Laplacian on a 30 x 30 grid: natural order fills O(n^1.5)
  // (bandwidth 30); a minimum-degree order stays far below it.
  constexpr std::size_t kSide = 30;
  constexpr std::size_t kN = kSide * kSide;
  SparseMatrix m(kN);
  for (std::size_t r = 0; r < kSide; ++r) {
    for (std::size_t c = 0; c < kSide; ++c) {
      const std::size_t i = r * kSide + c;
      m.add(i, i, 4.0);
      for (const std::size_t j : {c + 1 < kSide ? i + 1 : i,
                                  r + 1 < kSide ? i + kSide : i}) {
        if (j == i) continue;
        m.add(i, j, -1.0);
        m.add(j, i, -1.0);
      }
    }
  }
  SparseLuFactorizer lu;
  factorCsr(lu, m);
  // Natural order would need ~2 * kN * kSide = 54000 entries.
  EXPECT_LT(lu.nnzLu(), 20000u);
  std::vector<double> b(kN, 1.0);
  const auto x = lu.solve(b);
  const auto back = m.multiply(x);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_NEAR(back[i], 1.0, 1e-10);
}

}  // namespace
}  // namespace fefet::linalg
