#include "common/linalg.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace fefet::linalg {

void DenseMatrix::setZero() { std::fill(data_.begin(), data_.end(), 0.0); }

std::vector<double> DenseMatrix::multiply(std::span<const double> x) const {
  FEFET_REQUIRE(x.size() == cols_, "DenseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += at(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

namespace detail {

double denseLuFactorInPlace(DenseMatrix& lu, std::vector<std::size_t>& perm) {
  FEFET_REQUIRE(lu.rows() == lu.cols(), "DenseLu: matrix not square");
  const std::size_t n = lu.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  double maxPivot = 0.0, minPivot = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below k.
    std::size_t pivotRow = k;
    double pivotMag = std::abs(lu.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu.at(r, k));
      if (mag > pivotMag) {
        pivotMag = mag;
        pivotRow = r;
      }
    }
    if (pivotMag < 1e-300) {
      std::ostringstream os;
      os << "DenseLu: singular matrix at elimination step " << k << " of "
         << n;
      throw NumericalError(os.str());
    }
    if (pivotRow != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu.at(k, c), lu.at(pivotRow, c));
      }
      std::swap(perm[k], perm[pivotRow]);
    }
    if (k == 0) {
      maxPivot = minPivot = pivotMag;
    } else {
      maxPivot = std::max(maxPivot, pivotMag);
      minPivot = std::min(minPivot, pivotMag);
    }
    const double pivot = lu.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu.at(r, k) / pivot;
      lu.at(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu.at(r, c) -= factor * lu.at(k, c);
      }
    }
  }
  return (minPivot > 0.0) ? maxPivot / minPivot : 0.0;
}

void denseLuSolve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                  std::span<const double> b, std::span<double> x) {
  const std::size_t n = lu.rows();
  FEFET_REQUIRE(b.size() == n && x.size() == n,
                "DenseLu::solve: size mismatch");
  // Apply permutation, then forward substitution on unit-lower L.
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu.at(i, j) * x[j];
    x[i] = acc;
  }
  // Backward substitution on U.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= lu.at(i, j) * x[j];
    x[i] = acc / lu.at(i, i);
  }
}

}  // namespace detail

DenseLu::DenseLu(DenseMatrix a) : lu_(std::move(a)) {
  pivotRatio_ = detail::denseLuFactorInPlace(lu_, perm_);
}

std::vector<double> DenseLu::solve(std::span<const double> b) const {
  std::vector<double> x(lu_.rows());
  detail::denseLuSolve(lu_, perm_, b, x);
  return x;
}

void DenseLuFactorizer::factor(std::size_t n, std::span<const double> rowMajor) {
  FEFET_REQUIRE(rowMajor.size() == n * n,
                "DenseLuFactorizer: matrix storage size mismatch");
  factored_ = false;
  if (lu_.rows() != n) lu_ = DenseMatrix(n, n);
  std::copy(rowMajor.begin(), rowMajor.end(), lu_.data().begin());
  pivotRatio_ = detail::denseLuFactorInPlace(lu_, perm_);
  factored_ = true;
}

void DenseLuFactorizer::solve(std::span<const double> b,
                              std::span<double> x) const {
  FEFET_REQUIRE(factored_, "DenseLuFactorizer::solve called before factor()");
  detail::denseLuSolve(lu_, perm_, b, x);
}

void SparseMatrix::setZero() {
  for (auto& row : rows_) row.clear();
}

void SparseMatrix::setZeroKeepStructure() {
  for (auto& row : rows_) {
    for (auto& [c, v] : row) v = 0.0;
  }
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  FEFET_REQUIRE(x.size() == rows_.size(), "SparseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_.size(), 0.0);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    double acc = 0.0;
    for (const auto& [c, v] : rows_[r]) acc += v * x[c];
    y[r] = acc;
  }
  return y;
}

void SparseMatrix::toCsr(CsrMatrix& out) const {
  out.n = rows_.size();
  out.rowPtr.assign(1, 0);
  out.colIdx.clear();
  out.values.clear();
  for (const auto& row : rows_) {
    for (const auto& [c, v] : row) {
      out.colIdx.push_back(c);
      out.values.push_back(v);
    }
    out.rowPtr.push_back(out.colIdx.size());
  }
}

std::size_t SparseMatrix::nonZeros() const {
  std::size_t nz = 0;
  for (const auto& row : rows_) nz += row.size();
  return nz;
}

namespace {

/// Pivot magnitudes below this are treated as exact zeros (singular).
constexpr double kSingularPivot = 1e-300;

[[noreturn]] void throwSingular(std::size_t k, std::size_t n) {
  std::ostringstream os;
  os << "SparseLu: singular matrix at elimination step " << k << " of " << n;
  throw NumericalError(os.str());
}

}  // namespace

void SparseLuFactorizer::reset() {
  analysed_ = false;
  factored_ = false;
}

void SparseLuFactorizer::factor(const CsrView& a) {
  if (analysed_ && samePattern(a)) {
    if (factored_) {
      factored_ = false;
      if (refactor(a.values)) {
        factored_ = true;
        ++numericRefactorizations_;
        return;
      }
      ++pivotFallbacks_;
    }
  } else {
    analyse(a);
  }
  factorFull(a.values);
}

bool SparseLuFactorizer::samePattern(const CsrView& a) const {
  return a.n == n_ && a.rowPtr.size() == patRowPtr_.size() &&
         std::equal(a.rowPtr.begin(), a.rowPtr.end(), patRowPtr_.begin()) &&
         a.colIdx.size() >= patColIdx_.size() &&
         std::equal(patColIdx_.begin(), patColIdx_.end(), a.colIdx.begin());
}

void SparseLuFactorizer::analyse(const CsrView& a) {
  FEFET_REQUIRE(a.rowPtr.size() == a.n + 1,
                "SparseLuFactorizer: rowPtr must have n + 1 entries");
  const std::size_t n = a.n;
  const std::size_t nnz = a.rowPtr[n];
  FEFET_REQUIRE(a.colIdx.size() >= nnz && a.values.size() >= nnz,
                "SparseLuFactorizer: CSR arrays shorter than rowPtr[n]");
  analysed_ = false;
  factored_ = false;
  n_ = n;
  const auto cols = a.colIdx.first(nnz);
  patRowPtr_.assign(a.rowPtr.begin(), a.rowPtr.end());
  patColIdx_.assign(cols.begin(), cols.end());

  // Fill-reducing order of A + Aᵀ: the ordering symmetrizes the pattern
  // and drops the diagonal itself (and rejects out-of-range columns).
  order_ = approximateMinimumDegree(n, a.rowPtr, cols);

  // CSC of B = A(order_, order_), rows ascending within each column.
  std::vector<std::size_t> inv(n);
  for (std::size_t k = 0; k < n; ++k) inv[order_[k]] = k;
  bColPtr_.assign(n + 1, 0);
  for (std::size_t p = 0; p < nnz; ++p) ++bColPtr_[inv[a.colIdx[p]] + 1];
  for (std::size_t k = 0; k < n; ++k) bColPtr_[k + 1] += bColPtr_[k];
  bRow_.resize(nnz);
  bSrc_.resize(nnz);
  std::vector<std::size_t> next(bColPtr_.begin(), bColPtr_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = order_[i];
    for (std::size_t p = a.rowPtr[r]; p < a.rowPtr[r + 1]; ++p) {
      const std::size_t q = next[inv[a.colIdx[p]]]++;
      bRow_[q] = i;
      bSrc_[q] = p;
    }
  }

  x_.assign(n, 0.0);
  flag_.assign(n, 0);
  pattern_.assign(n, 0);
  stack_.assign(n, 0);
  childPos_.assign(n, 0);
  pinv_.assign(n, 0);
  uDiag_.assign(n, 0.0);
  rhsSrc_.assign(n, 0);
  bLab_.resize(nnz);
  analysed_ = true;
}

std::size_t SparseLuFactorizer::reach(std::size_t root, std::size_t k,
                                      std::size_t top) {
  // Iterative depth-first search from B row `root` through the columns of
  // L: an already-pivoted row j leads to the rows of L(:, pinv_[j]).  Rows
  // are emitted in postorder at the front of pattern_[top..n), so reading
  // that range forwards is a topological order of the updates.  flag_
  // holds k + 1 for rows visited while forming column k.
  const std::size_t n = n_;
  std::size_t depth = 0;
  stack_[0] = root;
  flag_[root] = k + 1;
  childPos_[0] = pinv_[root] < n ? lColPtr_[pinv_[root]] : 0;
  for (;;) {
    const std::size_t i = stack_[depth];
    const std::size_t end = pinv_[i] < n ? lColPtr_[pinv_[i] + 1] : 0;
    std::size_t p = childPos_[depth];
    while (p < end && flag_[lIdx_[p]] == k + 1) ++p;
    if (p < end) {
      const std::size_t r = lIdx_[p];
      childPos_[depth] = p + 1;
      flag_[r] = k + 1;
      stack_[++depth] = r;
      childPos_[depth] = pinv_[r] < n ? lColPtr_[pinv_[r]] : 0;
      continue;
    }
    pattern_[--top] = i;
    if (depth == 0) return top;
    --depth;
  }
}

void SparseLuFactorizer::factorFull(std::span<const double> values) {
  // Gilbert–Peierls left-looking LU of B with threshold partial pivoting.
  // While it runs, L's row indices are B rows (the DFS follows them
  // through pinv_); they become labels once every pivot is known.
  const std::size_t n = n_;
  factored_ = false;
  ++fullFactorizations_;
  std::fill(pinv_.begin(), pinv_.end(), n);  // n = not yet pivotal
  std::fill(flag_.begin(), flag_.end(), 0);
  std::fill(x_.begin(), x_.end(), 0.0);
  lColPtr_.assign(1, 0);
  uColPtr_.assign(1, 0);
  lIdx_.clear();
  lVal_.clear();
  uIdx_.clear();
  uVal_.clear();

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t top = n;
    for (std::size_t p = bColPtr_[k]; p < bColPtr_[k + 1]; ++p) {
      if (flag_[bRow_[p]] != k + 1) top = reach(bRow_[p], k, top);
    }
    for (std::size_t p = bColPtr_[k]; p < bColPtr_[k + 1]; ++p) {
      x_[bRow_[p]] += values[bSrc_[p]];
    }
    // Sparse triangular solve with the finished columns of L.
    for (std::size_t t = top; t < n; ++t) {
      const std::size_t j = pinv_[pattern_[t]];
      if (j == n) continue;
      const double xj = x_[pattern_[t]];
      for (std::size_t q = lColPtr_[j]; q < lColPtr_[j + 1]; ++q) {
        x_[lIdx_[q]] -= lVal_[q] * xj;
      }
    }
    // Threshold partial pivoting, preferring the diagonal row k.
    std::size_t best = n;
    double bestMag = 0.0;
    bool diagonalFound = false;
    for (std::size_t t = top; t < n; ++t) {
      const std::size_t i = pattern_[t];
      if (pinv_[i] != n) continue;
      const double mag = std::abs(x_[i]);
      if (mag > bestMag) {
        bestMag = mag;
        best = i;
      }
      if (i == k) diagonalFound = true;
    }
    if (best == n || bestMag < kSingularPivot) throwSingular(k, n);
    if (diagonalFound && std::abs(x_[k]) >= kPivotTolerance * bestMag) {
      best = k;
    }
    const double pivot = x_[best];
    uDiag_[k] = pivot;
    pinv_[best] = k;
    x_[best] = 0.0;
    for (std::size_t t = top; t < n; ++t) {
      const std::size_t i = pattern_[t];
      if (i == best) continue;
      if (pinv_[i] < k) {
        uIdx_.push_back(pinv_[i]);
        uVal_.push_back(x_[i]);
      } else {
        lIdx_.push_back(i);
        lVal_.push_back(x_[i] / pivot);
      }
      x_[i] = 0.0;
    }
    lColPtr_.push_back(lIdx_.size());
    uColPtr_.push_back(uIdx_.size());
  }

  // Switch to labels: B row i now lives at position pinv_[i], whose
  // label is order_[pinv_[i]].
  for (std::size_t& i : lIdx_) i = order_[pinv_[i]];
  for (std::size_t p = 0; p < bRow_.size(); ++p) {
    bLab_[p] = order_[pinv_[bRow_[p]]];
  }
  for (std::size_t i = 0; i < n; ++i) rhsSrc_[pinv_[i]] = order_[i];
  factored_ = true;
}

bool SparseLuFactorizer::refactor(std::span<const double> values) {
  // Replays factorFull's arithmetic on the cached patterns: the same
  // scatter, the same updates in the same (stored topological) order and
  // the same divisions, so with an unchanged pivot sequence the factor is
  // bit-identical to a full factorization.  x_ is indexed by label.
  const std::size_t n = n_;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = bColPtr_[k]; p < bColPtr_[k + 1]; ++p) {
      x_[bLab_[p]] += values[bSrc_[p]];
    }
    for (std::size_t q = uColPtr_[k]; q < uColPtr_[k + 1]; ++q) {
      const std::size_t j = uIdx_[q];
      double& xj = x_[order_[j]];
      const double v = xj;
      xj = 0.0;
      uVal_[q] = v;
      for (std::size_t p = lColPtr_[j]; p < lColPtr_[j + 1]; ++p) {
        x_[lIdx_[p]] -= lVal_[p] * v;
      }
    }
    double& diag = x_[order_[k]];
    const double pivot = diag;
    diag = 0.0;
    double maxMag = std::abs(pivot);
    for (std::size_t p = lColPtr_[k]; p < lColPtr_[k + 1]; ++p) {
      maxMag = std::max(maxMag, std::abs(x_[lIdx_[p]]));
    }
    // Negated comparisons so a NaN pivot also falls back.
    if (!(std::abs(pivot) >= kPivotTolerance * maxMag) ||
        !(std::abs(pivot) >= kSingularPivot)) {
      return false;  // x_ is cleared by the full factorization that follows
    }
    uDiag_[k] = pivot;
    for (std::size_t p = lColPtr_[k]; p < lColPtr_[k + 1]; ++p) {
      double& xi = x_[lIdx_[p]];
      lVal_[p] = xi / pivot;
      xi = 0.0;
    }
  }
  return true;
}

std::vector<double> SparseLuFactorizer::solve(
    std::span<const double> b) const {
  std::vector<double> x(n_);
  solve(b, x);
  return x;
}

void SparseLuFactorizer::solve(std::span<const double> b,
                               std::span<double> x) const {
  FEFET_REQUIRE(factored_, "SparseLuFactorizer::solve called before factor()");
  FEFET_REQUIRE(b.size() == n_ && x.size() == n_,
                "SparseLuFactorizer::solve: size mismatch");
  const std::size_t n = n_;
  for (std::size_t k = 0; k < n; ++k) x[order_[k]] = b[rhsSrc_[k]];
  // L y = P b, column by column (unit diagonal).
  for (std::size_t k = 0; k < n; ++k) {
    const double v = x[order_[k]];
    if (v == 0.0) continue;
    for (std::size_t p = lColPtr_[k]; p < lColPtr_[k + 1]; ++p) {
      x[lIdx_[p]] -= lVal_[p] * v;
    }
  }
  // U z = y, column by column from the last pivot back.
  for (std::size_t k = n; k-- > 0;) {
    double& xk = x[order_[k]];
    xk /= uDiag_[k];
    const double v = xk;
    if (v == 0.0) continue;
    for (std::size_t q = uColPtr_[k]; q < uColPtr_[k + 1]; ++q) {
      x[order_[uIdx_[q]]] -= uVal_[q] * v;
    }
  }
}

void LinearSolver::solve(const SparseMatrix& a, std::span<const double> b,
                         std::vector<double>& x) {
  a.toCsr(csrScratch_);
  solve(csrScratch_.view(), b, x, /*reuseStructure=*/true);
}

void LinearSolver::solve(const DenseMatrix& a, std::span<const double> b,
                         std::vector<double>& x) {
  solve(a.data(), b, x);
}

void LinearSolver::solve(std::span<const double> rowMajor,
                         std::span<const double> b, std::vector<double>& x) {
  x.resize(n_);
  denseFactor_.factor(n_, rowMajor);
  denseFactor_.solve(b, x);
}

void LinearSolver::solve(const CsrView& a, std::span<const double> b,
                         std::vector<double>& x, bool reuseStructure) {
  x.resize(n_);
  if (!reuseStructure) sparseFactor_.reset();
  sparseFactor_.factor(a);
  sparseFactor_.solve(b, x);
}

double normInf(std::span<const double> v) {
  double m = 0.0;
  for (double e : v) m = std::max(m, std::abs(e));
  return m;
}

double norm2(std::span<const double> v) {
  double acc = 0.0;
  for (double e : v) acc += e * e;
  return std::sqrt(acc);
}

}  // namespace fefet::linalg
