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

void DenseLuFactorizer::solveMulti(std::span<const double> b,
                                   std::span<double> x,
                                   std::size_t nrhs) const {
  FEFET_REQUIRE(factored_,
                "DenseLuFactorizer::solveMulti called before factor()");
  const std::size_t n = lu_.rows();
  FEFET_REQUIRE(b.size() == n * nrhs && x.size() == n * nrhs,
                "DenseLuFactorizer::solveMulti: size mismatch");
  // Permutation, column by column.
  for (std::size_t c = 0; c < nrhs; ++c) {
    for (std::size_t i = 0; i < n; ++i) x[c * n + i] = b[c * n + perm_[i]];
  }
  // Forward substitution on unit-lower L, blocked over columns.  For every
  // column the updates to x[c*n + i] happen in the same j order as the
  // scalar kernel's register accumulation, so the results are
  // bit-identical per column.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double l = lu_.at(i, j);
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n + i] -= l * x[c * n + j];
      }
    }
  }
  // Backward substitution on U.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double u = lu_.at(i, j);
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n + i] -= u * x[c * n + j];
      }
    }
    const double diag = lu_.at(i, i);
    for (std::size_t c = 0; c < nrhs; ++c) x[c * n + i] /= diag;
  }
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

std::size_t SparseMatrix::nonZeros() const {
  std::size_t nz = 0;
  for (const auto& row : rows_) nz += row.size();
  return nz;
}

SparseLu::SparseLu(const SparseMatrix& a) {
  const std::size_t n = a.size();
  // Working copy of the rows; we eliminate in place.
  std::vector<std::map<std::size_t, double>> rows(n);
  for (std::size_t r = 0; r < n; ++r) rows[r] = a.row(r);

  perm_.resize(n);
  std::vector<std::size_t> rowOf(n);  // position k -> original row index
  for (std::size_t i = 0; i < n; ++i) rowOf[i] = i;

  lower_.assign(n, {});
  upper_.assign(n, {});

  for (std::size_t k = 0; k < n; ++k) {
    // Pivot: among remaining rows, pick the one with the largest |entry| in
    // column k (partial pivoting, like the dense path).
    std::size_t best = n;
    double bestMag = 0.0;
    for (std::size_t i = k; i < n; ++i) {
      const auto& row = rows[rowOf[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double mag = std::abs(it->second);
      if (mag > bestMag) {
        bestMag = mag;
        best = i;
      }
    }
    if (best == n || bestMag < 1e-300) {
      std::ostringstream os;
      os << "SparseLu: singular matrix at elimination step " << k << " of "
         << n;
      throw NumericalError(os.str());
    }
    std::swap(rowOf[k], rowOf[best]);
    const std::size_t prow = rowOf[k];
    const double pivot = rows[prow][k];

    // Record U row k (entries at columns >= k).
    upper_[k] = rows[prow];

    // Eliminate column k from all remaining rows that contain it.
    for (std::size_t i = k + 1; i < n; ++i) {
      auto& row = rows[rowOf[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double factor = it->second / pivot;
      row.erase(it);
      lower_[rowOf[i]][k] = factor;
      if (factor == 0.0) continue;
      for (auto uit = upper_[k].upper_bound(k); uit != upper_[k].end();
           ++uit) {
        row[uit->first] -= factor * uit->second;
      }
    }
  }
  perm_ = rowOf;

  // Re-key lower_ so that lower_[k] holds the multipliers of the row placed
  // at position k (in elimination order).
  std::vector<std::map<std::size_t, double>> lowerByPos(n);
  for (std::size_t k = 0; k < n; ++k) lowerByPos[k] = lower_[perm_[k]];
  lower_ = std::move(lowerByPos);
}

std::vector<double> SparseLu::solve(std::span<const double> b) const {
  const std::size_t n = perm_.size();
  FEFET_REQUIRE(b.size() == n, "SparseLu::solve: size mismatch");
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution: L has unit diagonal; lower_[i] keys are column
  // positions (< i) in elimination order.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = x[i];
    for (const auto& [j, v] : lower_[i]) acc -= v * x[j];
    x[i] = acc;
  }
  // Backward substitution on U.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    double diag = 0.0;
    for (const auto& [j, v] : upper_[i]) {
      if (j == i) {
        diag = v;
      } else if (j > i) {
        acc -= v * x[j];
      }
    }
    x[i] = acc / diag;
  }
  return x;
}

void SparseLuFactorizer::factor(const SparseMatrix& a) {
  if (loadValues(a)) {
    if (refactorNumeric()) {
      ++numericRefactorizations_;
      return;
    }
    ++pivotFallbacks_;
  }
  factorFull(a);
}

void SparseLuFactorizer::factor(const CsrView& a) {
  if (loadValues(a)) {
    if (refactorNumeric()) {
      ++numericRefactorizations_;
      return;
    }
    ++pivotFallbacks_;
  }
  // Full symbolic pass: copy the CSR entries (explicit zeros included, so
  // the harvested origCols_ pattern matches the view exactly and the next
  // loadValues(CsrView) takes the fast path) into the row-map form the
  // symbolic factorization works on.  This runs once per pattern — and
  // again only on pivot drift.
  SparseMatrix rowMap(a.n);
  for (std::size_t r = 0; r < a.n; ++r) {
    for (std::size_t p = a.rowPtr[r]; p < a.rowPtr[r + 1]; ++p) {
      rowMap.add(r, a.colIdx[p], a.values[p]);
    }
  }
  factorFull(rowMap);
}

bool SparseLuFactorizer::loadValues(const SparseMatrix& a) {
  if (!structureValid_ || a.size() != n_) return false;
  for (std::size_t r = 0; r < n_; ++r) {
    const auto& row = a.row(r);
    if (row.size() != origCols_[r].size()) return false;
    auto& v = vals_[r];
    std::fill(v.begin(), v.end(), 0.0);
    std::size_t q = 0;
    for (const auto& [c, val] : row) {
      if (origCols_[r][q] != c) return false;
      v[origPos_[r][q]] = val;
      ++q;
    }
  }
  return true;
}

bool SparseLuFactorizer::loadValues(const CsrView& a) {
  if (!structureValid_ || a.n != n_) return false;
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t begin = a.rowPtr[r];
    const std::size_t count = a.rowPtr[r + 1] - begin;
    const auto& cols = origCols_[r];
    if (count != cols.size()) return false;
    auto& v = vals_[r];
    std::fill(v.begin(), v.end(), 0.0);
    const auto& pos = origPos_[r];
    for (std::size_t q = 0; q < count; ++q) {
      if (a.colIdx[begin + q] != cols[q]) return false;
      v[pos[q]] = a.values[begin + q];
    }
  }
  return true;
}

bool SparseLuFactorizer::refactorNumeric() {
  // Replays the elimination of factorFull() on the cached fill pattern.
  // The pivot *search* is identical (largest magnitude in column k among
  // remaining rows, first-wins ties, same scan order), so whenever the
  // search agrees with the cached pivot sequence the arithmetic — values
  // and evaluation order both — matches a fresh factorization exactly.
  // Cached fill slots that a fresh run has not created yet hold 0.0 and
  // are inert: a zero can never win the pivot scan, a zero multiplier
  // skips its update loop, and zero update terms do not change values.
  rowOfScratch_.resize(n_);
  std::vector<std::size_t>& rowOf = rowOfScratch_;
  for (std::size_t i = 0; i < n_; ++i) rowOf[i] = i;

  const auto findCol = [this](std::size_t r, std::size_t c) -> std::ptrdiff_t {
    const auto& cols = fullCols_[r];
    const auto it = std::lower_bound(cols.begin(), cols.end(), c);
    if (it == cols.end() || *it != c) return -1;
    return it - cols.begin();
  };

  for (std::size_t k = 0; k < n_; ++k) {
    std::size_t best = n_;
    double bestMag = 0.0;
    for (std::size_t i = k; i < n_; ++i) {
      const std::ptrdiff_t p = findCol(rowOf[i], k);
      if (p < 0) continue;
      const double mag = std::abs(vals_[rowOf[i]][static_cast<std::size_t>(p)]);
      if (mag > bestMag) {
        bestMag = mag;
        best = i;
      }
    }
    if (best == n_ || bestMag < 1e-300) {
      // Cached fill entries are explicit zeros and cannot be selected, so
      // a fresh factorization of this matrix is singular here too.
      factored_ = false;
      std::ostringstream os;
      os << "SparseLu: singular matrix at elimination step " << k << " of "
         << n_;
      throw NumericalError(os.str());
    }
    if (rowOf[best] != cachedPerm_[k]) return false;  // pivot drift
    std::swap(rowOf[k], rowOf[best]);
    const std::size_t prow = rowOf[k];
    const auto& pcols = fullCols_[prow];
    auto& pvals = vals_[prow];
    const std::size_t pk = static_cast<std::size_t>(findCol(prow, k));
    const double pivot = pvals[pk];

    for (std::size_t i = k + 1; i < n_; ++i) {
      const std::size_t r2 = rowOf[i];
      const std::ptrdiff_t pos = findCol(r2, k);
      if (pos < 0) continue;
      auto& rv = vals_[r2];
      const double factor = rv[static_cast<std::size_t>(pos)] / pivot;
      rv[static_cast<std::size_t>(pos)] = factor;  // now the L multiplier
      if (factor == 0.0) continue;
      const auto& rcols = fullCols_[r2];
      std::size_t ai = static_cast<std::size_t>(pos) + 1;
      for (std::size_t bi = pk + 1; bi < pcols.size(); ++bi) {
        const std::size_t c = pcols[bi];
        while (ai < rcols.size() && rcols[ai] < c) ++ai;
        if (ai >= rcols.size() || rcols[ai] != c) return false;  // bad cache
        rv[ai] -= factor * pvals[bi];
        ++ai;
      }
    }
  }
  perm_ = cachedPerm_;
  factored_ = true;
  return true;
}

void SparseLuFactorizer::factorFull(const SparseMatrix& a) {
  const std::size_t n = a.size();
  n_ = n;
  structureValid_ = false;
  factored_ = false;
  ++fullFactorizations_;

  // Same elimination as SparseLu's constructor, with the original pattern
  // recorded up front and the final fill pattern harvested afterwards.
  std::vector<std::map<std::size_t, double>> rows(n);
  for (std::size_t r = 0; r < n; ++r) rows[r] = a.row(r);
  std::vector<std::map<std::size_t, double>> lower(n);

  origCols_.assign(n, {});
  for (std::size_t r = 0; r < n; ++r) {
    origCols_[r].reserve(rows[r].size());
    for (const auto& [c, v] : rows[r]) origCols_[r].push_back(c);
  }

  std::vector<std::size_t> rowOf(n);
  for (std::size_t i = 0; i < n; ++i) rowOf[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t best = n;
    double bestMag = 0.0;
    for (std::size_t i = k; i < n; ++i) {
      const auto& row = rows[rowOf[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double mag = std::abs(it->second);
      if (mag > bestMag) {
        bestMag = mag;
        best = i;
      }
    }
    if (best == n || bestMag < 1e-300) {
      std::ostringstream os;
      os << "SparseLu: singular matrix at elimination step " << k << " of "
         << n;
      throw NumericalError(os.str());
    }
    std::swap(rowOf[k], rowOf[best]);
    const std::size_t prow = rowOf[k];
    const double pivot = rows[prow][k];
    for (std::size_t i = k + 1; i < n; ++i) {
      auto& row = rows[rowOf[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double factor = it->second / pivot;
      row.erase(it);
      lower[rowOf[i]][k] = factor;
      if (factor == 0.0) continue;
      const auto& urow = rows[prow];
      for (auto uit = urow.upper_bound(k); uit != urow.end(); ++uit) {
        row[uit->first] -= factor * uit->second;
      }
    }
  }
  perm_ = rowOf;
  cachedPerm_ = rowOf;

  // Harvest the in-place layout: row r keeps its L multipliers (columns
  // below its pivot position) followed by its U entries — both maps are
  // already sorted and L columns all precede U columns.
  fullCols_.assign(n, {});
  vals_.assign(n, {});
  origPos_.assign(n, {});
  for (std::size_t r = 0; r < n; ++r) {
    auto& cols = fullCols_[r];
    auto& v = vals_[r];
    cols.reserve(lower[r].size() + rows[r].size());
    v.reserve(cols.capacity());
    for (const auto& [c, val] : lower[r]) {
      cols.push_back(c);
      v.push_back(val);
    }
    for (const auto& [c, val] : rows[r]) {
      cols.push_back(c);
      v.push_back(val);
    }
    origPos_[r].resize(origCols_[r].size());
    std::size_t j = 0;
    for (std::size_t q = 0; q < origCols_[r].size(); ++q) {
      while (cols[j] != origCols_[r][q]) ++j;
      origPos_[r][q] = j;
    }
  }
  structureValid_ = true;
  factored_ = true;
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
  for (std::size_t i = 0; i < n_; ++i) x[i] = b[perm_[i]];
  // Forward substitution: row perm_[i] pivoted at position i, so its
  // entries at columns < i are the unit-lower multipliers.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = perm_[i];
    const auto& cols = fullCols_[r];
    const auto& v = vals_[r];
    double acc = x[i];
    for (std::size_t j = 0; j < cols.size() && cols[j] < i; ++j) {
      acc -= v[j] * x[cols[j]];
    }
    x[i] = acc;
  }
  // Backward substitution on U (columns >= i of row perm_[i]).
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t r = perm_[i];
    const auto& cols = fullCols_[r];
    const auto& v = vals_[r];
    double acc = x[i];
    double diag = 0.0;
    const std::size_t start = static_cast<std::size_t>(
        std::lower_bound(cols.begin(), cols.end(), i) - cols.begin());
    for (std::size_t j = start; j < cols.size(); ++j) {
      if (cols[j] == i) {
        diag = v[j];
      } else {
        acc -= v[j] * x[cols[j]];
      }
    }
    x[i] = acc / diag;
  }
}

void SparseLuFactorizer::solveMulti(std::span<const double> b,
                                    std::span<double> x,
                                    std::size_t nrhs) const {
  FEFET_REQUIRE(factored_,
                "SparseLuFactorizer::solveMulti called before factor()");
  FEFET_REQUIRE(b.size() == n_ * nrhs && x.size() == n_ * nrhs,
                "SparseLuFactorizer::solveMulti: size mismatch");
  for (std::size_t c = 0; c < nrhs; ++c) {
    for (std::size_t i = 0; i < n_; ++i) x[c * n_ + i] = b[c * n_ + perm_[i]];
  }
  // Forward substitution, blocked over columns: every (i, j) elimination
  // step is applied to all right-hand sides before moving on, so each
  // column sees the identical operation sequence as the scalar solve().
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = perm_[i];
    const auto& cols = fullCols_[r];
    const auto& v = vals_[r];
    for (std::size_t j = 0; j < cols.size() && cols[j] < i; ++j) {
      const double l = v[j];
      const std::size_t cj = cols[j];
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n_ + i] -= l * x[c * n_ + cj];
      }
    }
  }
  // Backward substitution on U.
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t r = perm_[i];
    const auto& cols = fullCols_[r];
    const auto& v = vals_[r];
    double diag = 0.0;
    const std::size_t start = static_cast<std::size_t>(
        std::lower_bound(cols.begin(), cols.end(), i) - cols.begin());
    for (std::size_t j = start; j < cols.size(); ++j) {
      if (cols[j] == i) {
        diag = v[j];
        continue;
      }
      const double u = v[j];
      const std::size_t cj = cols[j];
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n_ + i] -= u * x[c * n_ + cj];
      }
    }
    for (std::size_t c = 0; c < nrhs; ++c) x[c * n_ + i] /= diag;
  }
}

void LinearSolver::solve(const SparseMatrix& a, std::span<const double> b,
                         std::vector<double>& x, bool reuseStructure) {
  x.resize(n_);
  if (reuseStructure) {
    sparseFactor_.factor(a);
    sparseFactor_.solve(b, x);
    return;
  }
  SparseLu lu(a);
  x = lu.solve(b);
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
  if (reuseStructure) {
    sparseFactor_.factor(a);
    sparseFactor_.solve(b, x);
    return;
  }
  // A/B diagnostic path: factor from scratch every call through the
  // row-map SparseLu.
  SparseMatrix rowMap(a.n);
  for (std::size_t r = 0; r < a.n; ++r) {
    for (std::size_t p = a.rowPtr[r]; p < a.rowPtr[r + 1]; ++p) {
      rowMap.add(r, a.colIdx[p], a.values[p]);
    }
  }
  SparseLu lu(rowMap);
  x = lu.solve(b);
}

void LinearSolver::solveMulti(const CsrView& a, std::span<const double> b,
                              std::vector<double>& x, std::size_t nrhs,
                              bool reuseStructure) {
  x.resize(n_ * nrhs);
  if (reuseStructure) {
    sparseFactor_.factor(a);
    sparseFactor_.solveMulti(b, x, nrhs);
    return;
  }
  // Diagnostic path: one fresh factorization, column-at-a-time solves —
  // still factor-once, matching the scalar no-reuse path per column.
  SparseMatrix rowMap(a.n);
  for (std::size_t r = 0; r < a.n; ++r) {
    for (std::size_t p = a.rowPtr[r]; p < a.rowPtr[r + 1]; ++p) {
      rowMap.add(r, a.colIdx[p], a.values[p]);
    }
  }
  SparseLu lu(rowMap);
  for (std::size_t c = 0; c < nrhs; ++c) {
    const std::vector<double> col = lu.solve(b.subspan(c * n_, n_));
    std::copy(col.begin(), col.end(), x.begin() + static_cast<std::ptrdiff_t>(c * n_));
  }
}

void LinearSolver::solveMulti(std::span<const double> rowMajor,
                              std::span<const double> b,
                              std::vector<double>& x, std::size_t nrhs) {
  x.resize(n_ * nrhs);
  denseFactor_.factor(n_, rowMajor);
  denseFactor_.solveMulti(b, x, nrhs);
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
