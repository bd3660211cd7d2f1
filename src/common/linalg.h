// linalg.h — dense and sparse linear algebra for the MNA solver.
//
// DenseMatrix + LU with partial pivoting covers small circuits (cells,
// sense amplifiers).  A KLU-style sparse LU (fill-reducing ordering,
// Gilbert–Peierls factorization, value-only refactorization) covers memory
// arrays, where the MNA matrix is extremely sparse.  CsrView lets the
// compiled stamp pipeline hand its fixed-pattern slot storage to the
// factorizers without copying, and the LinearSolver facade at the bottom
// picks the right backend for a given size/assembly combination.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

namespace fefet::linalg {

/// Read-only compressed-sparse-row view of a square matrix whose storage
/// lives elsewhere (the compiled stamp pipeline's slot buffer).  rowPtr has
/// n + 1 entries; colIdx is ascending within each row; values parallels
/// colIdx.  Entries may hold explicit 0.0: the sparse LU keeps them in its
/// structural pattern, where they are numerically inert.
struct CsrView {
  std::size_t n = 0;
  std::span<const std::size_t> rowPtr;
  std::span<const std::size_t> colIdx;
  std::span<const double> values;
};

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void setZero();

  /// Raw row-major storage (size rows*cols).
  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  /// y = A x.
  std::vector<double> multiply(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

namespace detail {
/// In-place dense LU with partial pivoting: eliminates `lu`, records the
/// row permutation in `perm` (resized to n) and returns the max/min pivot
/// magnitude ratio.  Shared by DenseLu and DenseLuFactorizer so the two
/// produce bit-identical factors by construction.
double denseLuFactorInPlace(DenseMatrix& lu, std::vector<std::size_t>& perm);
/// Permute + forward/backward substitution with a factor from above.
void denseLuSolve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                  std::span<const double> b, std::span<double> x);
}  // namespace detail

/// LU factorization with partial pivoting of a square dense matrix.
/// Throws NumericalError when the matrix is numerically singular.
class DenseLu {
 public:
  explicit DenseLu(DenseMatrix a);

  /// Solve A x = b for x.
  std::vector<double> solve(std::span<const double> b) const;

  /// Largest pivot magnitude ratio encountered (diagnostic).
  double conditionEstimate() const { return pivotRatio_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  double pivotRatio_ = 0.0;
};

/// Dense LU with a reusable workspace: factor() copies the input into a
/// preallocated matrix and eliminates in place, so refactoring a
/// same-sized matrix performs no heap allocation.  Runs the same kernel as
/// DenseLu — results are bit-identical to constructing a fresh DenseLu.
class DenseLuFactorizer {
 public:
  /// Factor an n x n matrix given in row-major order.
  /// Throws NumericalError when the matrix is numerically singular.
  void factor(std::size_t n, std::span<const double> rowMajor);
  void factor(const DenseMatrix& a) { factor(a.rows(), a.data()); }

  /// Solve A x = b with the most recent factorization (x sized n).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve: b and x hold `nrhs` column-contiguous right-hand
  /// sides / solutions (column c occupies [c*n, (c+1)*n)).  The blocked
  /// substitution walks the factor once and applies every elimination step
  /// to all columns, so each column's arithmetic sequence — and therefore
  /// its IEEE result — is bit-identical to a scalar solve() of that column.
  void solveMulti(std::span<const double> b, std::span<double> x,
                  std::size_t nrhs) const;

  bool factored() const { return factored_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool factored_ = false;
  double pivotRatio_ = 0.0;
};

/// Owning compressed-sparse-row storage; view() hands it to the
/// factorizers as a CsrView.
struct CsrMatrix {
  std::size_t n = 0;
  std::vector<std::size_t> rowPtr;
  std::vector<std::size_t> colIdx;
  std::vector<double> values;

  CsrView view() const { return {n, rowPtr, colIdx, values}; }
};

/// Square sparse matrix stored as one std::map<col,double> per row.
/// Assembly-friendly (random add); the MnaSystem test oracle assembles
/// into it and solves through one CSR conversion (toCsr).
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(std::size_t n) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }

  void add(std::size_t r, std::size_t c, double v) { rows_[r][c] += v; }
  void setZero();

  /// Zero every stored value but keep the sparsity pattern (map nodes).
  /// Re-assembling the same circuit then touches existing nodes instead of
  /// re-allocating them, and the factorizer's pattern cache sees a stable
  /// pattern.  Entries that receive no contribution stay as explicit 0.0.
  void setZeroKeepStructure();

  const std::map<std::size_t, double>& row(std::size_t r) const {
    return rows_[r];
  }

  /// Write the matrix (explicit zeros included) into `out` as CSR,
  /// reusing out's capacity.
  void toCsr(CsrMatrix& out) const;

  std::vector<double> multiply(std::span<const double> x) const;
  std::size_t nonZeros() const;

 private:
  std::vector<std::map<std::size_t, double>> rows_;
};

/// Fill-reducing symmetric ordering by approximate minimum degree
/// (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 1996) on a quotient
/// graph with element absorption, supervariables and mass elimination.
/// `adjPtr`/`adj` give the adjacency of an undirected graph on n vertices
/// (CSR; self loops and duplicates are ignored, each edge may appear in
/// one or both directions).  Returns order[k] = vertex eliminated k-th.
std::vector<std::size_t> approximateMinimumDegree(
    std::size_t n, std::span<const std::size_t> adjPtr,
    std::span<const std::size_t> adj);

/// KLU-style sparse LU (Davis & Palamadai Natarajan, "Algorithm 907: KLU",
/// ACM TOMS 2010) for the fixed-pattern MNA Jacobians of a frozen netlist.
///
///  * Symbolic analysis, once per CSR pattern (the first factor() of a
///    pattern): an approximate-minimum-degree column ordering Q of A + Aᵀ
///    and the CSC layout of A(Q, Q) with its gather map into the CSR
///    values.
///  * Full factorization: Gilbert–Peierls left-looking LU (SIAM J. Sci.
///    Stat. Comput. 1988).  Each column runs a depth-first reach through
///    the L computed so far, a sparse triangular solve in that
///    topological order, and threshold partial pivoting that keeps the
///    diagonal when |diag| >= kPivotTolerance * column max.  Rows with a
///    structurally zero diagonal (MNA voltage-source branch rows) simply
///    pivot off the diagonal.
///  * Refactorization: a later factor() of the same pattern keeps the
///    pivot sequence and the L/U patterns and recomputes values only —
///    no search, no heap allocation.  Every pivot is re-checked against
///    the same threshold; if one falls below it, the matrix is factored
///    again with partial pivoting on the same ordering and the event
///    counts one pivotFallbacks().
///
/// Contract: a refactorization is bit-identical to a full factorization
/// of the same matrix that ends with the same pivot sequence — both apply
/// the same updates in the same (topological) order.
class SparseLuFactorizer {
 public:
  /// A candidate keeps the diagonal (or, on refactorization, its cached
  /// pivot) while |pivot| >= kPivotTolerance * max |candidate| in its column.
  static constexpr double kPivotTolerance = 1e-3;

  SparseLuFactorizer() = default;

  /// Factor `a`.  The first call for a pattern orders it and runs a full
  /// factorization; later calls with the same pattern refactor in place.
  /// Throws NumericalError (naming the elimination step) when the matrix
  /// is numerically singular.
  void factor(const CsrView& a);

  /// Drop the cached symbolic analysis: the next factor() orders the
  /// pattern afresh and runs a full factorization.
  void reset();

  /// Solve A x = b with the most recent factorization.
  std::vector<double> solve(std::span<const double> b) const;
  /// Allocation-free overload: x must be sized n and must not alias b.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve over `nrhs` column-contiguous right-hand sides (see
  /// DenseLuFactorizer::solveMulti).  One traversal of the factor serves
  /// all columns; per-column results are bit-identical to solve().
  void solveMulti(std::span<const double> b, std::span<double> x,
                  std::size_t nrhs) const;

  bool factored() const { return factored_; }

  /// Entries of the current factor: strictly-lower L plus U with its
  /// diagonal (L's unit diagonal is implicit).
  std::size_t nnzLu() const { return lIdx_.size() + uIdx_.size() + n_; }

  /// Diagnostics: full (pivot-searching) factorizations, value-only
  /// refactorizations, and refactorizations abandoned because a cached
  /// pivot fell below the threshold (each one also counts a full
  /// factorization).
  long fullFactorizations() const { return fullFactorizations_; }
  long numericRefactorizations() const { return numericRefactorizations_; }
  long pivotFallbacks() const { return pivotFallbacks_; }

 private:
  bool samePattern(const CsrView& a) const;
  void analyse(const CsrView& a);
  void factorFull(std::span<const double> values);
  bool refactor(std::span<const double> values);
  std::size_t reach(std::size_t root, std::size_t k, std::size_t top);

  std::size_t n_ = 0;
  bool analysed_ = false;
  bool factored_ = false;

  // Symbolic analysis.  B = A(order_, order_): B's row/column i is A's
  // row/column order_[i].  B is held column-wise: column k owns entries
  // [bColPtr_[k], bColPtr_[k+1]) with B row bRow_[p], whose value is
  // CsrView::values[bSrc_[p]].
  std::vector<std::size_t> patRowPtr_;  ///< the analysed CSR pattern
  std::vector<std::size_t> patColIdx_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> bColPtr_;
  std::vector<std::size_t> bRow_;
  std::vector<std::size_t> bSrc_;

  // Factor P·B = L·U.  Position k is the k-th pivot; the dense work and
  // solution vectors index position k at label order_[k], so a solve ends
  // in A's own unknown numbering with no final permutation.
  std::vector<std::size_t> pinv_;      ///< B row -> pivot position
  std::vector<std::size_t> lColPtr_;   ///< L column k: [lColPtr_[k], ..)
  std::vector<std::size_t> lIdx_;      ///< L row labels
  std::vector<double> lVal_;
  std::vector<std::size_t> uColPtr_;   ///< U column k, strictly upper part,
  std::vector<std::size_t> uIdx_;      ///< row positions in update order
  std::vector<double> uVal_;
  std::vector<double> uDiag_;
  std::vector<std::size_t> bLab_;      ///< label each B entry scatters to
  std::vector<std::size_t> rhsSrc_;    ///< b index feeding position k

  // Workspace (sized n at analysis; all-zero x_ between factorizations).
  std::vector<double> x_;
  std::vector<std::size_t> flag_;
  std::vector<std::size_t> pattern_;
  std::vector<std::size_t> stack_;
  std::vector<std::size_t> childPos_;

  long fullFactorizations_ = 0;
  long numericRefactorizations_ = 0;
  long pivotFallbacks_ = 0;
};

/// Facade unifying the direct solvers behind one interface: dense LU below
/// the crossover, sparse LU above it.  One instance owns the reusable
/// factorizers, so callers (the compiled Assembler and the MnaSystem test
/// oracle alike) get pattern caching and allocation-free refactorization
/// without knowing which backend runs.
class LinearSolver {
 public:
  LinearSolver(std::size_t n, bool sparse) : n_(n), sparse_(sparse) {}

  std::size_t size() const { return n_; }
  bool sparse() const { return sparse_; }

  /// Solve A x = b for row-map assembly (MnaSystem oracle): one CSR
  /// conversion, then the same sparse factorizer as the CSR overload.
  void solve(const SparseMatrix& a, std::span<const double> b,
             std::vector<double>& x);

  /// Solve A x = b for dense assembly.  The reusable-workspace dense LU
  /// is bit-identical to a fresh DenseLu and allocates nothing after the
  /// first call.
  void solve(const DenseMatrix& a, std::span<const double> b,
             std::vector<double>& x);
  /// Same, for an n x n row-major matrix in external storage.
  void solve(std::span<const double> rowMajor, std::span<const double> b,
             std::vector<double>& x);

  /// Solve A x = b for CSR assembly with external values (compiled path).
  /// With reuseStructure the ordering and pivot sequence carry over from
  /// the previous call and the steady state performs no heap allocation;
  /// without it the cached analysis is dropped first, so every call
  /// orders and factors from scratch (A/B diagnostics).
  void solve(const CsrView& a, std::span<const double> b,
             std::vector<double>& x, bool reuseStructure);

  /// Sparse-LU diagnostics (zeros on the dense path).
  const SparseLuFactorizer& sparseFactorizer() const { return sparseFactor_; }

 private:
  std::size_t n_;
  bool sparse_;
  SparseLuFactorizer sparseFactor_;
  DenseLuFactorizer denseFactor_;
  CsrMatrix csrScratch_;  ///< SparseMatrix -> CSR conversion target
};

/// Infinity norm of a vector.
double normInf(std::span<const double> v);

/// Euclidean norm of a vector.
double norm2(std::span<const double> v);

}  // namespace fefet::linalg
