// mna.h — per-entry virtual-dispatch assembly of the MNA Jacobian/residual.
//
// Small systems use dense LU; larger systems (memory arrays) assemble into
// a row-map SparseMatrix that is converted to CSR for the sparse LU — both
// behind the common linalg::LinearSolver facade.
// The assembler also tracks a per-row magnitude scale (sum of |residual
// contributions|) so Newton can test convergence relative to the size of
// the currents actually flowing in each node.
//
// This is not on the Newton path: NewtonSolver assembles only through the
// compiled stamp pipeline (stamp_pattern.h + assembler.h).  MnaSystem is
// the matrix-level oracle that the stamp-parity tests and bench_assembly
// compare the compiled Jacobian/residual against, entry for entry.
#pragma once

#include <vector>

#include "common/linalg.h"
#include "spice/device.h"

namespace fefet::spice {

/// One assembled Newton iteration system.
class MnaSystem final : public Stamper {
 public:
  explicit MnaSystem(int unknowns, bool useSparse);

  void clear();

  void addResidual(int row, double value) override;
  void addJacobian(int row, int col, double value) override;

  /// Add gmin leakage to ground on every node row (regularization).
  /// Contributions go through addResidual so the per-row convergence
  /// scale sees them like any other device current.
  void addGmin(double gmin, const SystemView& view, int nodeCount);

  /// Solve J dx = -F into dx.  Throws NumericalError if singular.  The
  /// sparse path reuses the ordering and pivot sequence across solves
  /// (the MNA pattern of a frozen netlist is fixed).
  void solveForUpdate(std::vector<double>& dx);

  const std::vector<double>& residual() const { return residual_; }
  const std::vector<double>& rowScale() const { return rowScale_; }
  int size() const { return n_; }
  bool sparse() const { return useSparse_; }

  // Assembled-matrix access for the stamp-parity suite.
  const linalg::DenseMatrix& denseMatrix() const { return dense_; }
  const linalg::SparseMatrix& sparseMatrix() const { return sparseM_; }

 private:
  int n_;
  bool useSparse_;
  linalg::DenseMatrix dense_;
  linalg::SparseMatrix sparseM_;
  linalg::LinearSolver solver_;
  std::vector<double> residual_;
  std::vector<double> rowScale_;
  std::vector<double> rhs_;
};

}  // namespace fefet::spice
