#include "spice/mna.h"

#include <cmath>

#include "common/error.h"

namespace fefet::spice {

MnaSystem::MnaSystem(int unknowns, bool useSparse)
    : n_(unknowns),
      useSparse_(useSparse),
      solver_(static_cast<std::size_t>(unknowns), useSparse),
      residual_(static_cast<std::size_t>(unknowns), 0.0),
      rowScale_(static_cast<std::size_t>(unknowns), 0.0),
      rhs_(static_cast<std::size_t>(unknowns), 0.0) {
  FEFET_REQUIRE(unknowns > 0, "MNA system needs at least one unknown");
  if (useSparse_) {
    sparseM_ = linalg::SparseMatrix(static_cast<std::size_t>(unknowns));
  } else {
    dense_ = linalg::DenseMatrix(static_cast<std::size_t>(unknowns),
                                 static_cast<std::size_t>(unknowns));
  }
}

void MnaSystem::clear() {
  std::fill(residual_.begin(), residual_.end(), 0.0);
  std::fill(rowScale_.begin(), rowScale_.end(), 0.0);
  if (useSparse_) {
    // Keep the map nodes so re-stamping the same circuit reuses them and
    // the factorizer sees a stable pattern; stale positions hold an
    // explicit 0.0, which is numerically inert in the LU.
    sparseM_.setZeroKeepStructure();
  } else {
    dense_.setZero();
  }
}

void MnaSystem::addResidual(int row, double value) {
  if (row < 0) return;  // ground
  residual_[static_cast<std::size_t>(row)] += value;
  rowScale_[static_cast<std::size_t>(row)] += std::abs(value);
}

void MnaSystem::addJacobian(int row, int col, double value) {
  if (row < 0 || col < 0) return;  // ground
  if (value == 0.0) return;
  if (useSparse_) {
    sparseM_.add(static_cast<std::size_t>(row), static_cast<std::size_t>(col),
                 value);
  } else {
    dense_.at(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) +=
        value;
  }
}

void MnaSystem::addGmin(double gmin, const SystemView& view, int nodeCount) {
  if (gmin <= 0.0) return;
  for (int row = 0; row < nodeCount; ++row) {
    const double v = view.nodeVoltage(row + 1);
    // Through addResidual, not residual_ directly: the row-scale that the
    // relative residual convergence test divides by must include the gmin
    // current, otherwise escalated gmin injects residual that the scaled
    // check never accounts for.
    addResidual(row, gmin * v);
    addJacobian(row, row, gmin);
  }
}

void MnaSystem::solveForUpdate(std::vector<double>& dx) {
  for (std::size_t i = 0; i < rhs_.size(); ++i) rhs_[i] = -residual_[i];
  if (useSparse_) {
    solver_.solve(sparseM_, rhs_, dx);
    return;
  }
  solver_.solve(dense_, rhs_, dx);
}

}  // namespace fefet::spice
