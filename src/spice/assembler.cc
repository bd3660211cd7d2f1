#include "spice/assembler.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace fefet::spice {

namespace {

/// Assembly-rate telemetry.  Deliberately counter-only — no clock reads
/// inside assemble(): bench_assembly times this code directly, and the
/// observability budget caps telemetry overhead there at 2%.
struct AssemblerTelemetry {
  obs::Counter& assemblies;
  obs::Counter& stamps;
  obs::Counter& patternReuseHits;
};

AssemblerTelemetry& assemblerTelemetry() {
  static AssemblerTelemetry t{
      obs::Metrics::counter("fefet.assembler.assemblies"),
      obs::Metrics::counter("fefet.assembler.stamps"),
      obs::Metrics::counter("fefet.assembler.pattern_reuse_hits")};
  return t;
}

}  // namespace

void StampBuffer::throwSlotOverrun(int row, int col) const {
  std::ostringstream os;
  os << "compiled stamp pipeline: device emitted more Jacobian entries than "
        "recorded (next call at row "
     << row << ", col " << col
     << ") — a device's stamp sequence must be a fixed function of "
        "(dc, method) for a frozen netlist";
  throw NumericalError(os.str());
}

Assembler::Assembler(const StampPattern& pattern, bool useSparse)
    : pattern_(pattern),
      sparseStorage_(useSparse),
      n_(pattern.unknowns()),
      values_(1 + pattern.nonZeros(), 0.0),
      residual_(1 + static_cast<std::size_t>(n_), 0.0),
      rowScale_(1 + static_cast<std::size_t>(n_), 0.0),
      rhs_(static_cast<std::size_t>(n_), 0.0),
      solver_(static_cast<std::size_t>(n_), useSparse) {
  FEFET_REQUIRE(n_ > 0, "MNA system needs at least one unknown");
  if (!sparseStorage_) {
    dense_.assign(1 + static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
                  0.0);
  }
  // Compile the per-mode slot programs: CSR position + 1 per recorded
  // call, ground entries to the trash slot 0.
  for (int m = 0; m < kStampModeCount; ++m) {
    const auto& calls = pattern_.jacobianCalls(static_cast<StampMode>(m));
    auto& slots = slots_[m];
    slots.reserve(calls.size());
    for (const StampEntry& e : calls) {
      const std::size_t idx = pattern_.csrIndex(e.row, e.col);
      slots.push_back(idx == StampPattern::npos ? 0 : idx + 1);
    }
  }
  diagSlots_.reserve(pattern_.nodeDiagonals().size());
  for (const std::size_t idx : pattern_.nodeDiagonals()) {
    diagSlots_.push_back(idx + 1);
  }
}

void Assembler::assemble(const Netlist& netlist, const SystemView& view,
                         bool dc, double time, double dt,
                         IntegrationMethod method, double gmin, bool) {
  const auto& devices = netlist.devices();
  FEFET_REQUIRE(devices.size() == pattern_.deviceCount(),
                "compiled stamp pipeline: netlist device list changed after "
                "the pattern was recorded");
  const int m = static_cast<int>(stampModeFor(dc, method));
  const auto& slots = slots_[m];
  const auto& ends = pattern_.deviceJacobianEnds(static_cast<StampMode>(m));

  std::fill(values_.begin(), values_.end(), 0.0);
  std::fill(residual_.begin(), residual_.end(), 0.0);
  std::fill(rowScale_.begin(), rowScale_.end(), 0.0);

  buffer_.values_ = values_.data();
  buffer_.residual_ = residual_.data();
  buffer_.rowScale_ = rowScale_.data();
  buffer_.slotBegin_ = slots.data();
  buffer_.slotCursor_ = slots.data();
  buffer_.slotEnd_ = slots.data() + slots.size();

  EvalContext ctx{view, dc, time, dt, method, gmin, &buffer_, nullptr};
  for (std::size_t i = 0; i < devices.size(); ++i) {
    devices[i]->stamp(ctx);
    if (buffer_.jacobianCalls() != ends[i]) {
      std::ostringstream os;
      os << "compiled stamp pipeline: device '" << devices[i]->name()
         << "' emitted "
         << buffer_.jacobianCalls() - (i > 0 ? ends[i - 1] : 0)
         << " Jacobian entries but the recorded pattern has "
         << ends[i] - (i > 0 ? ends[i - 1] : 0)
         << " — stamp sequences must be a fixed function of (dc, method)";
      throw NumericalError(os.str());
    }
  }

  if (obs::Metrics::enabled()) {
    AssemblerTelemetry& t = assemblerTelemetry();
    t.assemblies.increment();
    t.stamps.add(devices.size());
    if (modeUsed_[static_cast<std::size_t>(m)]) t.patternReuseHits.increment();
  }
  modeUsed_[static_cast<std::size_t>(m)] = true;

  // gmin regularization, same ordering as MnaSystem::addGmin: after the
  // device loop, residual through the same accumulation (so the row scale
  // sees the gmin current), diagonal through the precompiled slots.
  if (gmin > 0.0) {
    const int nodes = pattern_.nodeCount();
    for (int row = 0; row < nodes; ++row) {
      const double v = view.nodeVoltage(row + 1);
      buffer_.addResidual(row, gmin * v);
      values_[diagSlots_[static_cast<std::size_t>(row)]] += gmin;
    }
  }
}

void Assembler::solveForUpdate(std::vector<double>& dx,
                               bool reuseLuStructure) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const double* res = residual_.data() + 1;
  for (std::size_t i = 0; i < n; ++i) rhs_[i] = -res[i];

  if (sparseStorage_) {
    solver_.solve(csr(), rhs_, dx, reuseLuStructure);
    return;
  }
  // Dense: scatter the CSR accumulation into the row-major scratch.  The
  // values were accumulated in the same order as MnaSystem's direct dense
  // stamping, so the matrix is bit-identical to the oracle's.
  std::fill(dense_.begin(), dense_.end(), 0.0);
  const auto& rowPtr = pattern_.rowPtr();
  const auto& colIdx = pattern_.colIdx();
  double* a = dense_.data() + 1;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      a[r * n + colIdx[p]] = values_[p + 1];
    }
  }
  solver_.solve(std::span<const double>(a, n * n), rhs_, dx);
}

std::span<const double> Assembler::denseValues() const {
  FEFET_REQUIRE(!sparseStorage_,
                "Assembler::denseValues: sparse storage active");
  return {dense_.data() + 1,
          static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_)};
}

}  // namespace fefet::spice
