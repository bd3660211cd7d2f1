// fecap_device.h — circuit-level ferroelectric capacitor governed by the
// time-dependent LK equation (paper eq. 1).
//
// The polarization P is an auxiliary MNA unknown with constraint equation
//
//     v(a) - v(b) = t_FE * ( E_s(P) + rho * dP/dt )
//
// and terminal current  i = A * dP/dt  (plus an optional linear background
// dielectric).  dP/dt is discretized with the step's companion form, so the
// LK dynamics integrate implicitly together with the circuit — this is the
// key piece that lets the same solver run FERAM cells and FEFET gate stacks.
//
// In DC the viscous term vanishes and the constraint becomes the static
// load-line equation; Newton converges to the solution in the basin of the
// committed polarization state, which is exactly the memory semantics.
#pragma once

#include "ferro/fe_capacitor.h"
#include "spice/device.h"

namespace fefet::spice {

class FeCapDevice final : public Device {
 public:
  /// `a` is the positive plate (field from a to b is positive for P > 0).
  /// `backgroundEpsR` adds a linear parallel dielectric of the same
  /// geometry (0 disables it).
  FeCapDevice(std::string name, NodeId a, NodeId b,
              const ferro::LkCoefficients& coefficients,
              const ferro::FeGeometry& geometry, double initialPolarization,
              double backgroundEpsR = 0.0);

  void setup(SetupContext& ctx) override;
  void seedUnknowns(std::vector<double>& x) const override;
  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  double maxStepHint(const SystemView& view) const override;
  std::vector<DeviceState> reportState(const SystemView& view) const override;

  /// Committed polarization state [C/m^2].
  double polarization() const { return pCommitted_; }
  /// Override the committed polarization (set the stored bit directly).
  void setPolarization(double p);

  const ferro::LandauKhalatnikov& lk() const { return lk_; }
  const ferro::FeGeometry& geometry() const { return geom_; }
  int auxRow() const { return auxRow_; }

 private:
  /// dP/dt and its dP-derivative factor for the current companion form.
  std::pair<double, double> rateFor(double p, const EvalContext& ctx) const;

  NodeId a_, b_;
  ferro::LandauKhalatnikov lk_;
  ferro::FeGeometry geom_;
  double backgroundCap_;
  int auxRow_ = -1;
  double pCommitted_;
  double rateCommitted_ = 0.0;  ///< dP/dt at the last commit (for TRAP)
  ChargeIntegrator background_;
};

}  // namespace fefet::spice
