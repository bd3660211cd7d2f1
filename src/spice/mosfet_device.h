// mosfet_device.h — circuit-level MOSFET wrapping xtor::MosfetModel.
//
// Stamps the nonlinear channel current with analytic partials and four
// charge elements: the intrinsic gate-channel charge (lumped gate-source),
// the two overlap capacitances and the source/drain junction capacitances
// to ground.  A small gate leakage conductance gives internal gate nodes a
// DC path (needed for FEFET internal nodes).
#pragma once

#include "spice/device.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {

class MosfetDevice final : public Device {
 public:
  MosfetDevice(std::string name, NodeId drain, NodeId gate, NodeId source,
               const xtor::MosParams& params, double width,
               double gateLeak = 1e-12);

  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  std::vector<DeviceState> reportState(const SystemView& view) const override;

  const xtor::MosfetModel& model() const { return model_; }
  double drainCurrent(const SystemView& view) const;

 private:
  double channelCharge(const SystemView& view) const;

  NodeId drain_, gate_, source_;
  xtor::MosfetModel model_;
  double gateLeak_;
  double overlapCap_;   ///< per side [F]
  double junctionCap_;  ///< per S/D terminal [F]
  ChargeIntegrator chanCharge_;  // gate <-> source (intrinsic)
  ChargeIntegrator ovlGd_;       // gate <-> drain overlap
  ChargeIntegrator ovlGs_;       // gate <-> source overlap
  ChargeIntegrator junD_;        // drain <-> ground
  ChargeIntegrator junS_;        // source <-> ground
};

}  // namespace fefet::spice
