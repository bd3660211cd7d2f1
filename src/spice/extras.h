// extras.h — additional circuit devices rounding out the substrate:
// diode, inductor, and the linear controlled sources (VCVS, VCCS).
// None are required by the headline experiments, but they make the
// simulator a complete general-purpose tool (and the diode exercises the
// Newton damping on a second exponential nonlinearity).
#pragma once

#include "spice/device.h"

namespace fefet::spice {

/// Junction diode: i = Is (exp(v/(n Vt)) - 1), with a series conductance
/// limit to keep Newton iterations bounded.
class Diode final : public Device {
 public:
  struct Params {
    double saturationCurrent = 1e-14;  ///< Is [A]
    double idealityFactor = 1.0;       ///< n
    double temperature = 300.0;        ///< [K]
  };

  Diode(std::string name, NodeId anode, NodeId cathode, Params params);
  Diode(std::string name, NodeId anode, NodeId cathode)
      : Diode(std::move(name), anode, cathode, Params{}) {}

  void stamp(const EvalContext& ctx) override;
  std::vector<DeviceState> reportState(const SystemView& view) const override;

  /// Diode current at a given junction voltage.
  double currentAt(double v) const;

 private:
  NodeId anode_, cathode_;
  Params params_;
};

/// Linear inductor (companion model; short in DC).
class Inductor final : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double inductance);

  void setup(SetupContext& ctx) override;
  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  std::vector<DeviceState> reportState(const SystemView& view) const override;

 private:
  NodeId a_, b_;
  double inductance_;
  int auxRow_ = -1;       ///< branch current unknown
  double iPrev_ = 0.0;    ///< committed branch current
  double vPrev_ = 0.0;    ///< committed branch voltage (for trapezoidal)
};

/// Voltage-controlled voltage source: v(out+) - v(out-) = gain * v(c+, c-).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, NodeId outPlus, NodeId outMinus, NodeId ctrlPlus,
       NodeId ctrlMinus, double gain);

  void setup(SetupContext& ctx) override;
  void stamp(const EvalContext& ctx) override;

 private:
  NodeId op_, om_, cp_, cm_;
  double gain_;
  int auxRow_ = -1;
};

/// Voltage-controlled current source: i(out+ -> out-) = gm * v(c+, c-).
class Vccs final : public Device {
 public:
  Vccs(std::string name, NodeId outPlus, NodeId outMinus, NodeId ctrlPlus,
       NodeId ctrlMinus, double transconductance);

  void stamp(const EvalContext& ctx) override;

 private:
  NodeId op_, om_, cp_, cm_;
  double gm_;
};

}  // namespace fefet::spice
