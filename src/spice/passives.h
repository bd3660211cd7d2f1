// passives.h — linear resistor and capacitor.
#pragma once

#include <functional>

#include "spice/device.h"

namespace fefet::spice {

/// Linear resistor between two nodes.
class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance);

  void stamp(const EvalContext& ctx) override;
  double resistance() const { return resistance_; }
  double current(const SystemView& view) const;

 private:
  NodeId a_, b_;
  double resistance_;
};

/// Linear capacitor between two nodes (companion-model transient; open in
/// DC).  Supports an initial voltage for UIC starts.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);

  void stamp(const EvalContext& ctx) override;
  void initializeState(const SystemView& view) override;
  void commitStep(const SystemView& view, double time, double dt,
                  IntegrationMethod method) override;
  std::vector<DeviceState> reportState(const SystemView& view) const override;

  double capacitance() const { return capacitance_; }

 private:
  NodeId a_, b_;
  double capacitance_;
  ChargeIntegrator charge_;
};

/// Time-scheduled ideal switch: a resistor whose value is Ron while the
/// control shape exceeds 0.5 and Roff otherwise.  Used to float bit lines
/// (FERAM charge-share read) and gate pre-charge pulses without adding
/// transistors to every test circuit.
class TimedSwitch final : public Device {
 public:
  using Control = std::function<double(double)>;

  TimedSwitch(std::string name, NodeId a, NodeId b, Control control,
              double ron = 100.0, double roff = 1e12);

  void stamp(const EvalContext& ctx) override;
  void setControl(Control control) { control_ = std::move(control); }

 private:
  NodeId a_, b_;
  Control control_;
  double ron_, roff_;
};

}  // namespace fefet::spice
