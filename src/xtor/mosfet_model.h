// mosfet_model.h — EKV-style unified MOSFET compact model (45 nm class).
//
// The paper couples the LK ferroelectric model with a "45nm high
// performance transistor model" (PTM [14]).  We substitute an analytic
// charge-based compact model with the same qualitative anatomy:
//
//  * Drain current: EKV forward/reverse interpolation — exponential
//    subthreshold (slope n·phi_t·ln10 ≈ 90 mV/dec), square-law moderate
//    inversion, triode/saturation via the reverse term, channel-length
//    modulation, DIBL and mobility degradation with gate overdrive.
//
//  * Gate charge: a smooth areal density Q_G(v_g) combining an inversion
//    branch (threshold VT, slope factor n) and an accumulation branch
//    (flat-band VFB, slope factor n_acc).  Above each onset the charge
//    follows  v_over = Q/C_ox + kappa·Q²  — the quadratic "stiffening"
//    term models the finite inversion-layer density of states /
//    poly-depletion-like reduction of gate capacitance at high charge.
//
// kappa and C_ox are the two knobs that, together with the paper's LK
// coefficients, reproduce the paper's device-level behaviour (see
// DESIGN.md §5): no hysteresis at T_FE = 1 nm, volatile hysteresis at
// 1.9 nm, a ~0.5 V nonvolatile window at 2.25 nm, and ~10^6 on/off ratio.
#pragma once

#include <string>

namespace fefet::xtor {

enum class MosType { kNmos, kPmos };

/// Process card of one transistor flavour.  All quantities SI; voltages of
/// the PMOS card are specified as positive magnitudes and mirrored
/// internally.
struct MosParams {
  MosType type = MosType::kNmos;
  double vt0 = 0.40;           ///< threshold voltage [V]
  double slopeFactor = 1.5;    ///< subthreshold slope factor n
  double vfb = -0.90;          ///< flat-band voltage [V] (accumulation onset)
  double accSlopeFactor = 1.0; ///< accumulation branch slope factor
  double cox = 1.0 / 9.2;      ///< oxide capacitance per area [F/m^2]
  double chargeStiffening = 5.0; ///< kappa [V·m^4/C^2], see header comment
  double mobility = 9.1e-3;    ///< low-field effective mobility [m^2/Vs]
  double mobilityTheta = 2.0;  ///< mobility degradation theta [1/V]
  double lambda = 0.15;        ///< channel-length modulation [1/V]
  double dibl = 0.04;          ///< DIBL coefficient [V/V]
  double length = 45e-9;       ///< drawn channel length [m]
  double temperature = 300.0;  ///< [K]
  double overlapCapPerWidth = 0.25e-15 / 1e-6;  ///< G-S/G-D overlap [F/m]
  double junctionCapPerWidth = 0.60e-15 / 1e-6; ///< S/D junction [F/m]
};

/// Small-signal/large-signal evaluation bundle for one bias point.
struct MosOperatingPoint {
  double ids = 0.0;  ///< drain-to-source current [A] (positive into drain)
  double gm = 0.0;   ///< dIds/dVgs [S]
  double gds = 0.0;  ///< dIds/dVds [S]
};

/// Analytic 45nm-class transistor.  Stateless: all methods are const and
/// take terminal voltages; instances are cheap to copy.
class MosfetModel {
 public:
  MosfetModel(const MosParams& params, double width);

  const MosParams& params() const { return params_; }
  double width() const { return width_; }
  double gateArea() const { return width_ * params_.length; }
  double thermalVoltage() const;

  /// Drain current and derivatives.  Voltages are absolute node voltages of
  /// drain, gate, source; the model handles source/drain swap (Vds < 0) and
  /// PMOS mirroring internally.
  MosOperatingPoint evaluate(double vd, double vg, double vs) const;

  /// Convenience: just the current.
  double idsAt(double vd, double vg, double vs) const;

  // --- Gate charge model (areal, NMOS convention) ---------------------

  /// Areal gate charge density [C/m^2] for an intrinsic gate-to-channel
  /// voltage (channel referenced to source).  Strictly increasing.
  double gateChargeDensity(double vgs) const;

  /// d(gateChargeDensity)/dVgs [F/m^2].
  double gateCapacitanceDensity(double vgs) const;

  /// Inverse of gateChargeDensity: the gate voltage required to hold areal
  /// charge density q.  Used for load-line analysis.  Solved with Brent.
  double gateVoltageForCharge(double q) const;

  /// Total gate charge [C] (areal x gate area) plus overlap contributions.
  double totalGateCharge(double vg, double vd, double vs) const;

  /// Threshold voltage including DIBL at the given Vds.
  double effectiveThreshold(double vds) const;

  /// Name for diagnostics.
  std::string describe() const;

 private:
  /// Charge of one branch: overdrive -> density via the stiffened quadratic.
  double branchCharge(double overdrive) const;
  double branchCapacitance(double overdrive, double logisticFactor) const;
  /// NMOS-space charge density (PMOS callers mirror the argument).
  double gateChargeDensityMirror(double vgs) const;

  MosParams params_;
  double width_;
};

/// 45nm-class NMOS card used throughout the paper reproduction.
MosParams nmos45();
/// Matched PMOS card (mirrored, ~0.45x drive).
MosParams pmos45();

}  // namespace fefet::xtor
