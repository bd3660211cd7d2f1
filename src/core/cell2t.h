// cell2t.h — the paper's 2-transistor FEFET memory cell (Fig. 5/6/7).
//
//   write path:  WBL --[access NMOS, gate=WS]-- G --[FE]-- internal -- MOS
//   read path:   RS (drain) -- FEFET channel -- SL (source, sense line)
//
// Write: WS boosted, WBL = +/-V_write switches the FE polarization.
// Read:  WS = VDD with WBL = 0 (grounds the FEFET gate), RS = V_read on the
//        drain, current on SL identifies the bit.  Hold: everything at 0 V.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/bias_scheme.h"
#include "core/fault_model.h"
#include "core/fefet.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct Cell2TConfig {
  FefetParams fefet;
  xtor::MosParams accessMos = xtor::nmos45();
  double accessWidth = 65e-9;
  BiasLevels levels;
  double edgeTime = 20e-12;     ///< source rise/fall time
  double settleTime = 300e-12;  ///< post-pulse settling (write recovery)
  /// Injected faults; the cell draws its fault class as cell (0, 0) of the
  /// fault map (all-zero rates = healthy cell).
  FaultSpec faults;
  /// Solver options for the cell's simulator (Newton tolerances, LU
  /// structure reuse).
  spice::NewtonOptions newton;
};

/// Result of one cell operation.
struct CellOpResult {
  spice::Waveform waveform;
  bool bitAfter = false;           ///< classified stored bit after the op
  double finalPolarization = 0.0;  ///< committed P [C/m^2]
  double writeLatency = -1.0;      ///< P threshold crossing time (writes) [s]
  double readCurrent = 0.0;        ///< plateau drain current (reads) [A]
  std::map<std::string, double> sourceEnergy;  ///< per-source energy [J]
  double totalEnergy = 0.0;                    ///< sum over sources [J]
  bool faultInjected = false;      ///< a fault event altered this op
};

/// A simulatable 2T cell with persistent state across operations.
class Cell2T {
 public:
  explicit Cell2T(const Cell2TConfig& config);

  /// Force the stored state (quasi-static target polarization + internal
  /// node voltage), bypassing a write.
  void setStoredBit(bool one);
  bool storedBit() const;
  double polarization() const { return fefet_.fe->polarization(); }

  /// Apply a write pulse of the given width at the configured V_write.
  /// `voltageOverride` (if set) replaces the bit-line magnitude.
  CellOpResult write(bool one, double pulseWidth,
                     std::optional<double> voltageOverride = {});

  /// Current-sensed read (non-destructive).  `duration` covers select
  /// assertion and the sampling plateau.
  CellOpResult read(double duration = 2e-9);

  /// Hold with all lines grounded.
  CellOpResult hold(double duration);

  /// Smallest pulse width that reliably writes the target bit at the given
  /// bit-line voltage (bisection; the paper's "write access time").
  /// Returns a negative value when even `maxPulse` fails.
  double minimumWritePulse(bool one, double vWrite, double maxPulse = 4e-9,
                           double resolution = 5e-12);

  /// Quasi-static target polarizations of the two states at V_G = 0.
  double onPolarization() const { return pOn_; }
  double offPolarization() const { return pOff_; }

  /// Injected fault class of this cell.
  CellFault fault() const { return fault_; }

  const Cell2TConfig& config() const { return config_; }
  spice::Simulator& simulator() { return *sim_; }
  const FefetInstance& fefetInstance() const { return fefet_; }

 private:
  CellOpResult runOp(double duration, bool isWrite);
  void resetSourceEnergies();

  Cell2TConfig config_;
  FaultInjector injector_;
  CellFault fault_ = CellFault::kNone;
  spice::Netlist netlist_;
  FefetInstance fefet_;
  spice::VoltageSource* vWbl_ = nullptr;
  spice::VoltageSource* vWs_ = nullptr;
  spice::VoltageSource* vRs_ = nullptr;
  spice::VoltageSource* vSl_ = nullptr;
  std::unique_ptr<spice::Simulator> sim_;
  double pOn_ = 0.0;
  double pOff_ = 0.0;
  double pSaddle_ = 0.0;  ///< basin boundary: P of the unstable equilibrium
  double psiOn_ = 0.0;
  double psiOff_ = 0.0;
};

}  // namespace fefet::core
