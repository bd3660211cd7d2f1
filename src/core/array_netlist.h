// array_netlist.h — programmatic N x M FEFET array through the deck path.
//
// Where MemoryArray builds its netlist by direct device construction, this
// layer emits a SPICE deck — a `.subckt cell2t` definition plus an R x C
// grid of instances sharing word/bit/source lines — and parses it back
// through the `.subckt`-capable deck parser, exercising the exact path an
// external array deck would take.  Every transient is solved flat: one
// Newton system over the whole array, factored by the sparse LU.
//
// The electrical content matches MemoryArray cell for cell: a 2T cell is
// an access NMOS (drain = WBL, gate = WS, source = floating gate), the FE
// capacitor from the floating gate to the internal node, and the FEFET
// read transistor (drain = RS, gate = internal, source = SL) with zero
// overlap capacitance (see attachFefet's MFMIS rationale — the deck's
// COV=0 option replicates it).  Bias operations follow paper Table 1.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bias_scheme.h"
#include "core/fefet.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct ArrayNetlistConfig {
  int rows = 4;
  int cols = 4;
  /// Emitted FEFET knobs: width, mos.length, mos.vt0, feThickness, lk.rho
  /// (the deck's M/X cards expose those; other parameters must stay at
  /// their 45nm defaults to round-trip exactly).
  FefetParams fefet;
  xtor::MosParams accessMos = xtor::nmos45();
  double accessWidth = 65e-9;
  BiasLevels levels;
  double rowWireCapPerCell = 0.07e-15;
  double colWireCapPerCell = 0.06e-15;
  double edgeTime = 20e-12;
  double settleTime = 150e-12;
  double writePulse = 700e-12;
  double readCurrentThreshold = 1e-6;  ///< '1' classification level [A]
  bool negativeUnaccessedSelect = true;
  /// Solver configuration of the array's Newton solve.
  spice::NewtonOptions newton;
};

/// Result of one array operation (subset of MemoryArray's ArrayOpResult —
/// no fault machinery at this layer).
struct ArrayNetOpResult {
  bool ok = false;
  bool bitRead = false;
  double readCurrent = 0.0;           ///< accessed column current [A]
  double maxUnaccessedDisturb = 0.0;  ///< max |dP| on any unaccessed cell
  double maxSneakCurrent = 0.0;       ///< peak |I| on unaccessed SLs/RSs [A]
  double totalEnergy = 0.0;           ///< all line drivers [J]
  spice::TransientStats stats;        ///< the op's transient run
  spice::Waveform waveform;
};

/// The generated deck text (also what ArrayNetlist parses internally).
std::string emitArrayDeck(const ArrayNetlistConfig& config);

class ArrayNetlist {
 public:
  explicit ArrayNetlist(const ArrayNetlistConfig& config);

  int rows() const { return config_.rows; }
  int cols() const { return config_.cols; }
  const ArrayNetlistConfig& config() const { return config_; }

  spice::Netlist& netlist() { return netlist_; }
  spice::Simulator& simulator() { return *sim_; }

  /// Quasi-static state targets (same math as MemoryArray/Cell2T).
  double pOn() const { return pOn_; }
  double pOff() const { return pOff_; }
  double pSaddle() const { return pSaddle_; }

  void setPattern(const std::vector<std::vector<bool>>& bits);
  bool bitAt(int row, int col) const;
  std::vector<std::vector<double>> polarizations() const;

  ArrayNetOpResult writeBit(int row, int col, bool one);
  ArrayNetOpResult readBit(int row, int col);
  ArrayNetOpResult hold(double duration);

 private:
  ArrayNetOpResult runOp(double duration, int accessedRow, int accessedCol,
                         bool isRead);
  void groundAll();
  spice::FeCapDevice* fe(int row, int col) const {
    return fes_[static_cast<std::size_t>(row * config_.cols + col)];
  }

  ArrayNetlistConfig config_;
  spice::Netlist netlist_;
  std::vector<spice::VoltageSource*> wsSources_, rsSources_;
  std::vector<spice::VoltageSource*> wblSources_, slSources_;
  std::vector<spice::FeCapDevice*> fes_;        // row-major
  std::vector<std::string> internalNodes_;      // row-major
  std::unique_ptr<spice::Simulator> sim_;
  double pOn_ = 0.0, pOff_ = 0.0, pSaddle_ = 0.0, psiOn_ = 0.0, psiOff_ = 0.0;
};

}  // namespace fefet::core
