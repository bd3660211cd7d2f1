#include "core/array_netlist.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "common/math.h"
#include "spice/deck_parser.h"
#include "xtor/mosfet_model.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string emitArrayDeck(const ArrayNetlistConfig& config) {
  FEFET_REQUIRE(config.rows >= 1 && config.cols >= 1,
                "emitArrayDeck: array needs at least one cell");
  std::ostringstream deck;
  deck << "* " << config.rows << "x" << config.cols
       << " FEFET 2T array (paper Fig. 7 line organization)\n";
  deck << ".subckt cell2t wbl ws rs sl\n";
  deck << "Macc wbl ws fg nmos w=" << num(config.accessWidth)
       << " l=" << num(config.accessMos.length)
       << " vt=" << num(config.accessMos.vt0) << "\n";
  deck << "Xfe fg int fecap t=" << num(config.fefet.feThickness)
       << " w=" << num(config.fefet.width)
       << " l=" << num(config.fefet.mos.length)
       << " rho=" << num(config.fefet.lk.rho) << "\n";
  // COV=0: the internal MFMIS gate carries no explicit overlap parasitics
  // (see attachFefet).
  deck << "Mfet rs int sl nmos w=" << num(config.fefet.width)
       << " l=" << num(config.fefet.mos.length)
       << " vt=" << num(config.fefet.mos.vt0) << " cov=0\n";
  deck << ".ends\n";
  const double rowCap = config.rowWireCapPerCell * config.cols;
  const double colCap = config.colWireCapPerCell * config.rows;
  for (int r = 0; r < config.rows; ++r) {
    deck << "Vws" << r << " ws" << r << " 0 DC 0\n";
    deck << "Vrs" << r << " rs" << r << " 0 DC 0\n";
    deck << "Cws" << r << " ws" << r << " 0 " << num(rowCap) << "\n";
    deck << "Crs" << r << " rs" << r << " 0 " << num(rowCap) << "\n";
  }
  for (int c = 0; c < config.cols; ++c) {
    deck << "Vwbl" << c << " wbl" << c << " 0 DC 0\n";
    deck << "Vsl" << c << " sl" << c << " 0 DC 0\n";
    deck << "Cwbl" << c << " wbl" << c << " 0 " << num(colCap) << "\n";
    deck << "Csl" << c << " sl" << c << " 0 " << num(colCap) << "\n";
  }
  for (int r = 0; r < config.rows; ++r) {
    for (int c = 0; c < config.cols; ++c) {
      deck << "Xc" << r << "_" << c << " wbl" << c << " ws" << r << " rs"
           << r << " sl" << c << " cell2t\n";
    }
  }
  deck << ".end\n";
  return deck.str();
}

ArrayNetlist::ArrayNetlist(const ArrayNetlistConfig& config)
    : config_(config) {
  // Quasi-static state targets (same math as MemoryArray).
  const auto stable = stableInternalVoltages(config_.fefet, 0.0);
  FEFET_REQUIRE(stable.size() >= 2, "array requires a nonvolatile FEFET");
  psiOff_ = stable.front();
  for (double s : stable) {
    if (std::abs(s) < std::abs(psiOff_)) psiOff_ = s;
  }
  psiOn_ = *std::max_element(stable.begin(), stable.end());
  const xtor::MosfetModel mos(config_.fefet.mos, config_.fefet.width);
  pOn_ = mos.gateChargeDensity(psiOn_);
  pOff_ = mos.gateChargeDensity(psiOff_);
  const auto allEq = math::findAllRoots(
      [&](double psi) { return gateVoltageOfInternal(config_.fefet, psi); },
      psiOff_ + 1e-6, psiOn_ - 1e-6, 4000);
  pSaddle_ = allEq.empty() ? 0.5 * (pOn_ + pOff_)
                           : mos.gateChargeDensity(allEq.front());

  spice::parseDeckString(emitArrayDeck(config_), netlist_);

  for (int r = 0; r < config_.rows; ++r) {
    wsSources_.push_back(
        netlist_.get<spice::VoltageSource>("Vws" + std::to_string(r)));
    rsSources_.push_back(
        netlist_.get<spice::VoltageSource>("Vrs" + std::to_string(r)));
  }
  for (int c = 0; c < config_.cols; ++c) {
    wblSources_.push_back(
        netlist_.get<spice::VoltageSource>("Vwbl" + std::to_string(c)));
    slSources_.push_back(
        netlist_.get<spice::VoltageSource>("Vsl" + std::to_string(c)));
  }
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const std::string inst =
          "Xc" + std::to_string(r) + "_" + std::to_string(c);
      fes_.push_back(netlist_.get<spice::FeCapDevice>(inst + ":Xfe"));
      internalNodes_.push_back(inst + ":int");
    }
  }

  sim_ = std::make_unique<spice::Simulator>(netlist_, config_.newton);
  std::vector<std::vector<bool>> zeros(
      static_cast<std::size_t>(config_.rows),
      std::vector<bool>(static_cast<std::size_t>(config_.cols), false));
  setPattern(zeros);
}

void ArrayNetlist::setPattern(const std::vector<std::vector<bool>>& bits) {
  FEFET_REQUIRE(static_cast<int>(bits.size()) == config_.rows,
                "pattern row count mismatch");
  for (int r = 0; r < config_.rows; ++r) {
    FEFET_REQUIRE(static_cast<int>(bits[static_cast<std::size_t>(r)].size()) ==
                      config_.cols,
                  "pattern column count mismatch");
    for (int c = 0; c < config_.cols; ++c) {
      const bool one =
          bits[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      fe(r, c)->setPolarization(one ? pOn_ : pOff_);
      sim_->setNodeVoltage(
          internalNodes_[static_cast<std::size_t>(r * config_.cols + c)],
          one ? psiOn_ : psiOff_);
    }
  }
  sim_->initializeUic();
}

bool ArrayNetlist::bitAt(int row, int col) const {
  return fe(row, col)->polarization() > pSaddle_;
}

std::vector<std::vector<double>> ArrayNetlist::polarizations() const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(config_.rows));
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      out[static_cast<std::size_t>(r)].push_back(fe(r, c)->polarization());
    }
  }
  return out;
}

void ArrayNetlist::groundAll() {
  for (auto* s : wsSources_) s->setShape(dc(0.0));
  for (auto* s : rsSources_) s->setShape(dc(0.0));
  for (auto* s : wblSources_) s->setShape(dc(0.0));
  for (auto* s : slSources_) s->setShape(dc(0.0));
}

ArrayNetOpResult ArrayNetlist::runOp(double duration, int accessedRow,
                                     int accessedCol, bool isRead) {
  const auto before = polarizations();
  for (auto* s : wsSources_) s->resetEnergy();
  for (auto* s : rsSources_) s->resetEnergy();
  for (auto* s : wblSources_) s->resetEnergy();
  for (auto* s : slSources_) s->resetEnergy();

  spice::TransientOptions options;
  options.duration = duration;
  options.dtMax = duration / 150.0;
  options.dtInitial = std::min(1e-12, options.dtMax);

  std::vector<Probe> probes;
  for (int c = 0; c < config_.cols; ++c) {
    probes.push_back(Probe::i("Vsl" + std::to_string(c)));
  }
  for (int r = 0; r < config_.rows; ++r) {
    probes.push_back(Probe::i("Vrs" + std::to_string(r)));
  }
  auto transient = sim_->runTransient(options, probes);

  ArrayNetOpResult result;
  const auto after = polarizations();
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      if (r == accessedRow && c == accessedCol) continue;
      const double dP =
          std::abs(after[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(c)] -
                   before[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(c)]);
      result.maxUnaccessedDisturb = std::max(result.maxUnaccessedDisturb, dP);
    }
  }
  // Sneak paths (same convention as MemoryArray): during a read the
  // accessed row legitimately conducts into the sense lines, so sneak
  // currents are those on UNACCESSED rows' read-select lines; during
  // writes and holds no sense line should carry anything at all.
  if (!isRead) {
    for (int c = 0; c < config_.cols; ++c) {
      const auto& col =
          transient.waveform.column("i(Vsl" + std::to_string(c) + ")");
      for (double i : col) {
        result.maxSneakCurrent =
            std::max(result.maxSneakCurrent, std::abs(i));
      }
    }
  }
  for (int r = 0; r < config_.rows; ++r) {
    if (isRead && r == accessedRow) continue;
    const auto& row =
        transient.waveform.column("i(Vrs" + std::to_string(r) + ")");
    for (double i : row) {
      result.maxSneakCurrent = std::max(result.maxSneakCurrent, std::abs(i));
    }
  }
  if (isRead && accessedRow >= 0) {
    const auto t = transient.waveform.time();
    const std::string label = "i(Vsl" + std::to_string(accessedCol) + ")";
    result.readCurrent = -transient.waveform.valueAt(label, 0.6 * t.back());
    result.bitRead = result.readCurrent > config_.readCurrentThreshold;
  }
  for (auto* s : wsSources_) result.totalEnergy += s->energyDelivered();
  for (auto* s : rsSources_) result.totalEnergy += s->energyDelivered();
  for (auto* s : wblSources_) result.totalEnergy += s->energyDelivered();
  for (auto* s : slSources_) result.totalEnergy += s->energyDelivered();
  result.stats = transient.stats;
  result.waveform = std::move(transient.waveform);
  return result;
}

ArrayNetOpResult ArrayNetlist::writeBit(int row, int col, bool one) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "writeBit: cell index out of range");
  groundAll();
  const double edge = config_.edgeTime;
  const double width = config_.writePulse;
  const double lead = 2.0 * edge;
  // Table 1 write biases: accessed WS boosted, unaccessed WS at -VDD.
  for (int r = 0; r < config_.rows; ++r) {
    if (r == row) {
      wsSources_[static_cast<std::size_t>(r)]->setShape(
          pulse(0.0, config_.levels.writeBoost, edge, edge,
                width + 4.0 * edge + 0.8 * config_.settleTime, edge));
    } else if (config_.negativeUnaccessedSelect) {
      wsSources_[static_cast<std::size_t>(r)]->setShape(
          pulse(0.0, -config_.levels.vdd, edge, edge,
                width + 4.0 * edge + 0.8 * config_.settleTime, edge));
    } else {
      wsSources_[static_cast<std::size_t>(r)]->setShape(dc(0.0));
    }
  }
  const double vw = config_.levels.vWrite;
  wblSources_[static_cast<std::size_t>(col)]->setShape(
      pulse(0.0, one ? vw : -vw, lead + edge, edge, width, edge));
  const double duration = lead + width + 6.0 * edge + config_.settleTime;

  auto result = runOp(duration, row, col, /*isRead=*/false);
  result.ok = (bitAt(row, col) == one);
  return result;
}

ArrayNetOpResult ArrayNetlist::readBit(int row, int col) {
  FEFET_REQUIRE(row >= 0 && row < config_.rows && col >= 0 &&
                    col < config_.cols,
                "readBit: cell index out of range");
  groundAll();
  const double edge = config_.edgeTime;
  const double duration = 2e-9;
  // Accessed row: WS = VDD (gate pinned to the grounded WBL), RS = V_read.
  wsSources_[static_cast<std::size_t>(row)]->setShape(
      pulse(0.0, config_.levels.vdd, edge, edge, duration - 6.0 * edge,
            edge));
  rsSources_[static_cast<std::size_t>(row)]->setShape(
      pulse(0.0, config_.levels.vRead, 3.0 * edge, edge,
            duration - 10.0 * edge, edge));
  const bool expected = bitAt(row, col);
  auto result = runOp(duration, row, col, /*isRead=*/true);
  result.ok = (result.bitRead == expected) && (bitAt(row, col) == expected);
  return result;
}

ArrayNetOpResult ArrayNetlist::hold(double duration) {
  groundAll();
  auto result = runOp(duration, -1, -1, /*isRead=*/false);
  result.ok = true;
  return result;
}

}  // namespace fefet::core
