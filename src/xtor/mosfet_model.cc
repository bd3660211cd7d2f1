#include "xtor/mosfet_model.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/math.h"
#include "common/units.h"

namespace fefet::xtor {

using math::logistic;
using math::softplus;

MosfetModel::MosfetModel(const MosParams& params, double width)
    : params_(params), width_(width) {
  FEFET_REQUIRE(width_ > 0.0, "MOSFET width must be positive");
  FEFET_REQUIRE(params_.length > 0.0, "MOSFET length must be positive");
  FEFET_REQUIRE(params_.cox > 0.0, "oxide capacitance must be positive");
  FEFET_REQUIRE(params_.slopeFactor >= 1.0, "slope factor must be >= 1");
  FEFET_REQUIRE(params_.mobility > 0.0, "mobility must be positive");
}

double MosfetModel::thermalVoltage() const {
  return constants::kBoltzmann * params_.temperature /
         constants::kElementaryCharge;
}

namespace {
/// Normal-mode (vds >= 0) NMOS evaluation.  Returns ids and the partial
/// derivatives w.r.t. vgs and vds.
struct NormalModeResult {
  double ids;
  double dIdVgs;
  double dIdVds;
};

NormalModeResult evaluateNormalMode(const MosParams& p, double width,
                                    double phit, double vgs, double vds) {
  const double n = p.slopeFactor;
  const double ispec = 2.0 * n * p.mobility * p.cox * (width / p.length) *
                       phit * phit;
  const double vtEff = p.vt0 - p.dibl * vds;

  const double argF = (vgs - vtEff) / (2.0 * n * phit);
  const double argR = argF - vds / (2.0 * phit);
  const double lf = softplus(argF);
  const double lr = softplus(argR);
  const double sf = logistic(argF);
  const double sr = logistic(argR);
  const double iF = lf * lf;
  const double iR = lr * lr;

  // Smoothed gate overdrive for the mobility-degradation factor.
  const double argOv = (vgs - vtEff) / (2.0 * phit);
  const double ovs = 2.0 * phit * softplus(argOv);
  const double sOv = logistic(argOv);
  const double mobDen = 1.0 + p.mobilityTheta * ovs;
  const double clm = 1.0 + p.lambda * vds;
  const double m = clm / mobDen;

  const double core = iF - iR;
  const double ids = ispec * core * m;

  // d(iF)/dvgs = lf*sf/(n*phit); same form for iR.
  const double diFdVgs = lf * sf / (n * phit);
  const double diRdVgs = lr * sr / (n * phit);
  // Via vtEff(vds): d(arg)/dvds adds dibl/(2 n phit); iR also has the
  // explicit -vds/(2 phit) term.
  const double diFdVds = lf * sf * p.dibl / (n * phit);
  const double diRdVds = lr * sr * (p.dibl - n) / (n * phit);

  const double dMdVgs = -m * p.mobilityTheta * sOv / mobDen;
  const double dOvsdVds = sOv * p.dibl;
  const double dMdVds =
      p.lambda / mobDen - m * p.mobilityTheta * dOvsdVds / mobDen;

  NormalModeResult r;
  r.ids = ids;
  r.dIdVgs = ispec * ((diFdVgs - diRdVgs) * m + core * dMdVgs);
  r.dIdVds = ispec * ((diFdVds - diRdVds) * m + core * dMdVds);
  return r;
}
}  // namespace

MosOperatingPoint MosfetModel::evaluate(double vd, double vg,
                                        double vs) const {
  // Mirror PMOS into NMOS space.
  double sgn = 1.0;
  if (params_.type == MosType::kPmos) {
    vd = -vd;
    vg = -vg;
    vs = -vs;
    sgn = -1.0;
  }
  const double phit = thermalVoltage();

  MosOperatingPoint op;
  if (vd >= vs) {
    const auto r = evaluateNormalMode(params_, width_, phit, vg - vs, vd - vs);
    op.ids = sgn * r.ids;
    op.gm = r.dIdVgs;        // dI/dvg
    op.gds = r.dIdVds;       // dI/dvd
  } else {
    // Swapped mode: I(vd,vg,vs) = -I_N with source and drain exchanged.
    const auto r = evaluateNormalMode(params_, width_, phit, vg - vd, vs - vd);
    op.ids = -sgn * r.ids;
    op.gm = -r.dIdVgs;                 // dI/dvg
    op.gds = r.dIdVgs + r.dIdVds;      // dI/dvd (was -dI_N/dvs')
  }
  // PMOS: dI_p/dv = d[-I_n(-v)]/dv = +dI_n/dv' — derivative values carry over.
  return op;
}

double MosfetModel::idsAt(double vd, double vg, double vs) const {
  return evaluate(vd, vg, vs).ids;
}

double MosfetModel::branchCharge(double overdrive) const {
  if (overdrive <= 0.0) return 0.0;
  const double c = 1.0 / params_.cox;
  const double k = params_.chargeStiffening;
  const double s = std::sqrt(c * c + 4.0 * k * overdrive);
  return 2.0 * overdrive / (c + s);
}

double MosfetModel::branchCapacitance(double overdrive,
                                      double logisticFactor) const {
  if (overdrive <= 0.0) return params_.cox * logisticFactor;
  const double c = 1.0 / params_.cox;
  const double k = params_.chargeStiffening;
  const double s = std::sqrt(c * c + 4.0 * k * overdrive);
  const double dQdU = 2.0 / (c + s) - 4.0 * k * overdrive /
                                          (s * (c + s) * (c + s));
  return dQdU * logisticFactor;
}

double MosfetModel::gateChargeDensity(double vgs) const {
  if (params_.type == MosType::kPmos) return -gateChargeDensityMirror(-vgs);
  return gateChargeDensityMirror(vgs);
}

// Helper implemented as a private-like free pattern via a member; declared
// inline here to keep the header minimal.
double MosfetModel::gateChargeDensityMirror(double vgs) const {
  const double phit = thermalVoltage();
  const double n = params_.slopeFactor;
  const double na = params_.accSlopeFactor;
  const double uInv = n * phit * softplus((vgs - params_.vt0) / (n * phit));
  const double uAcc =
      na * phit * softplus(-(vgs - params_.vfb) / (na * phit));
  return branchCharge(uInv) - branchCharge(uAcc);
}

double MosfetModel::gateCapacitanceDensity(double vgs) const {
  if (params_.type == MosType::kPmos) vgs = -vgs;  // symmetric derivative
  const double phit = thermalVoltage();
  const double n = params_.slopeFactor;
  const double na = params_.accSlopeFactor;
  const double xInv = (vgs - params_.vt0) / (n * phit);
  const double xAcc = -(vgs - params_.vfb) / (na * phit);
  const double uInv = n * phit * softplus(xInv);
  const double uAcc = na * phit * softplus(xAcc);
  return branchCapacitance(uInv, logistic(xInv)) +
         branchCapacitance(uAcc, logistic(xAcc));
}

double MosfetModel::gateVoltageForCharge(double q) const {
  const double lo = -10.0, hi = 10.0;
  return math::brent(
      [this, q](double v) { return gateChargeDensity(v) - q; }, lo, hi,
      {.xTolerance = 1e-12});
}

double MosfetModel::totalGateCharge(double vg, double vd, double vs) const {
  const double cov = params_.overlapCapPerWidth * width_;
  return gateArea() * gateChargeDensity(vg - vs) + cov * (vg - vd) +
         cov * (vg - vs);
}

double MosfetModel::effectiveThreshold(double vds) const {
  return params_.vt0 - params_.dibl * std::abs(vds);
}

std::string MosfetModel::describe() const {
  std::ostringstream os;
  os << (params_.type == MosType::kNmos ? "nmos" : "pmos") << " W="
     << width_ * 1e9 << "nm L=" << params_.length * 1e9 << "nm VT="
     << params_.vt0 << "V";
  return os.str();
}

MosParams nmos45() { return MosParams{}; }

MosParams pmos45() {
  MosParams p;
  p.type = MosType::kPmos;
  p.mobility = 4.1e-3;  // ~0.45x NMOS drive
  return p;
}

}  // namespace fefet::xtor
