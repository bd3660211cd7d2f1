#include "ferro/lk_model.h"

#include <cmath>

#include "common/error.h"
#include "common/math.h"

namespace fefet::ferro {

LandauKhalatnikov::LandauKhalatnikov(const LkCoefficients& coefficients)
    : c_(coefficients) {
  FEFET_REQUIRE(c_.rho > 0.0, "LK kinetic coefficient rho must be positive");
}

double LandauKhalatnikov::staticField(double p) const {
  const double p2 = p * p;
  return p * (c_.alpha + p2 * (c_.beta + p2 * c_.gamma));
}

double LandauKhalatnikov::staticFieldSlope(double p) const {
  const double p2 = p * p;
  return c_.alpha + p2 * (3.0 * c_.beta + p2 * 5.0 * c_.gamma);
}

double LandauKhalatnikov::dynamicField(double p, double dPdt) const {
  return staticField(p) + c_.rho * dPdt;
}

double LandauKhalatnikov::energyDensity(double p) const {
  const double p2 = p * p;
  return p2 * (0.5 * c_.alpha +
               p2 * (0.25 * c_.beta + p2 * c_.gamma / 6.0));
}

bool LandauKhalatnikov::isFerroelectric() const {
  if (c_.alpha >= 0.0) return false;
  // A nontrivial root of alpha + beta x + gamma x^2 = 0 (x = P^2) must exist
  // with x > 0.
  const double disc = c_.beta * c_.beta - 4.0 * c_.gamma * c_.alpha;
  if (disc < 0.0) return false;
  if (c_.gamma == 0.0) return c_.beta > 0.0;
  const double x1 = (-c_.beta + std::sqrt(disc)) / (2.0 * c_.gamma);
  const double x2 = (-c_.beta - std::sqrt(disc)) / (2.0 * c_.gamma);
  return x1 > 0.0 || x2 > 0.0;
}

double LandauKhalatnikov::remnantPolarization() const {
  FEFET_REQUIRE(isFerroelectric(),
                "coefficient set has no remnant polarization");
  // Solve alpha + beta x + gamma x^2 = 0 for x = P^2 and take the smallest
  // positive root (the physical well; the larger root, when present, is an
  // artifact of the truncated expansion).
  if (c_.gamma == 0.0) return std::sqrt(-c_.alpha / c_.beta);
  const double disc = c_.beta * c_.beta - 4.0 * c_.gamma * c_.alpha;
  const double sq = std::sqrt(disc);
  const double xa = (-c_.beta + sq) / (2.0 * c_.gamma);
  const double xb = (-c_.beta - sq) / (2.0 * c_.gamma);
  double x = -1.0;
  if (xa > 0.0) x = xa;
  if (xb > 0.0 && (x < 0.0 || xb < x)) x = xb;
  FEFET_REQUIRE(x > 0.0, "no positive well found");
  return std::sqrt(x);
}

double LandauKhalatnikov::saturationPolarization() const {
  return 1.25 * remnantPolarization();
}

double LandauKhalatnikov::coercivePolarization() const {
  // Solve dE/dP = alpha + 3 beta x + 5 gamma x^2 = 0, x = P^2; take the
  // smallest positive root, which lies between 0 and P_r.
  const double a = 5.0 * c_.gamma;
  const double b = 3.0 * c_.beta;
  const double c = c_.alpha;
  double x = -1.0;
  if (a == 0.0) {
    x = -c / b;
  } else {
    const double disc = b * b - 4.0 * a * c;
    FEFET_REQUIRE(disc >= 0.0, "no coercive extremum exists");
    const double sq = std::sqrt(disc);
    const double xa = (-b + sq) / (2.0 * a);
    const double xb = (-b - sq) / (2.0 * a);
    if (xa > 0.0) x = xa;
    if (xb > 0.0 && (x < 0.0 || xb < x)) x = xb;
  }
  FEFET_REQUIRE(x > 0.0, "no positive coercive extremum");
  return std::sqrt(x);
}

double LandauKhalatnikov::coerciveField() const {
  return std::abs(staticField(coercivePolarization()));
}

double LandauKhalatnikov::wellBarrier() const {
  return energyDensity(0.0) - energyDensity(remnantPolarization());
}

std::vector<double> LandauKhalatnikov::staticPolarizations(
    double field) const {
  const double pMax = saturationPolarization() * 1.6;
  return math::findAllRoots(
      [this, field](double p) { return staticField(p) - field; }, -pMax,
      pMax, 2000);
}

}  // namespace fefet::ferro
