#include "bench_stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double tailPercentileRank(std::size_t count) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the p-th percentile: count * (1 - p / 100),
    // compared with a small slack so 1000 samples resolve p99 exactly.
    if (static_cast<double>(count) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      best = p;
    }
  }
  return best;
}

bool validMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double histogramQuantile(std::span<const double> edges,
                         std::span<const std::uint64_t> buckets, double q) {
  std::uint64_t total = 0;
  for (auto b : buckets) total += b;
  if (total == 0 || edges.empty()) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in = static_cast<double>(buckets[i]);
    if (in > 0.0 && seen + in >= target) {
      if (i >= edges.size()) return edges.back();  // overflow bucket
      const double hi = edges[i];
      const double lo = i == 0 ? hi / 10.0 : edges[i - 1];
      const double frac = std::clamp((target - seen) / in, 0.0, 1.0);
      return lo > 0.0 ? lo * std::pow(hi / lo, frac) : lo + frac * (hi - lo);
    }
    seen += in;
  }
  return edges.back();
}

std::string formatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
