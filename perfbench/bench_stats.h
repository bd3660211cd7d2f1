// bench_stats.h — order statistics and naming rules of the benchmark.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double median(std::vector<double> values);

/// Quartiles Q1, Q2, Q3 by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), the rule used to judge run-to-run
/// spread.  Needs at least two values.
std::vector<double> quartiles(std::vector<double> values);

/// Percentile p in [0, 100] with linear interpolation between closest
/// ranks; 0 for an empty input.
double percentile(std::vector<double> values, double p);

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
/// of `count` samples beyond it, or 0 when even p50 does not.
double tailPercentileRank(std::size_t count);

/// True when `name` is a legal metric name: 1-64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool validMetricName(const std::string& name);

/// p-th quantile of a fixed-bucket histogram delta (bucket i counts values
/// <= edges[i], the last bucket is overflow), interpolated geometrically
/// inside the bucket; 0 when the histogram is empty.
double histogramQuantile(std::span<const double> edges,
                         std::span<const std::uint64_t> buckets, double q);

/// Shortest decimal text that reads back as exactly `value`.
std::string formatNumber(double value);

}  // namespace perfbench
