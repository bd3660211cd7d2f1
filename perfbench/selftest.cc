// selftest.cc — tests of the benchmark's own code, and of the program
// properties its per-layer counts rely on.
//
//   python3 perfbench/run.py --self-test
//
// Prints one line per check and exits 1 if any fails.
#include <cctype>
#include <cmath>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/array_netlist.h"
#include "layers.h"
#include "op_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1.0 + std::abs(b)); }

void testOrderStatistics() {
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5 &&
            median({}) == 0.0,
        "median of odd, even and empty inputs");
  // Reference values from Python: statistics.quantiles(data, n=4).
  const auto q4 = quartiles({4, 1, 3, 2});
  check(near(q4[0], 1.25) && near(q4[1], 2.5) && near(q4[2], 3.75),
        "quartiles of 1..4 match statistics.quantiles");
  const auto q10 = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check(near(q10[0], 2.75) && near(q10[1], 5.5) && near(q10[2], 8.25),
        "quartiles of 1..10 match statistics.quantiles");
  const auto q2 = quartiles({1, 3});
  check(near(q2[0], 0.5) && near(q2[1], 2.0) && near(q2[2], 3.5),
        "quartiles of two values match statistics.quantiles");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 99.0), 100.0) &&
            near(percentile(hundred, 50.0), 51.0) &&
            near(percentile({1, 2}, 50.0), 1.5),
        "percentile interpolates between ranks");
}

void testTailRule() {
  check(tailPercentileRank(19) == 0.0, "19 samples resolve no tail percentile");
  check(tailPercentileRank(20) == 50.0, "20 samples resolve p50");
  check(tailPercentileRank(999) == 90.0, "999 samples stop at p90");
  check(tailPercentileRank(1000) == 99.0, "1000 samples resolve p99");
  check(tailPercentileRank(10000) == 99.9, "10000 samples resolve p99.9");
}

void testMetricNames() {
  for (const char* good : {"setup_s", "common.schur.solve_us_1t", "a-b.c_d",
                           "9lives"}) {
    check(validMetricName(good), std::string("valid metric name ") + good);
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "q\"", "x\n"}) {
    check(!validMetricName(bad),
          std::string("invalid metric name '") + bad + "'");
  }
  check(validMetricName(std::string(64, 'a')) &&
            !validMetricName(std::string(65, 'a')),
        "metric names are at most 64 characters");
}

void testHistogramQuantile() {
  const std::vector<double> edges = {1, 10, 100};
  const std::vector<std::uint64_t> buckets = {0, 10, 0, 0};
  check(near(histogramQuantile(edges, buckets, 0.5), std::sqrt(10.0)),
        "histogram p50 interpolates geometrically inside its bucket");
  check(histogramQuantile(edges, std::vector<std::uint64_t>(4, 0), 0.5) == 0.0,
        "empty histogram has p50 0");
}

void testOpStream() {
  ArrayOpStream a(7, 16, 16, "WRHWRHWWRH"), b(7, 16, 16, "WRHWRHWWRH"),
      c(8, 16, 16, "WRHWRHWWRH");
  bool same = true, differs = false, inRange = true, template_ = true;
  const std::string kinds = "WRHWRHWWRH";
  for (int i = 0; i < 1000; ++i) {
    const ArrayOp x = a.next(), y = b.next(), z = c.next();
    same = same && x == y;
    differs = differs || !(x == z);
    inRange = inRange && x.row >= 0 && x.row < 16 && x.col >= 0 && x.col < 16;
    const char k = kinds[static_cast<std::size_t>(i) % kinds.size()];
    template_ = template_ && toString(x.kind)[0] == std::tolower(k);
  }
  check(same, "op stream repeats exactly for one seed");
  check(differs, "op streams of two seeds differ");
  check(inRange, "op stream cells lie inside the array");
  check(template_, "op kinds follow the template");
  check(initialPattern(3, 4, 5) == initialPattern(3, 4, 5) &&
            initialPattern(3, 4, 5) != initialPattern(4, 4, 5),
        "initial pattern is a function of the seed");
  bool rejected = false;
  try {
    ArrayOpStream bad(1, 4, 4, "WX");
  } catch (const std::invalid_argument&) {
    rejected = true;
  }
  check(rejected, "op stream rejects an unknown op kind");
}

void testReference() {
  Reference ref;
  ref.window = 0.2;
  ref.add(Reference::Kind::kExact, "bit", 1);
  ref.add(Reference::Kind::kPolarization, "p", 0.1);
  ref.add(Reference::Kind::kCurrent, "i", 1e-4);
  const Reference back = Reference::parse(ref.serialize());
  check(back.compare(ref).empty() && back.entries.size() == 3 &&
            back.window == 0.2,
        "reference round-trips through its text form");
  Reference inside = ref;
  inside.entries[1].value += 0.9e-3 * ref.window;
  inside.entries[2].value *= 1.004;
  check(ref.compare(inside).empty(), "outputs inside tolerance match");
  for (int k = 0; k < 3; ++k) {
    Reference off = ref;
    off.entries[static_cast<std::size_t>(k)].value +=
        k == 0 ? 1.0 : k == 1 ? 1.1e-3 * ref.window : 0.006e-4 + 1e-9;
    check(ref.compare(off).size() == 1,
          "an output outside tolerance is reported (" + ref.entries[k].name +
              ")");
  }
  Reference missing = ref;
  missing.entries.pop_back();
  check(!ref.compare(missing).empty(), "a missing output is reported");
  bool threw = false;
  try {
    Reference::parse("window 0.2\nq x 1\n");
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "reference parser rejects an unknown kind");
}

struct SimCounts {
  double steps = 0, iterations = 0, rejected = 0;
  bool operator==(const SimCounts&) const = default;
};

SimCounts countsOf(const Counters& d) {
  return {d.counter("fefet.transient.steps"),
          d.counter("fefet.transient.newton_iterations"),
          d.counter("fefet.transient.rejected_steps")};
}

void testCellDeterminism() {
  std::vector<SimCounts> counts;
  std::vector<long> passes;
  std::vector<std::vector<double>> simNs;
  for (int threads : {1, 2, 4, 4}) {
    const Counters before = Counters::now();
    const Tally t = runCellBatch(11, 5, 12, threads);
    counts.push_back(countsOf(Counters::now().since(before)));
    passes.push_back(t.passedCells);
    std::vector<double> ns;
    for (const auto& op : t.ops) ns.push_back(op.simNs);
    simNs.push_back(ns);
  }
  bool same = true;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    same = same && counts[i] == counts[0] && passes[i] == passes[0] &&
           simNs[i] == simNs[0];
  }
  check(same && counts[0].steps > 0,
        "cell_mc steps, Newton iterations and pass count repeat across runs "
        "and 1/2/4 sweep threads");
}

/// Counts of one seeded op stream on a small array solved with `newton`.
SimCounts arrayCounts(int size, fefet::spice::NewtonOptions newton) {
  core::ArrayNetlistConfig config;
  config.rows = config.cols = size;
  config.newton = newton;
  core::ArrayNetlist array(config);
  array.setPattern(initialPattern(5, size, size));
  ArrayOpStream stream(5, size, size, "WRH");
  const Counters before = Counters::now();
  for (int i = 0; i < 3; ++i) {
    const ArrayOp op = stream.next();
    if (op.kind == OpKind::kWrite) array.writeBit(op.row, op.col, op.value);
    if (op.kind == OpKind::kRead) array.readBit(op.row, op.col);
    if (op.kind == OpKind::kHold) array.hold(2e-9);
  }
  return countsOf(Counters::now().since(before));
}

void testArrayDeterminism() {
  fefet::spice::NewtonOptions flat;
  flat.useHierarchicalSolve = false;
  const SimCounts f1 = arrayCounts(4, flat), f2 = arrayCounts(4, flat);
  check(f1 == f2 && f1.steps > 0, "flat array counts repeat across runs");
  fefet::spice::NewtonOptions hier = flat;
  hier.useHierarchicalSolve = true;
  hier.hierThreads = 1;
  const SimCounts h1 = arrayCounts(6, hier);
  hier.hierThreads = 2;
  const SimCounts h2 = arrayCounts(6, hier), h3 = arrayCounts(6, hier);
  check(h1 == h2 && h2 == h3 && h1.steps > 0,
        "hierarchical array counts repeat across runs and 1/2 threads");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  testOrderStatistics();
  testTailRule();
  testMetricNames();
  testHistogramQuantile();
  testOpStream();
  testReference();
  testCellDeterminism();
  testArrayDeterminism();
  std::cout << (g_failures ? "self-test FAILED: " : "self-test passed: ")
            << g_failures << " failure(s)\n";
  return g_failures ? 1 : 0;
}
