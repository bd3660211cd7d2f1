// Reproduces paper Fig. 7 + Table 1 on a generated N x M electrical array:
// selective writes/reads under the proposed bias scheme, unaccessed-row
// isolation, disturb and sneak-current quantification — through the deck-
// generated core::ArrayNetlist at any --rows/--cols.
//
// Runs checkerboard-or-strided writes (--writes=K sets the count), a 1 ns
// hold and a read-back of every written cell, then prints one REPORT line
// (obs::RunReport) with the wall clock, Newton iterations, worst half-
// select disturb, worst sneak current and average write energy.  Exits 0
// only when every write and read-back is correct and the worst disturb on
// an unaccessed cell stays under 5% of the memory window.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/array_netlist.h"
#include "core/bias_scheme.h"

using namespace fefet;

namespace {

struct Cli {
  int rows = 2;
  int cols = 3;
  int writes = 0;  ///< 0 = auto (checkerboard when small, 8 strided else)
};

Cli parseCli(int argc, char** argv) {
  Cli cli;
  const auto valueOf = [](const char* arg, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = valueOf(arg, "--rows=")) {
      cli.rows = std::atoi(v);
    } else if (const char* v = valueOf(arg, "--cols=")) {
      cli.cols = std::atoi(v);
    } else if (const char* v = valueOf(arg, "--writes=")) {
      cli.writes = std::atoi(v);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--rows=N] [--cols=M] "
                   "[--writes=K]\n",
                   arg, argv[0]);
      std::exit(2);
    }
  }
  if (cli.rows < 1 || cli.cols < 1) {
    std::fprintf(stderr, "--rows/--cols must be >= 1\n");
    std::exit(2);
  }
  return cli;
}

core::ArrayNetlistConfig makeConfig(const Cli& cli) {
  core::ArrayNetlistConfig config;
  config.rows = cli.rows;
  config.cols = cli.cols;
  return config;
}

struct WriteOp {
  int row = 0;
  int col = 0;
  bool bit = false;
};

/// Deterministic op schedule: full checkerboard for small arrays, a strided
/// diagonal walk (every row and column class gets visited) otherwise.
std::vector<WriteOp> makeSchedule(const Cli& cli) {
  std::vector<WriteOp> ops;
  if (cli.writes <= 0 && cli.rows * cli.cols <= 36) {
    for (int r = 0; r < cli.rows; ++r) {
      for (int c = 0; c < cli.cols; ++c) {
        ops.push_back({r, c, (r + c) % 2 == 0});
      }
    }
    return ops;
  }
  const int count = cli.writes > 0 ? cli.writes : 8;
  for (int k = 0; k < count; ++k) {
    ops.push_back({(k * 5 + 2) % cli.rows, (k * 3 + 1) % cli.cols,
                   k % 2 == 0});
  }
  return ops;
}

struct RunOutcome {
  bool ok = true;
  int writes = 0;
  double worstDisturb = 0.0;
  double worstSneak = 0.0;
  double totalEnergy = 0.0;
  double wallSeconds = 0.0;
  long newtonIterations = 0;
};

/// Execute the schedule (writes, 1 ns hold, read-back of every written
/// cell) and verify the read-back pattern.
RunOutcome runSchedule(core::ArrayNetlist& array,
                       const std::vector<WriteOp>& ops) {
  RunOutcome out;
  const bench::WallTimer timer;
  std::map<std::pair<int, int>, bool> expected;
  for (const auto& op : ops) {
    const auto res = array.writeBit(op.row, op.col, op.bit);
    out.ok = out.ok && res.ok;
    out.worstDisturb = std::max(out.worstDisturb, res.maxUnaccessedDisturb);
    out.worstSneak = std::max(out.worstSneak, res.maxSneakCurrent);
    out.totalEnergy += res.totalEnergy;
    out.newtonIterations += res.stats.newtonIterations;
    ++out.writes;
    expected[{op.row, op.col}] = op.bit;
  }
  out.newtonIterations += array.hold(1e-9).stats.newtonIterations;
  for (const auto& [cell, bit] : expected) {
    const auto res = array.readBit(cell.first, cell.second);
    out.ok = out.ok && res.ok && res.bitRead == bit;
    out.worstSneak = std::max(out.worstSneak, res.maxSneakCurrent);
    out.newtonIterations += res.stats.newtonIterations;
  }
  out.wallSeconds = timer.seconds();
  return out;
}

void printState(const core::ArrayNetlist& arr, const char* label) {
  std::printf("%s\n", label);
  for (int r = 0; r < arr.rows(); ++r) {
    std::printf("  row %d:", r);
    for (int c = 0; c < arr.cols(); ++c) {
      std::printf(" %d", arr.bitAt(r, c) ? 1 : 0);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parseCli(argc, argv);

  bench::banner("Table 1: bias conditions of the memory array");
  core::BiasLevels levels;
  std::cout << core::describeBiasTable(levels);

  const auto ops = makeSchedule(cli);
  bench::TelemetrySession telemetry("fig07_array_bias");
  char title[128];
  std::snprintf(title, sizeof(title), "Fig. 7: %dx%d array operations",
                cli.rows, cli.cols);
  bench::banner(title);

  core::ArrayNetlist array(makeConfig(cli));
  const auto outcome = runSchedule(array, ops);

  if (cli.rows * cli.cols <= 36) {
    printState(array, "array state after writes + read-back:");
  }
  const double window = std::abs(array.pOn() - array.pOff());
  const double disturbFrac = window > 0.0 ? outcome.worstDisturb / window : 0.0;
  // Half-select budget: Table 1's sneak-path-free claim, gated at 5% of
  // the memory window (the margin is how much of the budget is unused).
  const bool disturbOk = disturbFrac < 0.05;
  const double disturbMargin = 1.0 - disturbFrac / 0.05;
  const bool ok = outcome.ok && disturbOk;
  const double avgWriteEnergy =
      outcome.writes > 0 ? outcome.totalEnergy / outcome.writes : 0.0;
  std::printf("worst unaccessed-cell disturb: %.4g C/m^2 (%.3g%% of the "
              "window)\n", outcome.worstDisturb, disturbFrac * 100.0);
  std::printf("worst sneak current: %.4g nA\n", outcome.worstSneak * 1e9);
  std::printf("average write energy (cell+lines): %.3g fJ\n",
              avgWriteEnergy * 1e15);

  bench::Comparison cmp;
  cmp.addText("write + read-back", "correct",
              outcome.ok ? "correct" : "WRONG", "");
  cmp.addText("half-select disturb", "< 5% of window",
              disturbOk ? "within" : "EXCEEDED", "");
  cmp.add("write disturb on unaccessed cells", 0.0, outcome.worstDisturb,
          "C/m^2 (<< 0.22)");
  cmp.add("sneak current (eliminated)", 0.0, outcome.worstSneak * 1e9, "nA");
  cmp.print();

  obs::RunReport& report = telemetry.report();
  report.addNumber("rows", cli.rows);
  report.addNumber("cols", cli.cols);
  report.addCount("writes", static_cast<std::uint64_t>(outcome.writes));
  report.addNumber("wall_s", outcome.wallSeconds);
  report.addCount("newton_iters",
                  static_cast<std::uint64_t>(outcome.newtonIterations));
  report.addNumber("avg_write_energy_fJ", avgWriteEnergy * 1e15);
  report.addNumber("disturb_worst", outcome.worstDisturb);
  report.addNumber("worst_disturb_frac", disturbFrac);
  report.addNumber("disturb_margin", disturbMargin);
  report.addNumber("sneak_worst_nA", outcome.worstSneak * 1e9);
  report.addBool("ok", ok);
  telemetry.finish();
  return ok ? 0 : 1;
}
