// bench_assembly — microbenchmark of the compiled stamp pipeline (the
// Newton solver's assembly engine) against the virtual-dispatch MnaSystem
// oracle on an array-scale netlist (above the dense->sparse crossover,
// i.e. the configuration where assembly cost used to rival the LU itself).
//
// Measures the assemble and solve phases separately for both over
// identical iterates, checks residual parity between them (a wrong-answer
// speedup is worthless), and emits one machine-readable PERF line:
//
//   PERF {"bench":"bench_assembly","unknowns":...,"reps":...,
//         "legacy_assemble_s":...,"compiled_assemble_s":...,
//         "assembly_speedup":...,"legacy_solve_s":...,
//         "compiled_solve_s":...,"stamps_per_sec":...}
//
// ("legacy" names the MnaSystem oracle.)  scripts/check.sh runs this as
// its perf smoke and asserts assembly_speedup >= 1.5 on an optimized
// build.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "spice/assembler.h"
#include "spice/extras.h"
#include "spice/mna.h"
#include "spice/netlist.h"
#include "spice/newton.h"
#include "spice/passives.h"
#include "spice/sources.h"
#include "spice/stamp_pattern.h"

namespace fefet {
namespace {

using namespace spice;

// RC ladder with periodic diodes: the same mixed linear/nonlinear row
// structure a bit-line column presents, sized past the sparse crossover.
void buildArrayNetlist(Netlist& n, int stages) {
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < stages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
    if (i % 7 == 0) n.add<Diode>("D" + std::to_string(i), b, n.ground());
  }
}

int run() {
  bench::TelemetrySession telemetry("bench_assembly");
  constexpr int kStages = 240;
  constexpr int kReps = 2000;
  constexpr double kGmin = 1e-12;
  constexpr double kTime = 0.3e-9;
  constexpr double kDt = 1e-12;
  constexpr auto kMethod = IntegrationMethod::kBackwardEuler;

  Netlist n;
  buildArrayNetlist(n, kStages);
  const int unknowns = n.freeze();
  const int nodes = n.nodeCount();
  const bool sparse = unknowns > kDenseToSparseCrossover;
  bench::banner("assembly: compiled stamp pipeline vs MnaSystem dispatch (" +
                std::to_string(unknowns) + " unknowns, " +
                (sparse ? "sparse" : "dense") + " storage)");

  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.05);
  for (const auto& device : n.devices()) device->seedUnknowns(x);
  const SystemView view(x, nodes);

  MnaSystem legacy(unknowns, sparse);
  Assembler compiled(n.stampPattern(), sparse);
  std::vector<double> dx;

  const auto legacyAssemble = [&] {
    legacy.clear();
    EvalContext ctx{view,    /*dc=*/false, kTime,   kDt,
                    kMethod, kGmin,        nullptr, &legacy};
    for (const auto& device : n.devices()) device->stamp(ctx);
    legacy.addGmin(kGmin, view, nodes);
  };
  const auto compiledAssemble = [&] {
    compiled.assemble(n, view, /*dc=*/false, kTime, kDt, kMethod, kGmin);
  };

  // Parity sanity before timing: a fast wrong answer is not a result.
  legacyAssemble();
  compiledAssemble();
  for (int i = 0; i < unknowns; ++i) {
    const auto u = static_cast<std::size_t>(i);
    if (legacy.residual()[u] != compiled.residual()[u]) {
      std::fprintf(stderr, "FAIL: residual parity broke at row %d\n", i);
      return 1;
    }
  }

  // Warm both solvers (first solve pays the one-time symbolic LU).
  legacy.solveForUpdate(dx);
  compiled.solveForUpdate(dx, /*reuseLuStructure=*/true);

  bench::WallTimer tLegacyAsm;
  for (int r = 0; r < kReps; ++r) legacyAssemble();
  const double legacyAssembleS = tLegacyAsm.seconds();

  bench::WallTimer tCompiledAsm;
  for (int r = 0; r < kReps; ++r) compiledAssemble();
  const double compiledAssembleS = tCompiledAsm.seconds();

  bench::WallTimer tLegacySolve;
  for (int r = 0; r < kReps; ++r) legacy.solveForUpdate(dx);
  const double legacySolveS = tLegacySolve.seconds();

  bench::WallTimer tCompiledSolve;
  for (int r = 0; r < kReps; ++r) {
    compiled.solveForUpdate(dx, /*reuseLuStructure=*/true);
  }
  const double compiledSolveS = tCompiledSolve.seconds();

  const double speedup =
      compiledAssembleS > 0.0 ? legacyAssembleS / compiledAssembleS : 0.0;
  const auto mode = stampModeFor(/*dc=*/false, kMethod);
  const std::size_t stampsPerAssembly =
      n.stampPattern().jacobianCalls(mode).size();
  const double stampsPerSec =
      compiledAssembleS > 0.0
          ? static_cast<double>(stampsPerAssembly) * kReps / compiledAssembleS
          : 0.0;

  std::printf("assemble: legacy %.1f us/iter, compiled %.1f us/iter "
              "(%.2fx)\n",
              legacyAssembleS / kReps * 1e6, compiledAssembleS / kReps * 1e6,
              speedup);
  std::printf("solve:    legacy %.1f us/iter, compiled %.1f us/iter\n",
              legacySolveS / kReps * 1e6, compiledSolveS / kReps * 1e6);
  std::printf(
      "PERF {\"bench\":\"bench_assembly\",\"unknowns\":%d,\"reps\":%d,"
      "\"legacy_assemble_s\":%.4f,\"compiled_assemble_s\":%.4f,"
      "\"assembly_speedup\":%.2f,\"legacy_solve_s\":%.4f,"
      "\"compiled_solve_s\":%.4f,\"stamps_per_sec\":%.3g}\n",
      unknowns, kReps, legacyAssembleS, compiledAssembleS, speedup,
      legacySolveS, compiledSolveS, stampsPerSec);

  telemetry.report().addCount("unknowns", static_cast<std::uint64_t>(unknowns));
  telemetry.report().addCount("reps", static_cast<std::uint64_t>(kReps));
  telemetry.report().addNumber("assembly_speedup", speedup);
  telemetry.report().addNumber("stamps_per_sec", stampsPerSec);
  telemetry.finish();
  return 0;
}

}  // namespace
}  // namespace fefet

int main() { return fefet::run(); }
