// Solver performance characterization (google-benchmark): MNA assembly and
// solve scaling on RC ladders and on the actual memory circuits.  Not a
// paper figure — this documents the cost of the hand-rolled substrate.
#include <benchmark/benchmark.h>

#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "core/fefet.h"
#include "core/memory_array.h"
#include "spice/assembler.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"

using namespace fefet;
using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

static void BM_DcLadder(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  spice::Netlist n;
  n.add<spice::VoltageSource>("V1", n.node("n0"), n.ground(), dc(1.0));
  for (int i = 0; i < stages; ++i) {
    n.add<spice::Resistor>("R" + std::to_string(i),
                           n.node("n" + std::to_string(i)),
                           n.node("n" + std::to_string(i + 1)), 100.0);
  }
  n.add<spice::Resistor>("Rend", n.node("n" + std::to_string(stages)),
                         n.ground(), 100.0);
  spice::Simulator sim(n);
  for (auto _ : state) {
    sim.solveDc();
    benchmark::DoNotOptimize(sim.solution());
  }
  state.SetComplexityN(stages);
}
BENCHMARK(BM_DcLadder)->Arg(16)->Arg(64)->Arg(256)->Arg(512)->Complexity();

static void BM_RcTransient(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  spice::Netlist n;
  n.add<spice::VoltageSource>("V1", n.node("n0"), n.ground(),
                              pulse(0.0, 1.0, 0.0, 10e-12, 1.0, 10e-12));
  for (int i = 0; i < stages; ++i) {
    n.add<spice::Resistor>("R" + std::to_string(i),
                           n.node("n" + std::to_string(i)),
                           n.node("n" + std::to_string(i + 1)), 1000.0);
    n.add<spice::Capacitor>("C" + std::to_string(i),
                            n.node("n" + std::to_string(i + 1)), n.ground(),
                            1e-15);
  }
  spice::Simulator sim(n);
  spice::TransientOptions options;
  options.duration = 2e-9;
  for (auto _ : state) {
    sim.initializeUic();
    auto r = sim.runTransient(options, {Probe::v("n1")});
    benchmark::DoNotOptimize(r.stats.steps);
  }
  state.SetComplexityN(stages);
}
BENCHMARK(BM_RcTransient)->Arg(8)->Arg(32)->Arg(128)->Complexity();

static void BM_CellWrite(benchmark::State& state) {
  core::Cell2TConfig cfg;
  core::Cell2T cell(cfg);
  bool bit = false;
  for (auto _ : state) {
    bit = !bit;
    auto r = cell.write(bit, 700e-12);
    benchmark::DoNotOptimize(r.finalPolarization);
  }
}
BENCHMARK(BM_CellWrite);

static void BM_CellRead(benchmark::State& state) {
  core::Cell2TConfig cfg;
  core::Cell2T cell(cfg);
  cell.setStoredBit(true);
  for (auto _ : state) {
    auto r = cell.read();
    benchmark::DoNotOptimize(r.readCurrent);
  }
}
BENCHMARK(BM_CellRead);

static void BM_ArrayWrite(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  core::ArrayConfig cfg;
  cfg.rows = size;
  cfg.cols = size;
  core::MemoryArray arr(cfg);
  bool bit = false;
  for (auto _ : state) {
    bit = !bit;
    auto r = arr.writeBit(0, 0, bit);
    benchmark::DoNotOptimize(r.totalEnergy);
  }
  state.SetComplexityN(size * size);
}
BENCHMARK(BM_ArrayWrite)->Arg(2)->Arg(4)->Arg(6)->Complexity();

// One Newton linear solve (LU refactor + substitution) of an R x R array
// Jacobian through the dense (arg 1 = 0) or sparse (arg 1 = 1) path: the
// measurement behind kDenseToSparseCrossover (DESIGN.md §6.2).
static void BM_ArraySolvePath(benchmark::State& state) {
  core::ArrayNetlistConfig cfg;
  cfg.rows = static_cast<int>(state.range(0));
  cfg.cols = cfg.rows;
  cfg.newton.useHierarchicalSolve = false;
  core::ArrayNetlist arr(cfg);
  const spice::Netlist& netlist = arr.netlist();
  spice::Assembler assembler(netlist.stampPattern(), state.range(1) == 1);
  std::vector<double> x(static_cast<std::size_t>(netlist.unknownCount()), 0.0);
  for (const auto& device : netlist.devices()) device->seedUnknowns(x);
  assembler.assemble(netlist, spice::SystemView(x, netlist.nodeCount()),
                     /*dc=*/false, 0.0, 1e-12,
                     spice::IntegrationMethod::kTrapezoidal, 1e-12);
  std::vector<double> dx;
  for (auto _ : state) {
    assembler.solveForUpdate(dx, /*reuseLuStructure=*/true);
    benchmark::DoNotOptimize(dx.data());
  }
  state.counters["unknowns"] = netlist.unknownCount();
}
BENCHMARK(BM_ArraySolvePath)->ArgsProduct({{1, 2, 3, 6, 8}, {0, 1}});

BENCHMARK_MAIN();
