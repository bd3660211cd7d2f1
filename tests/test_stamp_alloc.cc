// Heap-allocation audit of the compiled stamp pipeline: after a warm-up
// solve, the Newton steady state (assemble + factor + solve, LU structure
// reuse on) must perform zero heap allocations on both the dense and the
// sparse storage paths.
//
// The audit replaces the global operator new/delete with counting
// wrappers for the whole test binary; counting is only armed around the
// windows under test, so gtest's own bookkeeping does not pollute the
// numbers.  This test is kept out of the sanitizer builds' special cases
// by design: ASan interposes its own allocator *under* these wrappers, so
// the counts remain valid there too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "spice/extras.h"
#include "spice/netlist.h"
#include "spice/newton.h"
#include "spice/passives.h"
#include "spice/sources.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocations{0};

void* countedAlloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fefet::spice {
namespace {

// RC/diode ladder sized by stage count: small counts stay on the dense
// path, large counts cross kDenseToSparseCrossover onto the sparse path.
void buildLadder(Netlist& n, int stages) {
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(), shapes::dc(1.0));
  for (int i = 0; i < stages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
    if (i % 7 == 0) {
      n.add<Diode>("D" + std::to_string(i), b, n.ground());
    }
  }
}

long allocationsDuringSolves(int stages) {
  Netlist n;
  buildLadder(n, stages);
  NewtonSolver solver(n, NewtonOptions{});

  std::vector<double> x(static_cast<std::size_t>(n.unknownCount()), 0.0);
  for (const auto& device : n.devices()) device->seedUnknowns(x);

  // Warm-up: first solve sizes dx_, performs the one full symbolic LU
  // factorization and settles every workspace.
  NewtonStats stats =
      solver.solve(x, /*dc=*/false, 1e-10, 1e-12,
                   IntegrationMethod::kBackwardEuler);
  EXPECT_TRUE(stats.converged);

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int step = 0; step < 4; ++step) {
    stats = solver.solve(x, /*dc=*/false, (2 + step) * 1e-10, 1e-12,
                         IntegrationMethod::kBackwardEuler);
  }
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(stats.converged);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(StampAlloc, DensePathSteadyStateIsAllocationFree) {
  EXPECT_EQ(allocationsDuringSolves(/*stages=*/40), 0);
}

TEST(StampAlloc, SparsePathSteadyStateIsAllocationFree) {
  EXPECT_EQ(allocationsDuringSolves(/*stages=*/200), 0);
}

}  // namespace
}  // namespace fefet::spice
