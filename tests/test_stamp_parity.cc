// Stamp-parity suite: the compiled stamp pipeline (StampPattern +
// Assembler), the only assembly engine of NewtonSolver, must be
// bit-identical to the virtual-dispatch MnaSystem oracle and must
// reproduce the committed golden data.
//
// Two layers of evidence:
//   1. Matrix-level parity: a zoo netlist containing every device type is
//      assembled by both at randomized Newton iterates, in all three
//      stamp modes (DC, transient BE, transient trapezoid), against dense
//      and sparse oracle storage — every Jacobian entry, residual and
//      row-scale value compared with exact (==) equality.
//   2. End-to-end golden data (tests/golden/*.golden, tolerances in each
//      file's header): a 200-stage RC ladder transient (sparse path, LU
//      structure reuse), a full 2T-cell write -> hold -> read, the
//      diode-string DC operating point of the gmin-continuation solve,
//      and a 16x16 array's Table 1 write/hold/read schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "spice/assembler.h"
#include "spice/extras.h"
#include "spice/fecap_device.h"
#include "spice/mna.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "spice/stamp_pattern.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {
namespace {

ferro::LkCoefficients feMaterial() {
  ferro::LkCoefficients c;
  c.rho = 1.0;
  return c;
}

const ferro::FeGeometry kFeGeom{1e-9, 65e-9 * 45e-9};

// One of every device type, wired into a single connected circuit.  The
// point is stamp coverage, not physical plausibility.
void buildZoo(Netlist& n) {
  using shapes::dc;
  using shapes::pulse;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.2, 0.1e-9, 20e-12, 1e-9, 20e-12));
  n.add<Resistor>("R1", n.node("in"), n.node("mid"), 1e3);
  n.add<Capacitor>("C1", n.node("mid"), n.ground(), 2e-15);
  n.add<TimedSwitch>("S1", n.node("mid"), n.node("out"),
                     [](double t) { return t < 0.5e-9 ? 1.0 : 0.0; });
  n.add<CurrentSource>("I1", n.ground(), n.node("out"), dc(1e-6));
  n.add<Diode>("D1", n.node("out"), n.ground());
  n.add<Inductor>("L1", n.node("out"), n.node("tail"), 1e-9);
  n.add<Resistor>("R2", n.node("tail"), n.ground(), 5e3);
  n.add<Vcvs>("E1", n.node("e"), n.ground(), n.node("mid"), n.ground(), 2.0);
  n.add<Vccs>("G1", n.ground(), n.node("out"), n.node("e"), n.ground(), 1e-3);
  n.add<Resistor>("Rg", n.node("e"), n.node("gate"), 1e3);
  n.add<Resistor>("Rd", n.node("in"), n.node("drn"), 1e4);
  n.add<MosfetDevice>("M1", n.node("drn"), n.node("gate"), n.ground(),
                      xtor::nmos45(), 65e-9);
  const double pr =
      ferro::LandauKhalatnikov(feMaterial()).remnantPolarization();
  // backgroundEpsR > 0 exercises the FeCap linear-dielectric branch.
  n.add<FeCapDevice>("F1", n.node("gate"), n.ground(), feMaterial(), kFeGeom,
                     pr, 5.0);
}

struct Mode {
  const char* name;
  bool dc;
  double time;
  double dt;
  IntegrationMethod method;
};

const Mode kModes[] = {
    {"dc", true, 0.0, 0.0, IntegrationMethod::kBackwardEuler},
    {"be", false, 0.3e-9, 1e-12, IntegrationMethod::kBackwardEuler},
    {"trap", false, 0.3e-9, 1e-12, IntegrationMethod::kTrapezoidal},
};

// Assemble the compiled engine and the oracle at the same iterate and
// require exact equality of residual, row scale and every Jacobian entry.
// The compiled CSR pattern is a superset of the oracle's pattern (the
// oracle drops exact-zero contributions), so compiled-only entries must
// carry 0.0 and oracle entries must all exist in the pattern.
void expectParityAtIterates(bool sparseOracle) {
  Netlist n;
  buildZoo(n);
  const int unknowns = n.freeze();
  const int nodes = n.nodeCount();
  ASSERT_GT(unknowns, 0);

  MnaSystem oracle(unknowns, sparseOracle);
  Assembler compiled(n.stampPattern(), sparseOracle);
  const StampPattern& pattern = n.stampPattern();
  const double gmin = 1e-10;

  std::mt19937_64 rng(20260807u);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
  for (const auto& device : n.devices()) device->seedUnknowns(x);

  for (int iterate = 0; iterate < 8; ++iterate) {
    // Perturb around the seed so aux unknowns (P, branch currents) stay in
    // a regime every model evaluates without clipping differently.
    for (auto& xi : x) xi += 0.25 * dist(rng);
    const SystemView view(x, nodes);

    for (const Mode& mode : kModes) {
      SCOPED_TRACE(std::string("mode=") + mode.name +
                   (sparseOracle ? " oracle=sparse" : " oracle=dense") +
                   " iterate=" + std::to_string(iterate));

      oracle.clear();
      EvalContext ctx{view,        mode.dc, mode.time, mode.dt,
                      mode.method, gmin,    nullptr,   &oracle};
      for (const auto& device : n.devices()) device->stamp(ctx);
      oracle.addGmin(gmin, view, nodes);

      compiled.assemble(n, view, mode.dc, mode.time, mode.dt, mode.method,
                        gmin);

      const auto residual = compiled.residual();
      const auto rowScale = compiled.rowScale();
      for (int i = 0; i < unknowns; ++i) {
        const auto u = static_cast<std::size_t>(i);
        ASSERT_EQ(oracle.residual()[u], residual[u]) << "residual row " << i;
        ASSERT_EQ(oracle.rowScale()[u], rowScale[u]) << "rowScale row " << i;
      }

      const linalg::CsrView csr = compiled.csr();
      for (std::size_t r = 0; r < csr.n; ++r) {
        for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
          const std::size_t c = csr.colIdx[p];
          double oracleValue = 0.0;
          if (sparseOracle) {
            const auto& row = oracle.sparseMatrix().row(r);
            const auto it = row.find(c);
            if (it != row.end()) oracleValue = it->second;
          } else {
            oracleValue = oracle.denseMatrix().at(r, c);
          }
          ASSERT_EQ(oracleValue, csr.values[p]) << "J(" << r << "," << c
                                                << ")";
        }
      }
      // No oracle entry may fall outside the compiled pattern.
      for (std::size_t r = 0; r < csr.n; ++r) {
        if (sparseOracle) {
          for (const auto& [c, v] : oracle.sparseMatrix().row(r)) {
            ASSERT_NE(pattern.csrIndex(static_cast<int>(r),
                                       static_cast<int>(c)),
                      StampPattern::npos)
                << "oracle-only entry J(" << r << "," << c << ")=" << v;
          }
        } else {
          for (std::size_t c = 0; c < csr.n; ++c) {
            if (pattern.csrIndex(static_cast<int>(r), static_cast<int>(c)) ==
                StampPattern::npos) {
              ASSERT_EQ(oracle.denseMatrix().at(r, c), 0.0)
                  << "oracle-only entry J(" << r << "," << c << ")";
            }
          }
        }
      }
    }
  }
}

TEST(StampParity, EveryDeviceMatchesDenseOracleAtRandomIterates) {
  expectParityAtIterates(/*sparseOracle=*/false);
}

TEST(StampParity, EveryDeviceMatchesSparseOracleAtRandomIterates) {
  expectParityAtIterates(/*sparseOracle=*/true);
}

// Committed golden data (tests/golden/*.golden): whitespace-separated
// records "key field...", '#' lines are comments.  Counts and bits compare
// exactly; real values within the file's `rel_tol`, relative to the golden
// value.
class Golden {
 public:
  explicit Golden(const std::string& name) {
    std::ifstream in(std::string(GOLDEN_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << "cannot open golden file " << name;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key;
      fields >> key;
      std::vector<std::string> values;
      for (std::string v; fields >> v;) values.push_back(v);
      records_.emplace_back(key, std::move(values));
    }
    relTol_ = real(one("rel_tol").at(0));
    EXPECT_GT(relTol_, 0.0);
    EXPECT_LE(relTol_, 1e-9) << "golden tolerance looser than 1e-9";
  }

  /// Fields of every record with this key, in file order.
  std::vector<std::vector<std::string>> all(const std::string& key) const {
    std::vector<std::vector<std::string>> out;
    for (const auto& [k, values] : records_) {
      if (k == key) out.push_back(values);
    }
    return out;
  }

  /// Fields of the single record with this key.
  std::vector<std::string> one(const std::string& key) const {
    const auto matches = all(key);
    EXPECT_EQ(matches.size(), 1u) << "golden key " << key;
    return matches.empty() ? std::vector<std::string>{"nan"} : matches[0];
  }

  static long integer(const std::string& field) {
    return std::strtol(field.c_str(), nullptr, 10);
  }
  long integerOf(const std::string& key) const {
    return integer(one(key).at(0));
  }

  void expectReal(double got, const std::string& field,
                  const std::string& what) const {
    const double golden = real(field);
    EXPECT_LE(std::abs(got - golden), relTol_ * std::abs(golden))
        << what << ": got " << got << ", golden " << field;
  }

 private:
  static double real(const std::string& field) {
    return std::strtod(field.c_str(), nullptr);
  }

  std::vector<std::pair<std::string, std::vector<std::string>>> records_;
  double relTol_ = 0.0;
};

// Long RC ladder: > kDenseToSparseCrossover unknowns, so this is the
// sparse-storage path with LU structure reuse — exactly the array-scale
// configuration the pipeline was built for.
TEST(StampParity, LadderTransientMatchesGolden) {
  Netlist n;
  constexpr int kStages = 200;
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < kStages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
  }
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 2e-9;
  options.dtMax = 20e-12;
  const TransientResult result = sim.runTransient(
      options, {Probe::v("s1"), Probe::v("s100"), Probe::v("s200")});

  const Golden golden("ladder_transient.golden");
  EXPECT_EQ(result.stats.steps, golden.integerOf("steps"));
  EXPECT_EQ(result.stats.newtonIterations,
            golden.integerOf("newton_iterations"));
  const auto samples = golden.all("sample");
  ASSERT_EQ(samples.size(),
            static_cast<std::size_t>(golden.integerOf("samples")));
  ASSERT_EQ(result.waveform.sampleCount(), samples.size());
  const auto time = result.waveform.time();
  const char* columns[] = {"v(s1)", "v(s100)", "v(s200)"};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(samples[i].size(), 4u) << "golden sample " << i;
    golden.expectReal(time[i], samples[i][0],
                      "time at sample " + std::to_string(i));
    for (int c = 0; c < 3; ++c) {
      golden.expectReal(result.waveform.column(columns[c])[i],
                        samples[i][static_cast<std::size_t>(c) + 1],
                        std::string(columns[c]) + " at sample " +
                            std::to_string(i));
    }
  }
}

// Full 2T-cell write -> hold -> read: the FEFET gate stack (MOSFET +
// FeCap aux unknown) through pulse edges, dt control and state commits.
TEST(StampParity, Cell2TWriteHoldReadMatchesGolden) {
  core::Cell2T cell{core::Cell2TConfig{}};
  cell.setStoredBit(false);
  const core::CellOpResult ops[] = {cell.write(true, 1e-9), cell.hold(1e-9),
                                    cell.read()};
  const char* names[] = {"write", "hold", "read"};

  const Golden golden("cell2t_write_hold_read.golden");
  const auto records = golden.all("op");
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t op = 0; op < 3; ++op) {
    const auto& g = records[op];
    ASSERT_EQ(g.size(), 6u);
    ASSERT_EQ(g[0], names[op]);
    SCOPED_TRACE(std::string("op ") + names[op]);
    EXPECT_EQ(static_cast<long>(ops[op].waveform.sampleCount()),
              golden.integer(g[1]));
    golden.expectReal(ops[op].finalPolarization, g[2], "final P");
    EXPECT_EQ(ops[op].bitAfter ? 1 : 0, golden.integer(g[3]));
    golden.expectReal(ops[op].readCurrent, g[4], "read current");
    golden.expectReal(ops[op].totalEnergy, g[5], "total energy");
  }
}

// ---------------------------------------------------------------------------
// SystemView node/aux indexing convention (audited in PR 7, see device.h):
// node i reads x[i - 1]; aux rows are ABSOLUTE indices >= nodeCount handed
// out by the AuxAllocator, read unshifted.  A mixed node/aux iterate run
// through a real assembly pins the convention end to end.
TEST(StampParity, MixedNodeAuxIterateFollowsRowConvention) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), shapes::dc(1.0));
  n.add<Resistor>("R1", n.node("in"), n.ground(), 1e3);
  const int unknowns = n.freeze();
  ASSERT_EQ(n.nodeCount(), 1);   // "in"
  ASSERT_EQ(unknowns, 2);        // + the source's branch-current aux
  // The aux row is absolute: the allocator starts at nodeCount().
  ASSERT_EQ(n.auxLabels().size(), 1u);

  // Distinct values so a swapped read cannot cancel: node voltage 0.7 at
  // row 0, branch current 0.3 at (absolute) row 1.
  std::vector<double> x{0.7, 0.3};
  const SystemView view(x, n.nodeCount());
  EXPECT_EQ(view.nodeVoltage(n.node("in")), 0.7);   // node 1 -> x[0]
  EXPECT_EQ(view.nodeVoltage(kGround), 0.0);
  EXPECT_EQ(view.aux(1), 0.3);                      // absolute row, no shift

  // Assemble and check both rows land where the convention says:
  //   row 0 (KCL at "in"): resistor current v/R plus the branch current
  //   aux — 0.7/1e3 + 0.3;
  //   row 1 (source constraint): v(in) - 1.0 = -0.3.
  Assembler compiled(n.stampPattern(), /*useSparse=*/false);
  compiled.assemble(n, view, /*dc=*/true, 0.0, 0.0,
                    IntegrationMethod::kBackwardEuler, /*gmin=*/0.0);
  const auto residual = compiled.residual();
  ASSERT_EQ(residual.size(), 2u);
  EXPECT_EQ(residual[0], 0.7 / 1e3 + 0.3);
  EXPECT_EQ(residual[1], 0.7 - 1.0);
}

// The hard-start diode string of the gmin-continuation DC solve must land
// on the golden operating point with the golden iteration/level counts.
TEST(StampParity, GminContinuationMatchesGolden) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("top"), n.ground(), shapes::dc(3.0));
  n.add<Diode>("D1", n.node("top"), n.node("m1"));
  n.add<Diode>("D2", n.node("m1"), n.node("m2"));
  n.add<Diode>("D3", n.node("m2"), n.node("m3"));
  n.add<Diode>("D4", n.node("m3"), n.ground());
  n.add<Resistor>("Rload", n.node("m3"), n.ground(), 1e6);
  Simulator sim(n);
  const NewtonStats stats = sim.solveDc();

  const Golden golden("gmin_continuation.golden");
  EXPECT_EQ(stats.converged ? 1 : 0, golden.integerOf("converged"));
  EXPECT_EQ(stats.iterations, golden.integerOf("iterations"));
  EXPECT_EQ(stats.gminEscalations, golden.integerOf("gmin_escalations"));
  const auto voltages = golden.all("v");
  ASSERT_EQ(voltages.size(), 3u);
  for (const auto& v : voltages) {
    ASSERT_EQ(v.size(), 2u);
    golden.expectReal(sim.nodeVoltage(v[0]), v[1], "v(" + v[0] + ")");
  }
}

// A 16x16 deck-generated array under the Table 1 bias scheme: writes of
// both bits, a hold, reads of a '1' and a '0' — the flat sparse-LU array
// solve end to end, down to every cell's final polarization.
TEST(StampParity, Array16Table1MatchesGolden) {
  core::ArrayNetlistConfig config;
  config.rows = 16;
  config.cols = 16;
  core::ArrayNetlist array(config);
  std::vector<std::vector<bool>> pattern(16, std::vector<bool>(16, false));
  pattern[9][12] = true;
  pattern[4][4] = true;
  array.setPattern(pattern);

  struct Op {
    const char* kind;
    int row, col;
    core::ArrayNetOpResult result;
    int bit;
  };
  std::vector<Op> ops;
  const auto write = [&](int r, int c, bool one) {
    auto result = array.writeBit(r, c, one);
    ops.push_back({"write", r, c, std::move(result), array.bitAt(r, c)});
  };
  const auto read = [&](int r, int c) {
    auto result = array.readBit(r, c);
    const int bit = result.bitRead;
    ops.push_back({"read", r, c, std::move(result), bit});
  };
  write(2, 5, true);
  write(9, 12, false);
  ops.push_back({"hold", -1, -1, array.hold(1e-9), 0});
  read(2, 5);
  read(9, 12);

  const Golden golden("array16_table1.golden");
  const auto records = golden.all("op");
  ASSERT_EQ(records.size(), ops.size());
  long steps = 0, newtonIterations = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const auto& g = records[i];
    ASSERT_EQ(g.size(), 7u);
    SCOPED_TRACE(std::string("op ") + std::to_string(i) + " " + op.kind);
    EXPECT_EQ(g[0], op.kind);
    EXPECT_EQ(golden.integer(g[1]), op.row);
    EXPECT_EQ(golden.integer(g[2]), op.col);
    EXPECT_EQ(golden.integer(g[3]), op.result.ok ? 1 : 0);
    EXPECT_EQ(golden.integer(g[4]), op.bit);
    golden.expectReal(op.result.readCurrent, g[5], "read current");
    golden.expectReal(op.result.maxUnaccessedDisturb, g[6],
                      "max unaccessed disturb");
    steps += op.result.stats.steps;
    newtonIterations += op.result.stats.newtonIterations;
  }
  EXPECT_EQ(steps, golden.integerOf("steps"));
  EXPECT_EQ(newtonIterations, golden.integerOf("newton_iterations"));

  const auto cells = golden.all("p");
  ASSERT_EQ(cells.size(), 256u);
  const auto p = array.polarizations();
  for (const auto& cell : cells) {
    ASSERT_EQ(cell.size(), 3u);
    const auto r = static_cast<std::size_t>(golden.integer(cell[0]));
    const auto c = static_cast<std::size_t>(golden.integer(cell[1]));
    ASSERT_LT(r, p.size());
    ASSERT_LT(c, p[r].size());
    golden.expectReal(p[r][c], cell[2],
                      "P(" + cell[0] + "," + cell[1] + ")");
  }
}

// A device whose call sequence deviates from the recorded pattern must be
// caught by the per-device integrity check, not silently corrupt slots.
class ErraticDevice final : public Device {
 public:
  ErraticDevice(std::string name, NodeId a, bool* erratic)
      : Device(std::move(name)), a_(a), erratic_(erratic) {}

  void stamp(const EvalContext& ctx) override {
    const int row = a_ - 1;
    ctx.addResidual(row, 1e-9);
    ctx.addJacobian(row, row, 1e-9);
    if (*erratic_) ctx.addJacobian(row, row, 1e-9);  // extra call
  }

 private:
  NodeId a_;
  bool* erratic_;
};

TEST(StampParity, CallSequenceDeviationIsDiagnosedByName) {
  Netlist n;
  bool erratic = false;
  // The erratic device goes first so its extra call trips the per-device
  // count check (which names it) rather than the end-of-program guard.
  n.add<ErraticDevice>("X1", n.node("a"), &erratic);
  n.add<Resistor>("R1", n.node("a"), n.ground(), 1e3);
  n.freeze();
  Assembler compiled(n.stampPattern(), /*useSparse=*/false);
  std::vector<double> x(static_cast<std::size_t>(n.unknownCount()), 0.0);
  const SystemView view(x, n.nodeCount());
  compiled.assemble(n, view, true, 0.0, 0.0,
                    IntegrationMethod::kBackwardEuler, 0.0);  // in-pattern

  erratic = true;  // now emits one extra addJacobian vs the recording
  try {
    compiled.assemble(n, view, true, 0.0, 0.0,
                      IntegrationMethod::kBackwardEuler, 0.0);
    FAIL() << "deviating call sequence was not diagnosed";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("X1"), std::string::npos)
        << "diagnostic must name the culprit device: " << e.what();
  }
}

}  // namespace
}  // namespace fefet::spice
