// Tests of the deck-generated ArrayNetlist end to end on the flat Newton
// solve: Table 1 write/read-back correctness and half-select disturb.
// Its exact trajectory is pinned by StampParity.Array16Table1MatchesGolden.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/array_netlist.h"

namespace fefet {
namespace {

using core::ArrayNetlist;
using core::ArrayNetlistConfig;

ArrayNetlistConfig makeConfig(int rows, int cols) {
  ArrayNetlistConfig config;
  config.rows = rows;
  config.cols = cols;
  return config;
}

TEST(FlatArray, WriteReadBack) {
  ArrayNetlist array(makeConfig(4, 4));
  const auto w1 = array.writeBit(1, 2, true);
  const auto w2 = array.writeBit(3, 0, true);
  EXPECT_TRUE(w1.ok);
  EXPECT_TRUE(w2.ok);
  EXPECT_TRUE(array.hold(0.2e-9).ok);

  const auto one = array.readBit(1, 2);
  EXPECT_TRUE(one.ok);
  EXPECT_TRUE(one.bitRead);
  const auto zero = array.readBit(2, 2);
  EXPECT_TRUE(zero.ok);
  EXPECT_FALSE(zero.bitRead);
  // The sense margin is decades wide: a '1' conducts far above the
  // classification level, a '0' far below it.
  const double threshold = array.config().readCurrentThreshold;
  EXPECT_GT(one.readCurrent, 10.0 * threshold);
  EXPECT_LT(zero.readCurrent, 0.1 * threshold);

  // Overwriting with 0 reads back as 0; every other cell keeps its bit.
  EXPECT_TRUE(array.writeBit(3, 0, false).ok);
  EXPECT_FALSE(array.readBit(3, 0).bitRead);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(array.bitAt(r, c), r == 1 && c == 2)
          << "cell " << r << "," << c;
    }
  }
}

TEST(FlatArray, HalfSelectDisturbStaysBounded) {
  ArrayNetlist array(makeConfig(4, 4));
  std::vector<std::vector<bool>> pattern(4, std::vector<bool>(4, false));
  pattern[0][0] = true;
  pattern[3][3] = true;
  array.setPattern(pattern);
  const auto result = array.writeBit(1, 1, true);
  EXPECT_TRUE(result.ok);
  // Half-selected cells must stay well inside the window (sneak-path-free
  // write per Table 1): disturb under 5% of the memory window.
  const double window = std::abs(array.pOn() - array.pOff());
  EXPECT_LT(result.maxUnaccessedDisturb, 0.05 * window);
  EXPECT_FALSE(array.bitAt(0, 1));
  EXPECT_FALSE(array.bitAt(1, 0));
  EXPECT_TRUE(array.bitAt(0, 0));
  EXPECT_TRUE(array.bitAt(3, 3));
}

}  // namespace
}  // namespace fefet
