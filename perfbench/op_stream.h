// op_stream.h — seeded inputs of the benchmark workloads.
//
// The generator is a self-contained splitmix64, so a seed yields the same
// op stream on every platform and standard library (std::mt19937 is
// portable but the std distributions are not).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  int below(int n);

 private:
  std::uint64_t state_;
};

enum class OpKind { kWrite, kRead, kHold };

const char* toString(OpKind kind);

struct ArrayOp {
  OpKind kind = OpKind::kHold;
  int row = 0;
  int col = 0;
  bool value = false;  ///< written bit (writes only)

  bool operator==(const ArrayOp&) const = default;
};

/// Endless random-cell op stream over an R x C array.  Op kinds repeat
/// the `kinds` template ('W', 'R', 'H'), so the mix is exact in every run
/// however short; cells and written values are drawn from the seed.
class ArrayOpStream {
 public:
  ArrayOpStream(std::uint64_t seed, int rows, int cols, std::string kinds);
  ArrayOp next();

 private:
  SplitMix64 rng_;
  int rows_;
  int cols_;
  std::string kinds_;
  std::size_t position_ = 0;
};

/// Seeded initial contents of an R x C array (row-major rows of bits).
std::vector<std::vector<bool>> initialPattern(std::uint64_t seed, int rows,
                                              int cols);

}  // namespace perfbench
