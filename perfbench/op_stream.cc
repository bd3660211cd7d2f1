#include "op_stream.h"

#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int SplitMix64::below(int n) {
  return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

const char* toString(OpKind kind) {
  switch (kind) {
    case OpKind::kWrite:
      return "write";
    case OpKind::kRead:
      return "read";
    case OpKind::kHold:
      return "hold";
  }
  return "?";
}

ArrayOpStream::ArrayOpStream(std::uint64_t seed, int rows, int cols,
                             std::string kinds)
    : rng_(seed), rows_(rows), cols_(cols), kinds_(std::move(kinds)) {
  if (rows < 1 || cols < 1 || kinds_.empty() ||
      kinds_.find_first_not_of("WRH") != std::string::npos) {
    throw std::invalid_argument("ArrayOpStream: bad array size or kinds");
  }
}

ArrayOp ArrayOpStream::next() {
  ArrayOp op;
  const char kind = kinds_[position_++ % kinds_.size()];
  op.kind = kind == 'W'   ? OpKind::kWrite
            : kind == 'R' ? OpKind::kRead
                          : OpKind::kHold;
  op.row = rng_.below(rows_);
  op.col = rng_.below(cols_);
  op.value = (rng_.next() & 1U) != 0;
  return op;
}

std::vector<std::vector<bool>> initialPattern(std::uint64_t seed, int rows,
                                              int cols) {
  SplitMix64 rng(seed ^ 0x5eedba5eULL);
  std::vector<std::vector<bool>> bits(static_cast<std::size_t>(rows));
  for (auto& row : bits) {
    for (int c = 0; c < cols; ++c) row.push_back((rng.next() & 1U) != 0);
  }
  return bits;
}

}  // namespace perfbench
