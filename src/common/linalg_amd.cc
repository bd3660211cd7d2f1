// linalg_amd.cc — approximate minimum degree ordering (declared in
// linalg.h) for the sparse LU's symbolic analysis.
//
// The elimination graph is never formed.  Instead a quotient graph holds
// two kinds of nodes in one index space: variables (not yet eliminated)
// and elements (eliminated pivots, each standing for the clique its
// elimination would create).  A variable's adjacency list starts with
// the elements it belongs to, followed by its remaining variable
// neighbours; an element's list holds the variables of its clique.
// Eliminating pivot k merges k's elements into one new element Lk, so
// memory never exceeds the original pattern plus one list per pivot.
//
// Degrees are the approximate external degrees of Amestoy, Davis & Duff
// (SIAM J. Matrix Anal. Appl. 17(4), 1996): for each i in Lk,
//   d(i) <= min(d_old(i) + |Lk \ i|,  |Ai \ i| + |Lk \ i| + Σ |Le \ Lk|),
// where the set differences |Le \ Lk| come from one pass over Lk.  On top
// of that: element absorption (an element whose clique lies inside Lk is
// merged into k), mass elimination (a variable adjacent to nothing
// outside Lk is eliminated together with k), supervariables (variables
// with identical lists, found by hashing, are merged and carry a
// weight), and rows denser than 10·sqrt(n) ordered last.  The result is
// the postorder of the assembly tree, which keeps supervariables
// contiguous.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/linalg.h"

namespace fefet::linalg {
namespace {

using Index = std::int64_t;
constexpr Index kNone = -1;
constexpr Index kElement = -2;       ///< elen_ tag of an element
constexpr Index kDeadVariable = -1;  ///< elen_ tag of an absorbed variable

/// std::vector indexed by the signed Index the algorithm computes with
/// (its tags and list links are negative).
class IndexArray {
 public:
  IndexArray(std::size_t n, Index fill) : v_(n, fill) {}
  Index& operator[](Index i) { return v_[static_cast<std::size_t>(i)]; }
  Index operator[](Index i) const { return v_[static_cast<std::size_t>(i)]; }
  Index size() const { return static_cast<Index>(v_.size()); }
  void resize(Index n) { v_.resize(static_cast<std::size_t>(n)); }

 private:
  std::vector<Index> v_;
};

class QuotientGraph {
 public:
  QuotientGraph(std::size_t n, std::span<const std::size_t> adjPtr,
                std::span<const std::size_t> adj);

  std::vector<std::size_t> order();

 private:
  void insertDegree(Index i, Index d);
  void removeDegree(Index i);
  void compact();
  void eliminate(Index k);
  void detectSupervariables(Index pk1, Index pk2);
  std::vector<std::size_t> postorder();

  Index n_;
  // Node n_ is a pseudo-element that adopts the dense variables.
  IndexArray iw_;        ///< adjacency storage of every list
  Index free_ = 0;       ///< iw_[free_..) is unused
  IndexArray pe_;        ///< list start (kNone: no list)
  IndexArray len_;       ///< list length
  IndexArray elen_;      ///< elements at the list front, or a tag
  IndexArray nv_;        ///< supervariable weight (< 0: in Lk)
  IndexArray degree_;    ///< approx. external degree; |Le| of elements
  IndexArray parent_;    ///< assembly tree (kNone: root)
  IndexArray w_;         ///< element marks (0: dead element)
  IndexArray head_;      ///< degree buckets
  IndexArray next_;      ///< bucket / hash chain links
  IndexArray prev_;      ///< bucket back link, or the hash of Lk members
  IndexArray hashHead_;
  Index mark_ = 2;
  Index lemax_ = 0;   ///< largest element degree so far
  Index nel_ = 0;     ///< eliminated weight
  Index mindeg_ = 0;
};

QuotientGraph::QuotientGraph(std::size_t n,
                             std::span<const std::size_t> adjPtr,
                             std::span<const std::size_t> adj)
    : n_(static_cast<Index>(n)),
      iw_(0, 0),
      pe_(n + 1, kNone),
      len_(n + 1, 0),
      elen_(n + 1, 0),
      nv_(n + 1, 1),
      degree_(n + 1, 0),
      parent_(n + 1, kNone),
      w_(n + 1, 1),
      head_(n + 1, kNone),
      next_(n + 1, kNone),
      prev_(n + 1, kNone),
      hashHead_(n + 1, kNone) {
  FEFET_REQUIRE(adjPtr.size() == n + 1,
                "approximateMinimumDegree: adjPtr must have n + 1 entries");
  // Symmetrize into `both` (row r's neighbours at [start[r], start[r+1])),
  // then copy into iw_ without self loops and duplicates.
  IndexArray start(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = adjPtr[r]; p < adjPtr[r + 1]; ++p) {
      const std::size_t c = adj[p];
      FEFET_REQUIRE(c < n, "approximateMinimumDegree: vertex out of range");
      if (c == r) continue;
      ++start[static_cast<Index>(r) + 1];
      ++start[static_cast<Index>(c) + 1];
    }
  }
  for (Index i = 0; i < n_; ++i) start[i + 1] += start[i];
  IndexArray both(static_cast<std::size_t>(start[n_]), 0);
  IndexArray fill(n, 0);
  for (Index i = 0; i < n_; ++i) fill[i] = start[i];
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = adjPtr[r]; p < adjPtr[r + 1]; ++p) {
      const Index i = static_cast<Index>(r);
      const Index j = static_cast<Index>(adj[p]);
      if (i == j) continue;
      both[fill[i]++] = j;
      both[fill[j]++] = i;
    }
  }
  iw_.resize(both.size() + both.size() / 5 + 2 * n_ + 1);
  IndexArray seen(n, kNone);
  for (Index i = 0; i < n_; ++i) {
    pe_[i] = free_;
    for (Index p = start[i]; p < start[i + 1]; ++p) {
      const Index j = both[p];
      if (seen[j] == i) continue;
      seen[j] = i;
      iw_[free_++] = j;
    }
    len_[i] = free_ - pe_[i];
    degree_[i] = len_[i];
  }
}

void QuotientGraph::insertDegree(Index i, Index d) {
  const Index h = head_[d];
  if (h != kNone) prev_[h] = i;
  next_[i] = h;
  prev_[i] = kNone;
  head_[d] = i;
}

void QuotientGraph::removeDegree(Index i) {
  if (next_[i] != kNone) prev_[next_[i]] = prev_[i];
  if (prev_[i] != kNone) {
    next_[prev_[i]] = next_[i];
  } else {
    head_[degree_[i]] = next_[i];
  }
}

void QuotientGraph::compact() {
  // Slide every live list to the front of iw_.  Each list's first entry
  // is parked in `first` and replaced by a negative tag naming its owner,
  // so one left-to-right sweep finds the lists in storage order.
  IndexArray first(static_cast<std::size_t>(n_), 0);
  for (Index j = 0; j < n_; ++j) {
    if (pe_[j] == kNone) continue;
    first[j] = iw_[pe_[j]];
    iw_[pe_[j]] = -j - 1;
  }
  Index q = 0;
  for (Index p = 0; p < free_;) {
    const Index tag = iw_[p++];
    if (tag >= 0) continue;
    const Index j = -tag - 1;
    pe_[j] = q;
    iw_[q++] = first[j];
    for (Index t = 1; t < len_[j]; ++t) iw_[q++] = iw_[p++];
  }
  free_ = q;
}

std::vector<std::size_t> QuotientGraph::order() {
  const Index n = n_;
  const Index sqrtRule =
      static_cast<Index>(10.0 * std::sqrt(static_cast<double>(n)));
  const Index dense = std::min<Index>(n - 2, std::max<Index>(16, sqrtRule));
  for (Index i = 0; i < n; ++i) {
    const Index d = degree_[i];
    if (d == 0) {  // isolated: an element with an empty clique
      elen_[i] = kElement;
      w_[i] = 0;
      pe_[i] = kNone;
      ++nel_;
    } else if (d > dense) {  // ordered last, under the pseudo-element
      nv_[i] = 0;
      elen_[i] = kDeadVariable;
      parent_[i] = n;
      pe_[i] = kNone;
      ++nv_[n];
      ++nel_;
    } else {
      insertDegree(i, d);
    }
  }
  while (nel_ < n) {
    Index k = kNone;
    while (mindeg_ < n && (k = head_[mindeg_]) == kNone) ++mindeg_;
    removeDegree(k);
    eliminate(k);
  }
  return postorder();
}

void QuotientGraph::eliminate(Index k) {
  const Index n = n_;
  const Index elenk = elen_[k];
  Index nvk = nv_[k];
  nel_ += nvk;

  // Lk holds at most degree_[k] variables; make room when it is built
  // outside k's own list.
  if (elenk > 0 && free_ + degree_[k] >= iw_.size()) {
    compact();
    if (free_ + degree_[k] >= iw_.size()) {
      iw_.resize(free_ + degree_[k] + n + 1);
    }
  }

  // --- New element Lk: the union of k's elements and variable neighbours.
  Index dk = 0;
  nv_[k] = -nvk;
  Index p = pe_[k];
  const Index pk1 = elenk == 0 ? p : free_;  // in place if k has no elements
  Index pk2 = pk1;
  for (Index k1 = 0; k1 <= elenk; ++k1) {
    Index e = k;
    Index pj = p;
    Index ln = len_[k] - elenk;
    if (k1 < elenk) {
      e = iw_[p++];
      pj = pe_[e];
      ln = len_[e];
    }
    for (Index t = 0; t < ln; ++t) {
      const Index i = iw_[pj++];
      const Index nvi = nv_[i];
      if (nvi <= 0) continue;  // dead, or already in Lk
      dk += nvi;
      nv_[i] = -nvi;
      if (pk2 == iw_.size()) iw_.resize(iw_.size() + n + 1);
      iw_[pk2++] = i;
      removeDegree(i);
    }
    if (e != k) {  // absorb e into k
      parent_[e] = k;
      w_[e] = 0;
      pe_[e] = kNone;
    }
  }
  if (elenk != 0) free_ = pk2;
  degree_[k] = dk;
  pe_[k] = pk1;
  len_[k] = pk2 - pk1;
  elen_[k] = kElement;

  // --- w_[e] - mark_ = |Le \ Lk| for every element e adjacent to Lk.
  for (Index pk = pk1; pk < pk2; ++pk) {
    const Index i = iw_[pk];
    const Index eln = elen_[i];
    if (eln <= 0) continue;
    const Index nvi = -nv_[i];
    for (Index q = pe_[i]; q < pe_[i] + eln; ++q) {
      const Index e = iw_[q];
      if (w_[e] >= mark_) {
        w_[e] -= nvi;
      } else if (w_[e] != 0) {
        w_[e] = degree_[e] + mark_ - nvi;
      }
    }
  }

  // --- Degree update of every i in Lk; prunes i's lists and hashes them.
  for (Index pk = pk1; pk < pk2; ++pk) {
    const Index i = iw_[pk];
    const Index p1 = pe_[i];
    const Index p2 = p1 + elen_[i];  // end of i's element part
    Index pn = p1;
    std::uint64_t hash = 0;
    Index d = 0;
    for (Index q = p1; q < p2; ++q) {
      const Index e = iw_[q];
      if (w_[e] == 0) continue;  // absorbed element
      const Index dext = w_[e] - mark_;
      if (dext > 0) {
        d += dext;
        iw_[pn++] = e;
        hash += static_cast<std::uint64_t>(e);
      } else {  // Le lies inside Lk: aggressive absorption into k
        parent_[e] = k;
        w_[e] = 0;
        pe_[e] = kNone;
      }
    }
    elen_[i] = pn - p1 + 1;  // the kept elements plus k
    const Index p3 = pn;
    for (Index q = p2; q < p1 + len_[i]; ++q) {
      const Index j = iw_[q];
      if (nv_[j] <= 0) continue;  // dead, or in Lk (now reached through k)
      d += nv_[j];
      iw_[pn++] = j;
      hash += static_cast<std::uint64_t>(j);
    }
    if (d == 0) {  // mass elimination: nothing outside Lk
      const Index nvi = -nv_[i];
      parent_[i] = k;
      dk -= nvi;
      nvk += nvi;
      nel_ += nvi;
      nv_[i] = 0;
      elen_[i] = kDeadVariable;
      pe_[i] = kNone;
      continue;
    }
    degree_[i] = std::min(degree_[i], d);
    // Put k first: [k, kept elements..., variables...].  The list shrank
    // by at least one (k was reached through an element of Ek or as a
    // direct neighbour), so there is room.
    iw_[pn] = iw_[p3];
    iw_[p3] = iw_[p1];
    iw_[p1] = k;
    len_[i] = pn - p1 + 1;
    const Index h = static_cast<Index>(hash % static_cast<std::uint64_t>(n));
    next_[i] = hashHead_[h];
    hashHead_[h] = i;
    prev_[i] = h;
  }
  degree_[k] = dk;
  lemax_ = std::max(lemax_, dk);
  mark_ += lemax_;  // every w_ set above is now below mark_

  detectSupervariables(pk1, pk2);

  // --- Finalize Lk: reinsert its live variables with their new degrees.
  Index p4 = pk1;
  for (Index pk = pk1; pk < pk2; ++pk) {
    const Index i = iw_[pk];
    const Index nvi = -nv_[i];
    if (nvi <= 0) continue;  // absorbed meanwhile
    nv_[i] = nvi;
    const Index d = std::min(degree_[i] + dk - nvi, n - nel_ - nvi);
    degree_[i] = d;
    insertDegree(i, d);
    mindeg_ = std::min(mindeg_, d);
    iw_[p4++] = i;
  }
  nv_[k] = nvk;
  len_[k] = p4 - pk1;
  if (len_[k] == 0) {  // k is a root of the assembly tree
    parent_[k] = kNone;
    w_[k] = 0;
    pe_[k] = kNone;
  }
  if (elenk != 0) free_ = p4;
}

void QuotientGraph::detectSupervariables(Index pk1, Index pk2) {
  // Variables of Lk sharing a hash bucket are compared list against
  // list (k, always first, is skipped); identical ones merge into the
  // first, which takes over their weight.
  for (Index pk = pk1; pk < pk2; ++pk) {
    const Index member = iw_[pk];
    if (nv_[member] >= 0) continue;  // mass-eliminated or already merged
    const Index h = prev_[member];
    Index i = hashHead_[h];
    hashHead_[h] = kNone;
    for (; i != kNone && next_[i] != kNone; i = next_[i], ++mark_) {
      const Index ln = len_[i];
      const Index eln = elen_[i];
      for (Index q = pe_[i] + 1; q < pe_[i] + ln; ++q) w_[iw_[q]] = mark_;
      Index jlast = i;
      for (Index j = next_[i]; j != kNone;) {
        bool same = len_[j] == ln && elen_[j] == eln;
        for (Index q = pe_[j] + 1; same && q < pe_[j] + ln; ++q) {
          same = w_[iw_[q]] == mark_;
        }
        if (same) {  // j is indistinguishable from i
          parent_[j] = i;
          nv_[i] += nv_[j];
          nv_[j] = 0;
          elen_[j] = kDeadVariable;
          pe_[j] = kNone;
          j = next_[j];
          next_[jlast] = j;
        } else {
          jlast = j;
          j = next_[j];
        }
      }
    }
  }
}

std::vector<std::size_t> QuotientGraph::postorder() {
  // Children lists of the assembly tree: absorbed variables first, then
  // elements pushed in front of them, so a depth-first walk emits child
  // elements, then the merged variables, then the parent.
  const Index n = n_;
  IndexArray child(static_cast<std::size_t>(n) + 1, kNone);
  IndexArray sibling(static_cast<std::size_t>(n) + 1, kNone);
  for (Index j = n; j >= 0; --j) {
    if (nv_[j] > 0) continue;
    sibling[j] = child[parent_[j]];
    child[parent_[j]] = j;
  }
  for (Index e = n; e >= 0; --e) {
    if (nv_[e] <= 0 || parent_[e] == kNone) continue;
    sibling[e] = child[parent_[e]];
    child[parent_[e]] = e;
  }
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(n) + 1);
  std::vector<Index> stack;
  for (Index root = 0; root <= n; ++root) {
    if (parent_[root] != kNone) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const Index top = stack.back();
      const Index c = child[top];
      if (c == kNone) {
        stack.pop_back();
        if (top != n) out.push_back(static_cast<std::size_t>(top));
      } else {
        child[top] = sibling[c];
        stack.push_back(c);
      }
    }
  }
  FEFET_REQUIRE(out.size() == static_cast<std::size_t>(n),
                "approximateMinimumDegree: ordering lost a vertex");
  return out;
}

}  // namespace

std::vector<std::size_t> approximateMinimumDegree(
    std::size_t n, std::span<const std::size_t> adjPtr,
    std::span<const std::size_t> adj) {
  if (n == 0) return {};
  return QuotientGraph(n, adjPtr, adj).order();
}

}  // namespace fefet::linalg
