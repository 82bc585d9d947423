#include "graph/sort_unique.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace pbfs {

size_t SortUniqueNeighbors(Vertex* begin, Vertex* end, Vertex n,
                           std::vector<uint64_t>* bitmap) {
  const size_t degree = static_cast<size_t>(end - begin);
  if (degree < 2 || degree < n / kBitmapSortDivisor) {
    std::sort(begin, end);
    return static_cast<size_t>(std::unique(begin, end) - begin);
  }
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  if (bitmap->empty()) bitmap->assign(words, 0);
  PBFS_CHECK(bitmap->size() == words);
  uint64_t* bits = bitmap->data();
  Vertex lo = n;
  Vertex hi = 0;
  for (const Vertex* p = begin; p != end; ++p) {
    const Vertex v = *p;
    bits[v / 64] |= uint64_t{1} << (v % 64);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  Vertex* out = begin;
  for (size_t w = lo / 64; w <= hi / 64; ++w) {
    uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const Vertex base = static_cast<Vertex>(w * 64);
    do {
      *out++ = base + static_cast<Vertex>(std::countr_zero(word));
      word &= word - 1;
    } while (word != 0);
  }
  return static_cast<size_t>(out - begin);
}

}  // namespace pbfs
