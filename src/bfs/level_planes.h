// Output stage of MS-PBFS: turns per-vertex level bit-planes into the
// per-source level rows callers ask for.
//
// While traversing a batch of more than 16 sources and W/16 of its
// width W, on a CPU with the AVX-512 expansion, MS-PBFS records a
// vertex v discovered at depth d by the BFSs in bitset `nf` as
// `plane[p][v] |= nf` for every set bit p of d. Those stores run
// sequentially in v, like the `seen` updates. After the last level one
// pass over 64-vertex blocks rebuilds the levels: for every 64 sources
// it transposes the block's `seen` words and plane words (64x64 bit
// transposes), so each source holds one 64-bit mask per plane, and
// expands the masks into 16-bit levels, kLevelUnreached where the `seen`
// bit is clear. Each source's row of the block is written once,
// contiguously.
//
// The expansion has two implementations with the same contract: an
// AVX-512BW one (32 levels per instruction per plane), which MS-PBFS
// uses, and a portable scalar one, the reference the tests hold the
// SIMD one to.
#ifndef PBFS_BFS_LEVEL_PLANES_H_
#define PBFS_BFS_LEVEL_PLANES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "bfs/common.h"
#include "util/bitset.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PBFS_HAVE_AVX512_EXPAND 1
#include <immintrin.h>
#endif

namespace pbfs {
namespace level_planes {

// One plane per bit of Level.
inline constexpr int kMaxPlanes = 16;
// Vertices per block of the output pass.
inline constexpr int kBlock = 64;

// Planes needed to encode every depth up to `max_depth`.
inline int PlanesFor(Level max_depth) {
  return std::bit_width(static_cast<unsigned>(max_depth));
}

// Transposes a 64x64 bit matrix in place: bit j of m[i] moves to bit i
// of m[j]. Six rounds of block swaps (Hacker's Delight, 7-3).
inline void Transpose64(uint64_t m[64]) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

// Writes the levels of one source for `count` (1..64) consecutive
// vertices: out[j] = kLevelUnreached if bit j of `seen` is clear, else
// the level whose bit p is bit j of masks[p], p < num_planes.
using ExpandFn = void (*)(const uint64_t* masks, int num_planes,
                          uint64_t seen, int count, Level* out);

inline void ExpandScalar(const uint64_t* masks, int num_planes, uint64_t seen,
                         int count, Level* out) {
  for (int j = 0; j < count; ++j) {
    if (((seen >> j) & 1) == 0) {
      out[j] = kLevelUnreached;
      continue;
    }
    unsigned level = 0;
    for (int p = 0; p < num_planes; ++p) {
      level |= static_cast<unsigned>((masks[p] >> j) & 1) << p;
    }
    out[j] = static_cast<Level>(level);
  }
}

#ifdef PBFS_HAVE_AVX512_EXPAND
__attribute__((target("avx512f,avx512bw"))) inline void ExpandAvx512(
    const uint64_t* masks, int num_planes, uint64_t seen, int count,
    Level* out) {
  const __m512i unreached =
      _mm512_set1_epi16(static_cast<short>(kLevelUnreached));
  for (int lo = 0; lo < count; lo += 32) {
    __m512i level = _mm512_setzero_si512();
    for (int p = 0; p < num_planes; ++p) {
      level = _mm512_or_si512(
          level, _mm512_maskz_set1_epi16(static_cast<__mmask32>(masks[p] >> lo),
                                         static_cast<short>(1u << p)));
    }
    level = _mm512_mask_mov_epi16(unreached,
                                  static_cast<__mmask32>(seen >> lo), level);
    const int lanes = std::min(32, count - lo);
    const __mmask32 store =
        lanes == 32 ? ~__mmask32{0} : (__mmask32{1} << lanes) - 1;
    _mm512_mask_storeu_epi16(out + lo, store, level);
  }
}
#endif

// True if this CPU can run ExpandAvx512; probed on the first call.
inline bool HasAvx512Expand() {
#ifdef PBFS_HAVE_AVX512_EXPAND
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw");
  }();
  return has;
#else
  return false;
#endif
}

// The fastest expansion this CPU runs.
inline ExpandFn SelectExpand() {
#ifdef PBFS_HAVE_AVX512_EXPAND
  if (HasAvx512Expand()) return &ExpandAvx512;
#endif
  return &ExpandScalar;
}

// Copies word `w` of `bits[v0 + j]`, j < count, into out[j] and zeroes
// the rest of the block; returns whether any copied word is non-zero.
template <int kBits>
inline bool GatherWords(const Bitset<kBits>* bits, uint64_t v0, int count,
                        int w, uint64_t out[kBlock]) {
  uint64_t any = 0;
  for (int j = 0; j < count; ++j) {
    out[j] = bits[v0 + j].word[w];
    any |= out[j];
  }
  std::fill(out + count, out + kBlock, uint64_t{0});
  return any != 0;
}

// Writes levels[i * n + v] for sources i < k and vertices v in
// [begin, end) from the final `seen` bitsets and the first `num_planes`
// depth planes, and zeroes those planes' entries in [begin, end) so the
// next batch starts from clean planes. Blocks start at `begin`; only the
// last may be partial.
template <int kBits>
void WriteLevelRows(Bitset<kBits>* const* planes, int num_planes,
                    const Bitset<kBits>* seen, uint64_t n, int k,
                    uint64_t begin, uint64_t end, Level* levels,
                    ExpandFn expand) {
  uint64_t seen_words[kBlock];
  uint64_t plane_words[kMaxPlanes][kBlock];
  uint64_t masks[kMaxPlanes];
  for (uint64_t v0 = begin; v0 < end; v0 += kBlock) {
    const int count = static_cast<int>(std::min<uint64_t>(kBlock, end - v0));
    for (int w = 0; w * 64 < k; ++w) {
      if (GatherWords(seen, v0, count, w, seen_words)) {
        Transpose64(seen_words);
      }
      for (int p = 0; p < num_planes; ++p) {
        if (GatherWords(planes[p], v0, count, w, plane_words[p])) {
          Transpose64(plane_words[p]);
        }
      }
      const int rows = std::min(64, k - w * 64);
      for (int i = 0; i < rows; ++i) {
        for (int p = 0; p < num_planes; ++p) masks[p] = plane_words[p][i];
        const uint64_t source = static_cast<uint64_t>(w) * 64 + i;
        expand(masks, num_planes, seen_words[i], count,
               levels + source * n + v0);
      }
    }
    for (int p = 0; p < num_planes; ++p) {
      std::memset(planes[p] + v0, 0, count * sizeof(Bitset<kBits>));
    }
  }
}

}  // namespace level_planes
}  // namespace pbfs

#endif  // PBFS_BFS_LEVEL_PLANES_H_
