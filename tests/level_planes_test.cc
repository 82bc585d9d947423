// MS-PBFS output stage (bfs/level_planes.h): the bit-plane encoding of
// discovery depths must decode to exactly the levels it encodes, with
// the SIMD and the scalar expansion, for partial batches, widths beyond
// 64 and a vertex count that leaves a partial last block.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/level_planes.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace pbfs {
namespace {

using level_planes::ExpandFn;

// Random levels for k sources over n vertices: unreached, 0, the deepest
// level (0xFFFE) and uniform depths below 2^num_planes, in equal shares.
std::vector<Level> RandomLevels(int k, uint64_t n, int num_planes,
                                uint64_t seed) {
  Rng rng(seed);
  const uint64_t limit = uint64_t{1} << num_planes;
  std::vector<Level> levels(static_cast<size_t>(k) * n);
  for (Level& l : levels) {
    switch (rng.NextBounded(4)) {
      case 0:
        l = kLevelUnreached;
        break;
      case 1:
        l = 0;
        break;
      case 2:
        l = num_planes == level_planes::kMaxPlanes
                ? kMaxLevel
                : static_cast<Level>(limit - 1);
        break;
      default:
        l = static_cast<Level>(rng.NextBounded(
            num_planes == level_planes::kMaxPlanes ? kMaxLevel : limit));
    }
  }
  return levels;
}

// The encoding MS-PBFS builds while traversing: bit i of seen[v] for
// every reached (source i, v), and bit i of planes[p][v] for every set
// bit p of its level.
template <int kBits>
struct Encoded {
  AlignedBuffer<Bitset<kBits>> seen;
  std::vector<AlignedBuffer<Bitset<kBits>>> planes;
  std::vector<Bitset<kBits>*> plane_ptrs;

  Encoded(const std::vector<Level>& levels, int k, uint64_t n,
          int num_planes)
      : seen(n) {
    seen.FillZero();
    for (int p = 0; p < num_planes; ++p) {
      planes.emplace_back(n).FillZero();
      plane_ptrs.push_back(planes.back().data());
    }
    for (int i = 0; i < k; ++i) {
      for (uint64_t v = 0; v < n; ++v) {
        const Level l = levels[i * n + v];
        if (l == kLevelUnreached) continue;
        seen[v].Set(i);
        for (int p = 0; p < num_planes; ++p) {
          if ((l >> p) & 1) planes[p][v].Set(i);
        }
      }
    }
  }
};

// Decodes with `expand` in tasks of `split` vertices (a multiple of 64,
// like the kernel's) and compares with the encoded levels. A guard row
// past the k-th must stay untouched.
template <int kBits>
void ExpectRoundTrip(ExpandFn expand, int k, uint64_t n, int num_planes,
                     uint64_t split, uint64_t seed) {
  const std::vector<Level> expected = RandomLevels(k, n, num_planes, seed);
  Encoded<kBits> enc(expected, k, n, num_planes);
  constexpr Level kPoison = 0x1234;
  std::vector<Level> got(static_cast<size_t>(k + 1) * n, kPoison);
  for (uint64_t b = 0; b < n; b += split) {
    level_planes::WriteLevelRows<kBits>(enc.plane_ptrs.data(), num_planes,
                                        enc.seen.data(), n, k, b,
                                        std::min(n, b + split), got.data(),
                                        expand);
  }
  for (int i = 0; i < k; ++i) {
    for (uint64_t v = 0; v < n; ++v) {
      ASSERT_EQ(got[i * n + v], expected[i * n + v])
          << "W=" << kBits << " k=" << k << " n=" << n
          << " planes=" << num_planes << " source " << i << " vertex " << v;
    }
  }
  for (uint64_t v = 0; v < n; ++v) {
    ASSERT_EQ(got[k * n + v], kPoison) << "row past k written at " << v;
  }
  for (int p = 0; p < num_planes; ++p) {
    for (uint64_t v = 0; v < n; ++v) {
      ASSERT_TRUE(enc.planes[p][v].None()) << "plane " << p << " vertex " << v;
    }
  }
}

void ExpectAllCases(ExpandFn expand) {
  for (uint64_t n : {uint64_t{1000}, uint64_t{70}, uint64_t{128}}) {
    for (int planes : {level_planes::kMaxPlanes, 3, 1}) {
      // Partial words of 1 and 3 sources, a partial and a full word.
      for (int k : {1, 3, 37, 64}) {
        ExpectRoundTrip<64>(expand, k, n, planes, 192, n * 131 + k + planes);
      }
      for (int k : {100, 66}) {
        ExpectRoundTrip<128>(expand, k, n, planes, 128, n * 7 + k + planes);
      }
    }
  }
}

TEST(LevelPlanesTest, TransposeMatchesNaive) {
  Rng rng(5);
  uint64_t m[64];
  uint64_t original[64];
  for (int i = 0; i < 64; ++i) original[i] = m[i] = rng.Next();
  level_planes::Transpose64(m);
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ((m[j] >> i) & 1, (original[i] >> j) & 1) << i << "," << j;
    }
  }
}

TEST(LevelPlanesTest, PlanesForCoversEveryDepth) {
  EXPECT_EQ(level_planes::PlanesFor(0), 0);
  EXPECT_EQ(level_planes::PlanesFor(1), 1);
  EXPECT_EQ(level_planes::PlanesFor(2), 2);
  EXPECT_EQ(level_planes::PlanesFor(3), 2);
  EXPECT_EQ(level_planes::PlanesFor(4096), 13);
  EXPECT_EQ(level_planes::PlanesFor(kMaxLevel), 16);
}

TEST(LevelPlanesTest, ScalarExpansionMatchesReference) {
  ExpectAllCases(&level_planes::ExpandScalar);
}

TEST(LevelPlanesTest, Avx512ExpansionMatchesReference) {
#ifdef PBFS_HAVE_AVX512_EXPAND
  if (!level_planes::HasAvx512Expand()) {
    GTEST_SKIP() << "CPU lacks AVX-512BW";
  }
  ExpectAllCases(&level_planes::ExpandAvx512);
#else
  GTEST_SKIP() << "AVX-512 expansion not built for this architecture";
#endif
}

TEST(LevelPlanesTest, SelectedExpansionMatchesReference) {
  ExpectRoundTrip<64>(level_planes::SelectExpand(), 64, 1000,
                      level_planes::kMaxPlanes, 512, 99);
}

}  // namespace
}  // namespace pbfs
