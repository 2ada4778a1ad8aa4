#include "workloads/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/serialization.hpp"
#include "support/hash.hpp"
#include "support/prng.hpp"

namespace sts {
namespace {

TEST(Workloads, TaskCountFormulasMatchPaper) {
  // Section 7.1 quotes exactly these sizes for the evaluated graphs.
  EXPECT_EQ(chain_task_count(8), 8);
  EXPECT_EQ(fft_task_count(32), 223);
  EXPECT_EQ(gaussian_task_count(16), 135);
  EXPECT_EQ(cholesky_task_count(8), 120);
}

TEST(Workloads, FftTaskCountValidatesLikeMakeFft) {
  // The formula (and the old shift-based log2) is only defined for powers of
  // two; anything else must throw instead of silently miscounting or hitting
  // shift UB.
  EXPECT_THROW((void)fft_task_count(0), std::invalid_argument);
  EXPECT_THROW((void)fft_task_count(-8), std::invalid_argument);
  EXPECT_THROW((void)fft_task_count(1), std::invalid_argument);
  EXPECT_THROW((void)fft_task_count(24), std::invalid_argument);
  EXPECT_THROW((void)fft_task_count(std::numeric_limits<int>::max()), std::invalid_argument);
  // Huge powers of two stay defined (the old `1 << bits` overflowed int).
  EXPECT_EQ(fft_task_count(1 << 20), 2 * (1LL << 20) - 1 + 20 * (1LL << 20));
  EXPECT_EQ(fft_task_count(1 << 30), 2 * (1LL << 30) - 1 + 30 * (1LL << 30));
}

TEST(Workloads, MakeFftRejectsOverflowingPointCounts) {
  EXPECT_THROW((void)make_fft(0, 1), std::invalid_argument);
  EXPECT_THROW((void)make_fft(24, 1), std::invalid_argument);
  // Valid power of two, but the node-id space (int32) would overflow.
  EXPECT_THROW((void)make_fft(1 << 21, 1), std::invalid_argument);
}

TEST(Workloads, GeneratorsMatchFormulas) {
  EXPECT_EQ(make_chain(8, 1).node_count(), 8u);
  EXPECT_EQ(make_fft(32, 1).node_count(), 223u);
  EXPECT_EQ(make_gaussian_elimination(16, 1).node_count(), 135u);
  EXPECT_EQ(make_cholesky(8, 1).node_count(), 120u);
}

TEST(Workloads, AllGraphsValidateAsCanonical) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    EXPECT_TRUE(make_chain(8, seed).validate().empty()) << seed;
    EXPECT_TRUE(make_fft(16, seed).validate().empty()) << seed;
    EXPECT_TRUE(make_gaussian_elimination(8, seed).validate().empty()) << seed;
    EXPECT_TRUE(make_cholesky(6, seed).validate().empty()) << seed;
  }
}

TEST(Workloads, DeterministicPerSeed) {
  const TaskGraph a = make_fft(16, 5);
  const TaskGraph b = make_fft(16, 5);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < a.node_count(); ++v) {
    EXPECT_EQ(a.output_volume(v), b.output_volume(v));
  }
  const TaskGraph c = make_fft(16, 6);
  bool any_diff = false;
  for (NodeId v = 0; static_cast<std::size_t>(v) < a.node_count(); ++v) {
    any_diff = any_diff || (a.output_volume(v) != c.output_volume(v));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workloads, SeedsProduceNodeTypeVariety) {
  // "each task graph will have different data volumes and types of canonical
  // nodes" (Section 7.1).
  const TaskGraph g = make_gaussian_elimination(8, 3);
  int up = 0, down = 0, elwise = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.kind(v) != NodeKind::kCompute) continue;
    if (g.is_upsampler(v)) ++up;
    if (g.is_downsampler(v)) ++down;
    if (g.is_elementwise(v)) ++elwise;
  }
  EXPECT_GT(up + down + elwise, 0);
  EXPECT_GT(up, 0);
  EXPECT_GT(down, 0);
}

TEST(Workloads, ChainIsALine) {
  const TaskGraph g = make_chain(5, 2);
  EXPECT_EQ(g.edge_count(), 4u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_LE(g.out_degree(v), 1u);
    EXPECT_LE(g.in_degree(v), 1u);
  }
  EXPECT_EQ(g.kind(0), NodeKind::kSource);
}

TEST(Workloads, FftStructure) {
  const int points = 8;
  const TaskGraph g = make_fft(points, 1);
  // 2N-1 tree nodes + N log N butterflies.
  EXPECT_EQ(g.node_count(), 15u + 24u);
  // Butterflies have exactly two predecessors.
  for (NodeId v = 15; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    EXPECT_EQ(g.in_degree(v), 2u) << "butterfly " << v;
  }
  // Exactly one source: the tree root.
  int sources = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.in_degree(v) == 0) ++sources;
  }
  EXPECT_EQ(sources, 1);
}

TEST(Workloads, GaussianStructure) {
  const TaskGraph g = make_gaussian_elimination(5, 1);
  EXPECT_EQ(g.node_count(), static_cast<std::size_t>(gaussian_task_count(5)));
  int sources = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.in_degree(v) == 0) ++sources;
  }
  EXPECT_EQ(sources, 1);  // the first pivot
}

TEST(Workloads, CholeskyStructure) {
  const TaskGraph g = make_cholesky(5, 1);
  EXPECT_EQ(g.node_count(), static_cast<std::size_t>(cholesky_task_count(5)));
  // POTRF(0) is the only entry.
  int sources = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.in_degree(v) == 0) ++sources;
  }
  EXPECT_EQ(sources, 1);
}

TEST(Workloads, CoPredecessorClassesShareVolumes) {
  // Canonicity mechanics: all predecessors of any node emit equal volumes.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const TaskGraph g = make_fft(16, seed);
    for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
      const auto ins = g.in_edges(v);
      for (const EdgeId e : ins) {
        EXPECT_EQ(g.edge(e).volume, g.edge(ins.front()).volume) << "node " << v;
      }
    }
  }
}

TEST(Workloads, VolumeDistributionRespected) {
  VolumeDistribution dist;
  dist.min_log2 = 2;
  dist.max_log2 = 4;
  const TaskGraph g = make_chain(20, 9, dist);
  for (NodeId v = 0; v < 20; ++v) {
    const auto vol = g.output_volume(v);
    EXPECT_GE(vol, 4);
    EXPECT_LE(vol, 16);
    EXPECT_EQ(vol & (vol - 1), 0) << "power of two";
  }
}

TEST(Workloads, InputGuards) {
  EXPECT_THROW(make_chain(0, 1), std::invalid_argument);
  EXPECT_THROW(make_fft(12, 1), std::invalid_argument);
  EXPECT_THROW(make_gaussian_elimination(1, 1), std::invalid_argument);
  EXPECT_THROW(make_cholesky(1, 1), std::invalid_argument);
}

// ------------------------------------------------ pinned generator output
// perfbench builds its paper sets and huge_delta bases from these
// generators, so its schedules, and speedup_geomean with them, depend on the
// exact graphs they return. The table pins fnv1a64(canonical_fingerprint)
// of each for three seeds. A change to any returned graph (an id, a kind, a
// volume, an edge) fails here before it shifts a benchmark.

/// The graph a row of the pinned-generator table names.
TaskGraph pinned_graph(std::string_view generator, std::uint64_t seed) {
  if (generator == "chain-8") return make_chain(8, seed);
  if (generator == "fft-32") return make_fft(32, seed);
  if (generator == "gaussian-16") return make_gaussian_elimination(16, seed);
  if (generator == "cholesky-8") return make_cholesky(8, seed);
  if (generator == "layered") return make_random_layered(LayeredSpec{}, seed);
  if (generator == "layered-wide") {
    LayeredSpec spec;
    spec.layers = 4;
    spec.width = 12;
    spec.edge_probability = 0.15;
    return make_random_layered(spec, seed, VolumeDistribution{4, 5});
  }
  // canonical_from_topology over a 25 x 40 layered component in which every
  // node draws three predecessors from the layer above: the shape of the
  // components perfbench's huge_delta bases are built from.
  Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t layer = 1; layer < 25; ++layer) {
    for (std::int32_t v = layer * 40; v < (layer + 1) * 40; ++v) {
      for (int k = 0; k < 3; ++k) {
        edges.emplace_back((layer - 1) * 40 + static_cast<std::int32_t>(rng.uniform_int(0, 39)), v);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return canonical_from_topology(1000, edges, seed);
}

TEST(Workloads, GeneratorOutputIsPinned) {
  struct Pin {
    std::string_view generator;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"chain-8", 1, 0x92130b740204d7b9ULL},
      {"chain-8", 7, 0x1926195aaee76c2dULL},
      {"chain-8", 42, 0xe7a1b61147b51638ULL},
      {"fft-32", 1, 0xbc03992c46257ea4ULL},
      {"fft-32", 7, 0x0cce64c588a2bfe5ULL},
      {"fft-32", 42, 0xbfab80494310d977ULL},
      {"gaussian-16", 1, 0x72a2dea680ebfc76ULL},
      {"gaussian-16", 7, 0xdb65f2f660ba67a2ULL},
      {"gaussian-16", 42, 0x2c3b068afbf56ca5ULL},
      {"cholesky-8", 1, 0xac5fc9addf1cb941ULL},
      {"cholesky-8", 7, 0xc9b70b54d4a6dd5cULL},
      {"cholesky-8", 42, 0x28102a3aa9c17ce5ULL},
      {"layered", 1, 0x9405d789058530f9ULL},
      {"layered", 7, 0x8cb66cba1c3f60f7ULL},
      {"layered", 42, 0x9f41566ba006deb4ULL},
      {"layered-wide", 1, 0x8ea76da912842388ULL},
      {"layered-wide", 7, 0x4804c9f2ec028d49ULL},
      {"layered-wide", 42, 0x0af7f34e52f81f00ULL},
      {"fan-in", 1, 0x8f4e7d19ee3958e6ULL},
      {"fan-in", 7, 0x77284f1632cdc884ULL},
      {"fan-in", 42, 0xfd3e59e0e815df30ULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(fnv1a64(canonical_fingerprint(pinned_graph(pin.generator, pin.seed))), pin.digest)
        << pin.generator << ", seed " << pin.seed;
  }
}

}  // namespace
}  // namespace sts
