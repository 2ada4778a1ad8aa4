// canonical_partition_index against its former implementation. The library
// refines on flat, position-indexed scratch (precomputed edge-end hashes,
// signatures ordered by a sorting network or inserted in sorted order, an
// O(m) class count); this file keeps the refinement it replaced as the
// reference: per round a CSR walk of every node's edges, a per-node
// std::sort of its signatures, and a sort-and-unique class count. Fragment
// assembly needs every hash and rank unchanged, so the two must agree field
// for field on every graph, through the plain overload and through the memo
// overload with a cold and a warm memo. The former canonical_partition_form
// is kept here too: the library writes it and the memo key through one
// writer, and every partition's form must stay byte for byte the same.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/algorithms.hpp"
#include "graph/serialization.hpp"
#include "ml/models.hpp"
#include "paper_examples.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

constexpr std::uint64_t avalanche(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t w) noexcept {
  return avalanche(h ^ (w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::size_t reference_classes(std::span<const NodeId> nodes,
                              const std::vector<std::uint64_t>& hash) {
  std::vector<std::uint64_t> values;
  for (const NodeId v : nodes) values.push_back(hash[static_cast<std::size_t>(v)]);
  std::sort(values.begin(), values.end());
  return static_cast<std::size_t>(std::unique(values.begin(), values.end()) - values.begin());
}

std::uint64_t reference_seed(const TaskGraph& graph, NodeId v, const Rational& level) {
  std::uint64_t h = avalanche(0x73747347ULL);
  h = hash_combine(h, static_cast<std::uint64_t>(graph.kind(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.output_volume(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.input_volume(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.in_degree(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.out_degree(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(level.num()));
  h = hash_combine(h, static_cast<std::uint64_t>(level.den()));
  return h;
}

void reference_refine(const TaskGraph& graph, CanonicalPartitionIndex& index, std::int32_t c) {
  const std::span<const NodeId> nodes = index.nodes(c);
  std::size_t classes = reference_classes(nodes, index.node_hash);
  std::vector<std::uint64_t> next(nodes.size());
  std::vector<std::uint64_t> sig;
  for (int round = 0; round < 32 && classes < nodes.size(); ++round) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      sig.clear();
      for (const EdgeId e : graph.in_edges(v)) {
        const Edge& edge = graph.edge(e);
        sig.push_back(hash_combine(hash_combine(1, static_cast<std::uint64_t>(edge.volume)),
                                   index.node_hash[static_cast<std::size_t>(edge.src)]));
      }
      for (const EdgeId e : graph.out_edges(v)) {
        const Edge& edge = graph.edge(e);
        sig.push_back(hash_combine(hash_combine(2, static_cast<std::uint64_t>(edge.volume)),
                                   index.node_hash[static_cast<std::size_t>(edge.dst)]));
      }
      std::sort(sig.begin(), sig.end());
      std::uint64_t h = index.node_hash[static_cast<std::size_t>(v)];
      for (const std::uint64_t s : sig) h = hash_combine(h, s);
      next[i] = hash_combine(h, sig.size());
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      index.node_hash[static_cast<std::size_t>(nodes[i])] = next[i];
    }
    const std::size_t refined = reference_classes(nodes, index.node_hash);
    if (refined == classes) break;
    classes = refined;
  }
  const auto begin = index.order.begin() + static_cast<std::ptrdiff_t>(
                                               index.offsets[static_cast<std::size_t>(c)]);
  const auto end = index.order.begin() + static_cast<std::ptrdiff_t>(
                                             index.offsets[static_cast<std::size_t>(c) + 1]);
  std::sort(begin, end, [&index](NodeId a, NodeId b) {
    const std::uint64_t ha = index.node_hash[static_cast<std::size_t>(a)];
    const std::uint64_t hb = index.node_hash[static_cast<std::size_t>(b)];
    return ha != hb ? ha < hb : a < b;
  });
  for (auto it = begin; it != end; ++it) {
    index.rank[static_cast<std::size_t>(*it)] = static_cast<std::int32_t>(it - begin);
  }
}

/// The whole former canonical_partition_index: union-find components
/// labeled by minimal id, ascending-id groups, seeds over node_levels, then
/// the refinement above per partition.
CanonicalPartitionIndex reference_index(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  const std::vector<Rational> levels = node_levels(graph);
  CanonicalPartitionIndex index;
  index.component.assign(n, -1);
  index.node_hash.assign(n, 0);
  index.rank.assign(n, 0);
  index.order.resize(n);
  std::vector<NodeId> parent(n);
  for (std::size_t v = 0; v < n; ++v) parent[v] = static_cast<NodeId>(v);
  const auto find = [&parent](NodeId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  for (const Edge& edge : graph.edges()) {
    const NodeId a = find(edge.src);
    const NodeId b = find(edge.dst);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }
  std::int32_t count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = static_cast<std::size_t>(find(static_cast<NodeId>(v)));
    if (index.component[r] < 0) index.component[r] = count++;
    index.component[v] = index.component[r];
  }
  index.count = count;
  index.offsets.assign(static_cast<std::size_t>(count) + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++index.offsets[static_cast<std::size_t>(index.component[v]) + 1];
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(count); ++c) {
    index.offsets[c + 1] += index.offsets[c];
  }
  std::vector<std::size_t> cursor(index.offsets.begin(), index.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    index.order[cursor[static_cast<std::size_t>(index.component[v])]++] = static_cast<NodeId>(v);
  }
  for (std::size_t v = 0; v < n; ++v) {
    index.node_hash[v] = reference_seed(graph, static_cast<NodeId>(v), levels[v]);
  }
  for (std::int32_t c = 0; c < count; ++c) reference_refine(graph, index, c);
  return index;
}

::testing::AssertionResult same_index(const CanonicalPartitionIndex& got,
                                      const CanonicalPartitionIndex& want, const char* path) {
  const char* field = nullptr;
  if (got.count != want.count) {
    field = "count";
  } else if (got.component != want.component) {
    field = "component";
  } else if (got.offsets != want.offsets) {
    field = "offsets";
  } else if (got.order != want.order) {
    field = "order";
  } else if (got.node_hash != want.node_hash) {
    field = "node_hash";
  } else if (got.rank != want.rank) {
    field = "rank";
  }
  if (field == nullptr) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << path << ": " << field << " differs";
}

/// The former canonical_partition_form: node and edge counts, each node's
/// kind and recorded output in canonical order, then each node's out-degree
/// and out-edges as (destination rank, volume). The library now writes it,
/// and the memo key, through one writer parameterized by the node list and
/// the destination coordinates.
std::string reference_form(const TaskGraph& graph, const CanonicalPartitionIndex& index,
                           std::int32_t c) {
  const std::span<const NodeId> nodes = index.nodes(c);
  std::string out;
  const auto put64 = [&out](std::int64_t value) {
    out.append(reinterpret_cast<const char*>(&value), 8);
  };
  std::int64_t local_edges = 0;
  for (const NodeId v : nodes) local_edges += static_cast<std::int64_t>(graph.out_degree(v));
  put64(static_cast<std::int64_t>(nodes.size()));
  put64(local_edges);
  for (const NodeId v : nodes) {
    out.push_back(static_cast<char>(graph.kind(v)));
    const std::int64_t declared = graph.declared_output(v);
    put64(graph.kind(v) != NodeKind::kSink && declared > 0 ? declared : graph.output_volume(v));
  }
  for (const NodeId v : nodes) {
    put64(static_cast<std::int64_t>(graph.out_degree(v)));
    for (const EdgeId e : graph.out_edges(v)) {
      const Edge& edge = graph.edge(e);
      put64(index.rank[static_cast<std::size_t>(edge.dst)]);
      put64(edge.volume);
    }
  }
  return out;
}

/// Every partition's canonical_partition_form, and the form of every memo
/// entry a memo overload returned, against the reference form.
::testing::AssertionResult same_forms(
    const TaskGraph& graph, const CanonicalPartitionIndex& got,
    const CanonicalPartitionIndex& want,
    const std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>>& entries,
    const char* path) {
  for (std::int32_t c = 0; c < want.count; ++c) {
    const std::string form = reference_form(graph, want, c);
    if (canonical_partition_form(graph, got, c) != form) {
      return ::testing::AssertionFailure() << path << ": form of partition " << c << " differs";
    }
    if (!entries.empty() && entries[static_cast<std::size_t>(c)]->form != form) {
      return ::testing::AssertionFailure()
             << path << ": memo entry form of partition " << c << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every overload against the reference: the plain one, and the memo one
/// with a cold memo and then, on the same memo, a warm one. Each also
/// writes the reference's partition forms.
::testing::AssertionResult matches_reference(const TaskGraph& graph) {
  const CanonicalPartitionIndex want = reference_index(graph);
  std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>> entries;
  const CanonicalPartitionIndex plain = canonical_partition_index(graph);
  if (auto r = same_index(plain, want, "plain"); !r) return r;
  if (auto r = same_forms(graph, plain, want, entries, "plain"); !r) return r;
  PartitionCanonMemo memo;
  for (const char* path : {"cold memo", "warm memo"}) {
    const CanonicalPartitionIndex got = canonical_partition_index(graph, &memo, &entries);
    if (auto r = same_index(got, want, path); !r) return r;
    if (auto r = same_forms(graph, got, want, entries, path); !r) return r;
  }
  return ::testing::AssertionSuccess();
}

/// A fuzz-shaped graph in which about one edge in three carries a volume
/// other than its producer's output, so many nodes receive mixed in-edge
/// volumes: invalid, yet acyclic, so it can be canonicalized (a request is
/// canonicalized before anything validates it). Odd seeds append a second
/// such component, which sends the memo overload down its per-partition
/// path.
TaskGraph mixed_volume_graph(std::uint64_t seed) {
  Prng rng(seed * 7 + 3);
  const auto retune = [&rng](const TaskGraph& part) {
    TaskGraph mixed;
    for (NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
      switch (part.kind(v)) {
        case NodeKind::kSource: (void)mixed.add_source(part.declared_output(v)); break;
        case NodeKind::kCompute: (void)mixed.add_compute(); break;
        case NodeKind::kBuffer: (void)mixed.add_buffer(); break;
        case NodeKind::kSink: (void)mixed.add_sink(); break;
      }
      if (part.kind(v) != NodeKind::kSource && part.declared_output(v) > 0) {
        mixed.declare_output(v, part.declared_output(v));
      }
    }
    for (const Edge& edge : part.edges()) {
      const std::int64_t volume =
          rng.uniform_int(0, 2) == 0 ? std::int64_t{1} << rng.uniform_int(0, 3) : edge.volume;
      (void)mixed.add_edge(edge.src, edge.dst, volume);
    }
    return mixed;
  };
  const int shape = static_cast<int>(seed % 4);
  TaskGraph graph =
      retune(make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed)));
  if (seed % 2 == 1) {
    testing::append_component(
        graph,
        retune(make_random_layered(testing::fuzz_spec_for((shape + 2) % 4), seed + 104729,
                                   testing::volumes_for(seed + 1))),
        "b");
  }
  return graph;
}

TEST(RefinementDifferential, FuzzShapesMatchTheFormerRefinement) {
  int graphs = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 1000; ++seed, ++graphs) {
      const TaskGraph graph =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      ASSERT_TRUE(matches_reference(graph)) << "shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_EQ(graphs, 4000);
}

TEST(RefinementDifferential, TwoComponentGraphsMatchTheFormerRefinement) {
  int graphs = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed, ++graphs) {
    const int shape = static_cast<int>(seed % 4);
    TaskGraph graph;
    testing::append_component(
        graph,
        make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed)),
        "a");
    testing::append_component(
        graph,
        make_random_layered(testing::fuzz_spec_for((shape + 1) % 4), seed + 7919,
                            testing::volumes_for(seed / 2)),
        "b");
    ASSERT_TRUE(matches_reference(graph)) << "seed " << seed;
  }
  EXPECT_EQ(graphs, 2000);
}

TEST(RefinementDifferential, BufferGraphsMatchTheFormerRefinement) {
  // Both buffer generators (see PartitionDifferential.BufferGraphsMatchFullScan):
  // every cut_through_buffers graph passes validate().
  int graphs = 0;
  int cut_valid = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 500; ++seed, ++graphs) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const std::uint64_t salt = seed * 4 + static_cast<std::uint64_t>(shape);
      const TaskGraph cut = testing::cut_through_buffers(base, salt);
      cut_valid += cut.validate().empty() ? 1 : 0;
      ASSERT_TRUE(matches_reference(testing::reroute_through_buffers(base, salt)))
          << "shape " << shape << ", seed " << seed;
      ASSERT_TRUE(matches_reference(cut)) << "cut, shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_EQ(graphs, 2000);
  EXPECT_EQ(cut_valid, graphs);
}

TEST(RefinementDifferential, MixedInEdgeVolumesMatchTheFormerRefinement) {
  int graphs = 0;
  int invalid = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed, ++graphs) {
    const TaskGraph graph = mixed_volume_graph(seed);
    invalid += graph.validate().empty() ? 0 : 1;
    ASSERT_TRUE(matches_reference(graph)) << "seed " << seed;
  }
  EXPECT_EQ(graphs, 1500);
  EXPECT_GE(invalid, 1400);
}

TEST(RefinementDifferential, PaperTopologiesMatchTheFormerRefinement) {
  int graphs = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    const int scale = static_cast<int>(seed % 4);  // small to paper size
    for (const TaskGraph& graph :
         {make_chain(2 + 2 * scale, seed, testing::volumes_for(seed)),
          make_fft(4 << scale, seed, testing::volumes_for(seed)),
          make_gaussian_elimination(4 + 4 * scale, seed, testing::volumes_for(seed)),
          make_cholesky(2 + 2 * scale, seed, testing::volumes_for(seed))}) {
      ++graphs;
      ASSERT_TRUE(matches_reference(graph)) << "seed " << seed << ", graph " << graphs;
    }
  }
  for (const TaskGraph& graph :
       {testing::figure6_graph(), testing::figure8_graph(), testing::figure9_graph1(),
        testing::figure9_graph2(), testing::buffer_split_example(), make_fft(64, 1)}) {
    ++graphs;
    ASSERT_TRUE(matches_reference(graph)) << "figure graph " << graphs;
  }
  EXPECT_EQ(graphs, 1006);
}

TEST(RefinementDifferential, HubsMatchTheFormerRefinement) {
  // Dense wide layers give most nodes more than 32 edge ends, the degree
  // above which a node's signatures are sorted instead of inserted.
  int hubs = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    LayeredSpec spec;
    spec.layers = 3 + static_cast<int>(seed % 3);
    spec.width = 40;
    spec.edge_probability = 0.9;
    const TaskGraph graph = make_random_layered(spec, seed, testing::volumes_for(seed));
    for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
      hubs += graph.in_degree(v) + graph.out_degree(v) > 32 ? 1 : 0;
    }
    ASSERT_TRUE(matches_reference(graph)) << "seed " << seed;
  }
  EXPECT_GE(hubs, 1000);
}

TEST(RefinementDifferential, Resnet50MatchesTheFormerRefinement) {
  ASSERT_TRUE(matches_reference(build_resnet50(ResNetConfig{})));
}

TEST(RefinementDifferential, EncoderMatchesTheFormerRefinement) {
  ASSERT_TRUE(matches_reference(build_transformer_encoder(TransformerConfig{})));
}

}  // namespace
}  // namespace sts
