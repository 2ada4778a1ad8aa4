// Incremental rescheduling coverage: canonical partition fingerprints must be
// invariant under node-id renumbering (fuzzed permutations), graph-edit lists
// must round-trip (edit + undo == base, bit-for-bit), fragment assembly must
// reproduce a cold schedule's result_fingerprint for every registry
// scheduler, and the delta request path (base_key + edits) through
// ScheduleService / ShardRouter must equal a cold schedule of the edited
// graph while reusing every untouched partition's fragment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/graph_edit.hpp"
#include "graph/serialization.hpp"
#include "graph/task_graph.hpp"
#include "paper_examples.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "support/json.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

/// Renumbers `g` so new node j is old node order[j], preserving kinds, names,
/// declared outputs, and the global edge insertion order (which preserves
/// each node's out-edge insertion order — the part the canonical form pins).
TaskGraph renumber(const TaskGraph& g, const std::vector<NodeId>& order) {
  std::vector<NodeId> new_id(g.node_count());
  for (std::size_t j = 0; j < order.size(); ++j) {
    new_id[static_cast<std::size_t>(order[j])] = static_cast<NodeId>(j);
  }
  TaskGraph out;
  for (std::size_t j = 0; j < order.size(); ++j) {
    const NodeId v = order[j];
    switch (g.kind(v)) {
      case NodeKind::kSource:
        out.add_source(g.declared_output(v), g.name(v));
        break;
      case NodeKind::kCompute: {
        const NodeId lv = out.add_compute(g.name(v));
        if (g.declared_output(v) > 0) out.declare_output(lv, g.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId lv = out.add_buffer(g.name(v));
        if (g.declared_output(v) > 0) out.declare_output(lv, g.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        out.add_sink(g.name(v));
        break;
    }
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    out.add_edge(new_id[static_cast<std::size_t>(edge.src)],
                 new_id[static_cast<std::size_t>(edge.dst)], edge.volume);
  }
  return out;
}

/// True when the structural refinement separated every node of every
/// partition (no tied hashes). Tied families fall back to original-id order
/// — documented to possibly miss the cache under renumbering — so the strict
/// invariance assertions only apply to separated graphs.
bool wl_separated(const TaskGraph& g) {
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  for (std::int32_t c = 0; c < index.count; ++c) {
    const auto nodes = index.nodes(c);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(nodes.size());
    for (const NodeId v : nodes) hashes.push_back(index.node_hash[static_cast<std::size_t>(v)]);
    std::sort(hashes.begin(), hashes.end());
    if (std::adjacent_find(hashes.begin(), hashes.end()) != hashes.end()) return false;
  }
  return true;
}

/// Sorted multiset of the graph's canonical partition forms — the
/// renumbering-invariant identity of its connected partitions.
std::vector<std::string> partition_forms(const TaskGraph& g) {
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  std::vector<std::string> forms;
  forms.reserve(static_cast<std::size_t>(index.count));
  for (std::int32_t c = 0; c < index.count; ++c) {
    forms.push_back(canonical_partition_form(g, index, c));
  }
  std::sort(forms.begin(), forms.end());
  return forms;
}

/// A multi-component graph: several random layered components with
/// heterogeneous volumes (WL-separable, so canonicalization is stable under
/// permutation), built as one graph.
TaskGraph multi_component_graph(int components, std::uint64_t seed) {
  TaskGraph g;
  for (int c = 0; c < components; ++c) {
    LayeredSpec spec;
    spec.layers = 3 + c % 3;
    spec.width = 2 + c % 4;
    spec.edge_probability = 0.3;
    const TaskGraph part = make_random_layered(spec, seed + static_cast<std::uint64_t>(c));
    const auto base = static_cast<NodeId>(g.node_count());
    for (NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
      switch (part.kind(v)) {
        case NodeKind::kSource:
          g.add_source(part.declared_output(v));
          break;
        case NodeKind::kCompute: {
          const NodeId nv = g.add_compute();
          if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
          break;
        }
        case NodeKind::kBuffer: {
          const NodeId nv = g.add_buffer();
          if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
          break;
        }
        case NodeKind::kSink:
          g.add_sink();
          break;
      }
    }
    for (EdgeId e = 0; static_cast<std::size_t>(e) < part.edge_count(); ++e) {
      const Edge& edge = part.edge(e);
      g.add_edge(base + edge.src, base + edge.dst, edge.volume);
    }
  }
  return g;
}

/// First seed at or after `seed` whose multi_component_graph the refinement
/// fully separates — tests asserting strict fragment reuse start from a
/// deterministic separated instance instead of hoping about one seed.
TaskGraph separated_multi_component_graph(int components, std::uint64_t seed) {
  for (std::uint64_t s = seed; s < seed + 64; ++s) {
    TaskGraph g = multi_component_graph(components, s);
    if (wl_separated(g)) return g;
  }
  throw std::logic_error("no separated instance in 64 seeds — generator changed?");
}

/// The canonicity-safe one-node retune: rescale the declared output of the
/// first exit compute node (no out-edges, so no edge volume must agree).
/// Touches exactly one partition; every other partition's form is unchanged.
std::vector<GraphEdit> retune_exit(const TaskGraph& g, std::int64_t factor) {
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.kind(v) == NodeKind::kCompute && g.out_degree(v) == 0 && g.declared_output(v) > 0) {
      return {GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, v, -1, -1,
                        g.declared_output(v) * factor, ""}};
    }
  }
  throw std::logic_error("retune_exit: graph has no exit compute node");
}

void expect_same_index(const CanonicalPartitionIndex& a, const CanonicalPartitionIndex& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.node_hash, b.node_hash);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.offsets, b.offsets);
}

// ------------------------------------------------- canonical partition index

TEST(CanonicalPartitionIndex, ComponentsPartitionTheNodeSet) {
  const TaskGraph g = multi_component_graph(4, 11);
  const CanonicalPartitionIndex index = canonical_partition_index(g);
  // At least the 4 requested components; layer-0 sources nobody picked as a
  // predecessor stay isolated and add singleton partitions.
  EXPECT_GE(index.count, 4);
  std::set<NodeId> seen;
  for (std::int32_t c = 0; c < index.count; ++c) {
    for (const NodeId v : index.nodes(c)) {
      EXPECT_EQ(index.component[static_cast<std::size_t>(v)], c);
      EXPECT_TRUE(seen.insert(v).second) << "node " << v << " listed twice";
    }
  }
  EXPECT_EQ(seen.size(), g.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    const std::int32_t c = index.component[static_cast<std::size_t>(v)];
    const auto nodes = index.nodes(c);
    const auto at = nodes.begin() + index.rank[static_cast<std::size_t>(v)];
    EXPECT_EQ(*at, v) << "rank must be the node's position in its component order";
  }
}

TEST(CanonicalPartitionIndex, MaterializedPartitionRecanonicalizesToItself) {
  // Separated and tied partitions alike (tied hashes fall back to id order),
  // plus the paper topologies the serving benchmark schedules cold.
  std::vector<TaskGraph> graphs = {multi_component_graph(3, 23), make_fft(32, 1),
                                   make_gaussian_elimination(16, 1), make_cholesky(8, 1),
                                   make_chain(8, 1)};
  int tied = 0;
  for (std::uint64_t seed = 100; seed < 164 && tied < 3; ++seed) {
    TaskGraph g = multi_component_graph(4, seed);
    if (wl_separated(g)) continue;
    graphs.push_back(std::move(g));
    ++tied;
  }
  ASSERT_GT(tied, 0) << "no tied instance in 64 seeds — generator changed?";

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const TaskGraph& g = graphs[i];
    const CanonicalPartitionIndex index = canonical_partition_index(g);
    for (std::int32_t c = 0; c < index.count; ++c) {
      SCOPED_TRACE("graph " + std::to_string(i) + " partition " + std::to_string(c));
      const std::string form = canonical_partition_form(g, index, c);
      const TaskGraph local = materialize_partition(g, index, c);
      const CanonicalPartitionIndex local_index = canonical_partition_index(local);
      ASSERT_EQ(local_index.count, 1);
      EXPECT_EQ(canonical_partition_form(local, local_index, 0), form)
          << "re-canonicalizing a materialized partition must be the identity";
      // The index fragment scheduling hands the partition's pipeline instead
      // of canonicalizing it again.
      expect_same_index(materialized_partition_index(index, c), local_index);
    }
  }
}

TEST(CanonicalPartitionIndex, FormsInvariantUnderFuzzedPermutations) {
  std::mt19937 rng(20230807);
  int separated = 0;
  for (int round = 0; round < 12; ++round) {
    const TaskGraph g = multi_component_graph(2 + round % 4, 100 + static_cast<std::uint64_t>(round));
    // Tied structural hashes (symmetric twins) legitimately break invariance
    // (documented fallback to original-id order), so only separated graphs
    // carry the strict assertion.
    if (!wl_separated(g)) continue;
    ++separated;
    const std::vector<std::string> base_forms = partition_forms(g);
    std::vector<NodeId> order(g.node_count());
    std::iota(order.begin(), order.end(), 0);
    for (int p = 0; p < 3; ++p) {
      std::shuffle(order.begin(), order.end(), rng);
      const TaskGraph permuted = renumber(g, order);
      EXPECT_EQ(partition_forms(permuted), base_forms)
          << "round " << round << " permutation " << p
          << ": canonical partition forms must not depend on node numbering";
    }
  }
  EXPECT_GE(separated, 6) << "refinement should separate most random layered graphs";
}

TEST(CanonicalPartitionIndex, PermutedGraphReusesEveryFragment) {
  const TaskGraph g = separated_multi_component_graph(4, 77);
  const auto n = static_cast<std::uint64_t>(canonical_partition_index(g).count);
  std::mt19937 rng(99);
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const TaskGraph permuted = renumber(g, order);

  MachineConfig machine;
  machine.num_pes = 4;
  SubgraphCache cache;
  const ScheduleResult first = schedule_with_subgraph_cache("streaming-rlx", g, machine, cache);
  const SubgraphCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.partition_misses, n);
  EXPECT_EQ(after_first.partition_hits, 0u);

  const ScheduleResult second =
      schedule_with_subgraph_cache("streaming-rlx", permuted, machine, cache);
  const SubgraphCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.partition_misses, n) << "a renumbered graph must be all hits";
  EXPECT_EQ(after_second.partition_hits, n);
  EXPECT_EQ(after_second.fragments_assembled, 2 * n);

  EXPECT_EQ(result_fingerprint(second),
            result_fingerprint(schedule_by_name("streaming-rlx", permuted, machine)))
      << "fragments reused across a renumbering must still assemble the"
         " permuted graph's own cold schedule";
  EXPECT_EQ(result_fingerprint(first),
            result_fingerprint(schedule_by_name("streaming-rlx", g, machine)));
}

// -------------------------------------------------------- canonicalization memo

TEST(PartitionCanonMemo, MemoPathMatchesPlainPathColdAndWarm) {
  for (int components = 1; components <= 5; ++components) {
    const TaskGraph g = multi_component_graph(components, 500 + static_cast<std::uint64_t>(components));
    const CanonicalPartitionIndex plain = canonical_partition_index(g);
    PartitionCanonMemo memo;
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>> entries;
    // Cold memo: every partition misses, result must still be identical.
    expect_same_index(canonical_partition_index(g, &memo, &entries), plain);
    if (plain.count == 1) {
      // One partition is canonicalized without the memo, warm or not.
      EXPECT_TRUE(entries.empty());
      expect_same_index(canonical_partition_index(g, &memo, &entries), plain);
      EXPECT_EQ(memo.size(), 0u);
      EXPECT_EQ(memo.stats().hits + memo.stats().misses, 0u);
      continue;
    }
    const auto pcount = static_cast<std::uint64_t>(plain.count);
    ASSERT_EQ(entries.size(), pcount);
    for (std::int32_t c = 0; c < plain.count; ++c) {
      ASSERT_NE(entries[static_cast<std::size_t>(c)], nullptr);
      EXPECT_EQ(entries[static_cast<std::size_t>(c)]->form,
                canonical_partition_form(g, plain, c))
          << "memo entries must carry the exact fragment-cache key material";
    }
    EXPECT_EQ(memo.stats().misses, pcount);
    // Warm memo: every partition hits, result must still be identical.
    expect_same_index(canonical_partition_index(g, &memo, &entries), plain);
    EXPECT_EQ(memo.stats().hits, pcount);
    EXPECT_EQ(memo.stats().misses, pcount);
  }
}

TEST(PartitionCanonMemo, WarmMemoTransfersAcrossRenumbering) {
  const TaskGraph g = separated_multi_component_graph(4, 311);
  PartitionCanonMemo memo;
  (void)canonical_partition_index(g, &memo);
  const auto pcount = memo.stats().misses;

  std::mt19937 rng(17);
  std::vector<NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), 0);
  for (int p = 0; p < 3; ++p) {
    std::shuffle(order.begin(), order.end(), rng);
    const TaskGraph permuted = renumber(g, order);
    // The permuted graph's partitions carry different original ids, but the
    // raw positional content keys are id-invariant only when ascending-id
    // order is preserved inside each partition — a global shuffle usually
    // breaks that, so hits are not guaranteed here. What IS guaranteed: the
    // memo path equals the plain path on every graph, warm or not.
    expect_same_index(canonical_partition_index(permuted, &memo),
                      canonical_partition_index(permuted));
  }

  // An id-shift (append a fresh component in front of nothing — ids of the
  // original graph shift by the new component's node count when prepended) is
  // the delta regime the memo exists for: same ascending-id order per
  // partition, shifted ids. Rebuild g's components at an offset and expect
  // full reuse.
  TaskGraph shifted;
  shifted.add_source(7);  // one extra singleton partition in front
  const auto base = static_cast<NodeId>(shifted.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    switch (g.kind(v)) {
      case NodeKind::kSource:
        shifted.add_source(g.declared_output(v));
        break;
      case NodeKind::kCompute: {
        const NodeId nv = shifted.add_compute();
        if (g.declared_output(v) > 0) shifted.declare_output(nv, g.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId nv = shifted.add_buffer();
        if (g.declared_output(v) > 0) shifted.declare_output(nv, g.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        shifted.add_sink();
        break;
    }
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    shifted.add_edge(base + edge.src, base + edge.dst, edge.volume);
  }
  const std::uint64_t hits_before = memo.stats().hits;
  expect_same_index(canonical_partition_index(shifted, &memo),
                    canonical_partition_index(shifted));
  EXPECT_GE(memo.stats().hits - hits_before, pcount)
      << "an id-shifted copy of every partition must hit the memo";
}

TEST(PartitionCanonMemo, EvictionKeepsWeightWithinCapacity) {
  PartitionCanonMemo memo(8);  // tiny: only a few partitions fit
  for (int round = 0; round < 6; ++round) {
    const TaskGraph g = multi_component_graph(3, 900 + static_cast<std::uint64_t>(round));
    expect_same_index(canonical_partition_index(g, &memo), canonical_partition_index(g));
    EXPECT_LE(memo.total_weight(), memo.capacity());
  }
  EXPECT_LE(memo.size(), memo.capacity());
}

// ---------------------------------------------------------------- graph edits

TEST(GraphEdit, EditUndoRoundTripsToTheBase) {
  const TaskGraph base = multi_component_graph(3, 5);
  const std::string base_fp = canonical_fingerprint(base);
  const std::vector<std::string> base_forms = partition_forms(base);

  // Pick a real edge to retune there-and-back.
  ASSERT_GT(base.edge_count(), 0u);
  const Edge& e0 = base.edge(0);

  const std::vector<std::pair<std::vector<GraphEdit>, const char*>> round_trips = {
      {{GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, e0.src, e0.dst,
                  e0.volume * 2, ""},
        GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, e0.src, e0.dst,
                  e0.volume, ""}},
       "set_edge_volume there and back"},
      {{GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSource, -1, -1, -1, 8, "tmp"},
        GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSink, -1, -1, -1, 0, ""},
        GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1,
                  static_cast<NodeId>(base.node_count()),
                  static_cast<NodeId>(base.node_count() + 1), 8, ""},
        GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute,
                  static_cast<NodeId>(base.node_count() + 1), -1, -1, 0, ""},
        GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute,
                  static_cast<NodeId>(base.node_count()), -1, -1, 0, ""}},
       "add a component then remove it"},
  };

  for (const auto& [edits, what] : round_trips) {
    const TaskGraph edited = apply_graph_edits(base, edits);
    EXPECT_EQ(canonical_fingerprint(edited), base_fp) << what;
    EXPECT_EQ(partition_forms(edited), base_forms) << what;
  }
}

TEST(GraphEdit, EditedPartitionMissesUntouchedPartitionsHit) {
  const TaskGraph base = separated_multi_component_graph(4, 31);
  const auto n = static_cast<std::uint64_t>(canonical_partition_index(base).count);
  const TaskGraph edited = apply_graph_edits(base, retune_exit(base, 2));

  MachineConfig machine;
  machine.num_pes = 4;
  SubgraphCache cache;
  (void)schedule_with_subgraph_cache("streaming-rlx", base, machine, cache);
  const ScheduleResult delta =
      schedule_with_subgraph_cache("streaming-rlx", edited, machine, cache, /*delta=*/true);
  const SubgraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.partition_hits, n - 1) << "only the edited partition may miss";
  EXPECT_EQ(stats.partition_misses, n + 1);  // n cold + 1 invalidated
  EXPECT_EQ(stats.delta_invalidated, 1u);
  EXPECT_EQ(result_fingerprint(delta),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, machine)));
}

TEST(GraphEdit, JsonRoundTripsEveryOp) {
  const std::vector<GraphEdit> edits = {
      GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSource, -1, -1, -1, 16, "s"},
      GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kCompute, -1, -1, -1, 0, ""},
      GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 3, -1, -1, 0, ""},
      GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 1, 2, 8, ""},
      GraphEdit{GraphEdit::Op::kRemoveEdge, NodeKind::kCompute, -1, 1, 2, 0, ""},
      GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, 0, -1, -1, 32, ""},
      GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, 0, 1, 4, ""},
  };
  for (const GraphEdit& edit : edits) {
    std::string json;
    append_graph_edit_json(json, edit);
    EXPECT_EQ(graph_edit_from_json(parse_json(json)), edit) << json;
  }
}

TEST(GraphEdit, RejectsInvalidEdits) {
  const TaskGraph base = testing::figure8_graph();
  const std::vector<std::vector<GraphEdit>> bad = {
      {GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 99, -1, -1, 0, ""}},
      {GraphEdit{GraphEdit::Op::kRemoveEdge, NodeKind::kCompute, -1, 2, 0, 0, ""}},
      {GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 0, 1, 0, ""}},  // zero volume
      {GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 1, -1, -1, 0, ""},
       GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 1, 2, 4, ""}},  // removed src
  };
  for (const auto& edits : bad) {
    EXPECT_THROW((void)apply_graph_edits(base, edits), std::invalid_argument);
  }
}

// ------------------------------------------------------------------ assembly

TEST(SubgraphAssembly, MatchesColdScheduleForEveryRegistryScheduler) {
  struct Case {
    TaskGraph graph;
    std::int64_t pes;
  };
  std::vector<Case> cases = {
      {testing::figure8_graph(), 4},
      {testing::figure9_graph2(), 4},
      {testing::buffer_split_example(), 4},
      {multi_component_graph(3, 41), 4},
  };
  // The paper topologies at the serving benchmark's PE counts, each one
  // partition and so scheduled whole, and their three-component
  // composition, whose every cold fragment is scheduled with its
  // materialized identity index.
  TaskGraph paper_trio;
  testing::append_component(paper_trio, make_fft(32, 1), "fft_");
  testing::append_component(paper_trio, make_gaussian_elimination(16, 1), "ge_");
  testing::append_component(paper_trio, make_cholesky(8, 1), "ch_");
  for (const std::int64_t pes : {32, 128}) {
    cases.push_back({make_fft(32, 1), pes});
    cases.push_back({make_gaussian_elimination(16, 1), pes});
    cases.push_back({make_cholesky(8, 1), pes});
    cases.push_back({paper_trio, pes});
  }
  for (const std::string& scheduler : SchedulerRegistry::instance().names()) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      MachineConfig machine;
      machine.num_pes = cases[i].pes;
      const TaskGraph& graph = cases[i].graph;
      ScheduleResult cold;
      try {
        cold = schedule_by_name(scheduler, graph, machine);
      } catch (const std::exception&) {
        continue;  // scheduler precondition (e.g. CSDF shape): nothing to compare
      }
      SubgraphCache cache;
      const ScheduleResult assembled =
          schedule_with_subgraph_cache(scheduler, graph, machine, cache);
      EXPECT_EQ(result_fingerprint(assembled), result_fingerprint(cold))
          << scheduler << " on graph " << i;
      // And again, fully from cache: still bit-identical.
      const ScheduleResult cached =
          schedule_with_subgraph_cache(scheduler, graph, machine, cache);
      EXPECT_EQ(result_fingerprint(cached), result_fingerprint(cold))
          << scheduler << " on graph " << i << " (warm)";
    }
  }
}

TEST(SubgraphAssembly, OnePartitionGraphIsScheduledWholeAndStoresNothing) {
  // One partition has no fragment to share but the whole graph, whose exact
  // repeats the whole-graph ScheduleCache serves: neither the fragment store
  // nor the canonicalization memo keeps anything, every counter stays 0, and
  // the result is the cold schedule.
  const TaskGraph g = make_fft(32, 1);
  ASSERT_EQ(canonical_partition_index(g).count, 1);
  MachineConfig machine;
  machine.num_pes = 32;
  for (const char* scheduler : {"streaming-lts", "streaming-rlx", "streaming-work"}) {
    SCOPED_TRACE(scheduler);
    SubgraphCache cache;
    const std::uint64_t cold = result_fingerprint(schedule_by_name(scheduler, g, machine));
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(result_fingerprint(schedule_with_subgraph_cache(scheduler, g, machine, cache)),
                cold);
    }
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.canon_memo().size(), 0u);
    const SubgraphCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.partition_hits, 0u);
    EXPECT_EQ(stats.partition_misses, 0u);
    EXPECT_EQ(stats.fragments_assembled, 0u);
    EXPECT_EQ(stats.delta_invalidated, 0u);
    EXPECT_EQ(cache.canon_memo().stats().hits, 0u);
    EXPECT_EQ(cache.canon_memo().stats().misses, 0u);
  }

  // The count rule lives in composite_partition_index; the memo overload
  // falls back to the plain index with no entries.
  PartitionCanonMemo memo;
  std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>> entries;
  EXPECT_FALSE(composite_partition_index(g, memo, &entries).has_value());
  expect_same_index(canonical_partition_index(g, &memo, &entries), canonical_partition_index(g));
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.stats().misses, 0u);
}

TEST(SubgraphAssembly, MeshPlacementDegradesToWholeGraphFragment) {
  MachineConfig machine;
  machine.num_pes = 4;
  machine.place_on_mesh = true;
  const TaskGraph g = testing::figure8_graph();
  SubgraphCache cache;
  const ScheduleResult assembled = schedule_with_subgraph_cache("streaming-rlx", g, machine, cache);
  EXPECT_EQ(result_fingerprint(assembled),
            result_fingerprint(schedule_by_name("streaming-rlx", g, machine)));
  EXPECT_EQ(cache.stats().fragments_assembled, 0u) << "mesh placement must not compose";
  // Nor is the whole-graph result stored: the service's ScheduleCache holds it.
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------------- delta serving

ScheduleRequest base_request(std::uint64_t seed = 67) {
  ScheduleRequest request;
  request.graph = multi_component_graph(3, seed);
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = 4;
  return request;
}

/// A valid one-node delta against `base`, named by its digest.
ScheduleRequest delta_on(const ScheduleRequest& base) {
  ScheduleRequest delta;
  delta.base_key = base.key_digest();
  delta.edits = retune_exit(base.graph, 2);
  delta.scheduler = base.scheduler;
  delta.machine = base.machine;
  return delta;
}


TEST(DeltaRequest, EnvelopeJsonRoundTrips) {
  ScheduleRequest delta;
  delta.base_key = "00ff00ff00ff00ff";
  delta.edits = std::vector<GraphEdit>{GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, 1, 2, 8, ""}};
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 8;
  const std::string json = delta.to_json();
  EXPECT_NE(json.find("\"base_key\": \"00ff00ff00ff00ff\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"edits\": ["), std::string::npos) << json;
  EXPECT_EQ(json.find("\"graph\""), std::string::npos) << "a delta must not carry a graph";
  const ScheduleRequest parsed = ScheduleRequest::from_json(json);
  EXPECT_EQ(parsed.base_key, delta.base_key);
  EXPECT_EQ(parsed.edits, delta.edits);
}

TEST(DeltaRequest, EnvelopeRejectsMalformedDeltas) {
  const std::vector<std::string> bad = {
      // edits without a base_key
      R"({"schema_version": 2, "scheduler": "s", "graph": {"nodes": [], "edges": []},)"
      R"( "edits": []})",
      // base_key plus an inline graph
      R"({"schema_version": 2, "scheduler": "s", "base_key": "aa",)"
      R"( "graph": {"nodes": [], "edges": []}})",
      // base_key needs schema v2
      R"({"schema_version": 1, "scheduler": "s", "base_key": "aabbccddeeff0011"})",
      // empty base_key
      R"({"schema_version": 2, "scheduler": "s", "base_key": ""})",
      // unknown edit op
      R"({"schema_version": 2, "scheduler": "s", "base_key": "aabbccddeeff0011",)"
      R"( "edits": [{"op": "warp"}]})",
  };
  for (const std::string& json : bad) {
    EXPECT_THROW((void)ScheduleRequest::from_json(json), std::invalid_argument) << json;
  }
}

TEST(DeltaRequest, ServiceReschedulesOnlyTheEditedPartition) {
  ServiceConfig config;
  config.num_workers = 2;
  ScheduleService service(config);

  ScheduleRequest base = base_request();
  const std::string digest = base.key_digest();
  const TaskGraph base_graph = base.graph;
  const ScheduleResponse cold = service.schedule(std::move(base));
  ASSERT_TRUE(cold.ok()) << cold.error;

  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = retune_exit(base_graph, 2);
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse warm = service.schedule(std::move(delta));
  ASSERT_TRUE(warm.ok()) << warm.error;

  const TaskGraph edited = apply_graph_edits(base_graph, retune_exit(base_graph, 2));
  EXPECT_EQ(result_fingerprint(*warm.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, delta.machine)));

  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.subgraph.partition_hits, 2u) << "untouched partitions must hit";
  EXPECT_EQ(stats.subgraph.partition_misses, 4u);  // 3 cold + 1 invalidated
  EXPECT_EQ(stats.subgraph.delta_invalidated, 1u);
  EXPECT_EQ(stats.subgraph.fragments_assembled, 6u);
  for (const char* field :
       {"\"partition_hits\": 2", "\"partition_misses\": 4", "\"delta_invalidated\": 1",
        "\"fragments_assembled\": 6"}) {
    EXPECT_NE(service.stats_json().find(field), std::string::npos) << field;
  }
}

TEST(DeltaRequest, ChainedDeltasResolveLinkByLink) {
  ScheduleService service(ServiceConfig{2});
  ScheduleRequest base = base_request();
  const TaskGraph base_graph = base.graph;
  const std::string digest = base.key_digest();
  ASSERT_TRUE(service.schedule(std::move(base)).ok());

  // First delta: x2. Its materialized identity is the edited whole-graph
  // request, so compute that digest client-side to chain from it.
  ScheduleRequest delta1;
  delta1.base_key = digest;
  delta1.edits = retune_exit(base_graph, 2);
  delta1.scheduler = "streaming-rlx";
  delta1.machine.num_pes = 4;
  ASSERT_TRUE(service.schedule(std::move(delta1)).ok());

  ScheduleRequest edited1 = base_request();
  edited1.graph = apply_graph_edits(base_graph, retune_exit(base_graph, 2));
  const std::string digest1 = edited1.key_digest();

  ScheduleRequest delta2;
  delta2.base_key = digest1;
  delta2.edits = retune_exit(edited1.graph, 2);
  delta2.scheduler = "streaming-rlx";
  delta2.machine.num_pes = 4;
  const ScheduleResponse chained = service.schedule(std::move(delta2));
  ASSERT_TRUE(chained.ok()) << chained.error;

  const TaskGraph edited2 =
      apply_graph_edits(edited1.graph, retune_exit(edited1.graph, 2));
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_EQ(result_fingerprint(*chained.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited2, machine)));
}

TEST(DeltaRequest, UnknownBaseKeyFailsTheFutureNotTheService) {
  ScheduleService service(ServiceConfig{1});
  ScheduleRequest delta;
  delta.base_key = "deadbeefdeadbeef";
  delta.scheduler = "streaming-rlx";
  const ScheduleResponse response = service.schedule(std::move(delta));
  EXPECT_FALSE(response.ok());
  EXPECT_NE(response.error.find("unknown base_key"), std::string::npos) << response.error;

  // The service stays healthy and balanced: a normal request still serves,
  // and wait_idle does not hang on the failed submission.
  service.wait_idle();
  EXPECT_TRUE(service.schedule(base_request()).ok());
  service.wait_idle();  // the completion is counted as schedule()'s future settles
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

/// A delta whose base the registry does not hold settles inside submit() as
/// the typed (std::invalid_argument) unknown-base error, never on a worker.
void expect_unknown_base(ScheduleService& service, ScheduleRequest delta) {
  ServiceAdmission admission = service.submit(std::move(delta));
  ASSERT_TRUE(admission.accepted());
  ASSERT_EQ(admission.future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ScheduleResponse settled = admission.future.response();
  EXPECT_TRUE(settled.invalid);
  EXPECT_NE(settled.error.find("unknown base_key"), std::string::npos) << settled.error;
}

void expect_balanced(ScheduleService& service) {
  service.wait_idle();
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected);
}

TEST(DeltaRequest, BaseRegistryAgesOutTheLeastRecentBase) {
  ServiceConfig config;
  config.num_workers = 1;
  config.base_registry_capacity = 2;
  ScheduleService service(config);
  const ScheduleRequest a = base_request(67);
  const ScheduleRequest b = base_request(68);
  const ScheduleRequest c = base_request(69);
  for (const ScheduleRequest* base : {&a, &b, &c}) ASSERT_TRUE(service.schedule(*base).ok());

  expect_unknown_base(service, delta_on(a));
  const ScheduleResponse on_c = service.schedule(delta_on(c));
  EXPECT_TRUE(on_c.ok()) << on_c.error;
  expect_balanced(service);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(DeltaRequest, ResubmittingABaseKeepsItInTheRegistry) {
  ServiceConfig config;
  config.num_workers = 1;
  config.base_registry_capacity = 2;
  ScheduleService service(config);
  const ScheduleRequest a = base_request(67);
  const ScheduleRequest b = base_request(68);
  const ScheduleRequest c = base_request(69);
  // A again before C: C pushes out B, the least recent, instead of A.
  for (const ScheduleRequest* base : {&a, &b, &a, &c}) {
    ASSERT_TRUE(service.schedule(*base).ok());
  }

  expect_unknown_base(service, delta_on(b));
  const ScheduleResponse on_a = service.schedule(delta_on(a));
  EXPECT_TRUE(on_a.ok()) << on_a.error;
  expect_balanced(service);
}

TEST(DeltaRequest, ZeroBaseRegistryCapacityRefusesEveryDelta) {
  ServiceConfig config;
  config.num_workers = 1;
  config.base_registry_capacity = 0;
  ScheduleService service(config);
  const ScheduleRequest a = base_request(67);
  ASSERT_TRUE(service.schedule(a).ok());
  expect_unknown_base(service, delta_on(a));
  expect_unknown_base(service, delta_on(a));
  expect_balanced(service);
  EXPECT_EQ(service.stats().failed, 2u);
}

TEST(DeltaRequest, UppercaseDigestOfALiveBaseIsUnknown) {
  // The registry is keyed by the hash a digest parses back to, and only the
  // 16 lowercase hex digits key_digest() writes parse: an uppercase copy of
  // a live digest names no base.
  ScheduleService service(ServiceConfig{1});
  const ScheduleRequest base = base_request();
  ASSERT_TRUE(service.schedule(base).ok());
  ScheduleRequest upper = delta_on(base);
  for (char& c : *upper.base_key) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  ASSERT_NE(*upper.base_key, base.key_digest()) << "the digest has no hex letter to raise";
  expect_unknown_base(service, std::move(upper));
  const ScheduleResponse lower = service.schedule(delta_on(base));
  EXPECT_TRUE(lower.ok()) << lower.error;
  expect_balanced(service);
}

TEST(DeltaRequest, InvalidCompositionFailsInsteadOfAliasingTheBase) {
  // An edit list that composes a non-canonical graph (a retuned declared
  // output contradicting its out-edge volume) must fail the future with the
  // composition error — never return the valid base's cached result, whose
  // derived volumes it shares.
  ScheduleService service(ServiceConfig{1});
  ScheduleRequest base = base_request();
  const TaskGraph base_graph = base.graph;
  const std::string digest = base.key_digest();
  ASSERT_TRUE(service.schedule(std::move(base)).ok());

  NodeId src = -1;
  for (NodeId v = 0; static_cast<std::size_t>(v) < base_graph.node_count(); ++v) {
    if (base_graph.kind(v) == NodeKind::kSource && base_graph.out_degree(v) > 0) {
      src = v;
      break;
    }
  }
  ASSERT_GE(src, 0);
  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = {GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kSource, src, -1, -1,
                           base_graph.declared_output(src) + 1, ""}};
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse response = service.schedule(std::move(delta));
  EXPECT_FALSE(response.ok()) << "invalid composition must not alias the base's result";
  EXPECT_NE(response.error.find("invalid graph"), std::string::npos) << response.error;
  service.wait_idle();
  EXPECT_EQ(service.stats().failed, 1u);
}

// ------------------------------------------------ declared-output aliasing

/// `graph` with the first non-exit compute node's declared output
/// contradicting its out-edge volume: invalid, yet equal to `graph` in every
/// derived volume (output_volume() reads the out-edges).
TaskGraph contradict_declared_output(const TaskGraph& graph) {
  TaskGraph twin = graph;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (graph.kind(v) == NodeKind::kCompute && graph.out_degree(v) > 0) {
      twin.declare_output(v, graph.output_volume(v) + 1);
      return twin;
    }
  }
  throw std::logic_error("contradict_declared_output: no non-exit compute node");
}

ScheduleRequest rlx_request(TaskGraph graph) {
  ScheduleRequest request;
  request.graph = std::move(graph);
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = 4;
  return request;
}

TEST(DeclaredOutputAliasing, ValidGraphBytesAreTheDerivedVolumes) {
  // On a valid graph a declared output equals the derived one, so recording
  // declarations changes no byte of the fingerprint.
  const std::vector<TaskGraph> graphs = {testing::figure8_graph(), testing::figure9_graph2(),
                                         testing::buffer_split_example(),
                                         multi_component_graph(3, 67),
                                         make_fft(16, 3), make_cholesky(5, 4)};
  for (const TaskGraph& g : graphs) {
    ASSERT_TRUE(g.validate().empty());
    std::string derived;
    const auto put64 = [&derived](std::int64_t value) {
      derived.append(reinterpret_cast<const char*>(&value), 8);
    };
    put64(static_cast<std::int64_t>(g.node_count()));
    put64(static_cast<std::int64_t>(g.edge_count()));
    for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
      derived += static_cast<char>(g.kind(v));
      put64(g.output_volume(v));
    }
    for (const Edge& edge : g.edges()) {
      put64(edge.src);
      put64(edge.dst);
      put64(edge.volume);
    }
    EXPECT_EQ(canonical_fingerprint(g), derived);
  }
}

TEST(DeclaredOutputAliasing, InvalidTwinIsNotServedTheValidCachedResult) {
  const TaskGraph valid = multi_component_graph(3, 67);
  const TaskGraph twin = contradict_declared_output(valid);
  ASSERT_FALSE(twin.validate().empty());
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_THROW((void)schedule_by_name("streaming-rlx", twin, machine), std::invalid_argument);
  EXPECT_NE(canonical_fingerprint(twin), canonical_fingerprint(valid));

  ScheduleService service(ServiceConfig{1});
  ASSERT_TRUE(service.schedule(rlx_request(valid)).ok());
  const ScheduleResponse response = service.schedule(rlx_request(twin));
  EXPECT_FALSE(response.ok()) << "the invalid twin was served the valid graph's cached result";
  EXPECT_NE(response.error.find("not a valid canonical task graph"), std::string::npos)
      << response.error;
}

TEST(DeclaredOutputAliasing, InvalidPartitionIsNotAssembledFromTheValidFragment) {
  // A is component 0 of the two-component graph A + B; A' + B contradicts a
  // declaration inside A. The whole-graph key is new, so the request reaches
  // fragment assembly, where A' must miss A's cached fragment.
  const TaskGraph ab = multi_component_graph(2, 67);
  const TaskGraph twin_ab = contradict_declared_output(ab);
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_THROW((void)schedule_by_name("streaming-rlx", twin_ab, machine), std::invalid_argument);

  ScheduleService service(ServiceConfig{1});
  ASSERT_TRUE(service.schedule(rlx_request(ab)).ok());
  // Every partition of A + B, A's included, left its fragment resident.
  const auto partitions = static_cast<std::size_t>(canonical_partition_index(ab).count);
  ASSERT_GE(partitions, 2u);
  EXPECT_EQ(service.stats().subgraph.partition_misses, partitions);
  EXPECT_EQ(service.subgraph_cache().size(), partitions);
  const ScheduleResponse response = service.schedule(rlx_request(twin_ab));
  EXPECT_FALSE(response.ok()) << "A' + B was assembled from A's cached fragment";
  EXPECT_NE(response.error.find("not a valid canonical task graph"), std::string::npos)
      << response.error;
}

TEST(DeltaRequest, RouterRoutesDeltaToTheBaseBackend) {
  RouterConfig config;
  config.num_backends = 3;
  ShardRouter router(config);

  ScheduleRequest base = base_request();
  const std::string digest = base.key_digest();
  const std::size_t base_backend = router.backend_for(base);
  const TaskGraph base_graph = base.graph;
  ASSERT_TRUE(router.schedule(std::move(base)).ok());

  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = retune_exit(base_graph, 2);
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  EXPECT_EQ(router.backend_for(delta), base_backend)
      << "a delta must land where its base's registry and fragments are";

  const ScheduleResponse warm = router.schedule(std::move(delta));
  ASSERT_TRUE(warm.ok()) << warm.error;
  const TaskGraph edited = apply_graph_edits(base_graph, retune_exit(base_graph, 2));
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_EQ(result_fingerprint(*warm.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, machine)));

  // Subgraph counters aggregate across backends (and into the JSON record).
  const ShardRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.total.subgraph.delta_invalidated, 1u);
  EXPECT_EQ(stats.total.subgraph.partition_hits, 2u);
  EXPECT_NE(router.stats_json().find("\"delta_invalidated\": 1"), std::string::npos);
  EXPECT_NE(router.stats_json().find("\"cache_weight\": "), std::string::npos);
}

TEST(DeltaRequest, SharedTableDeltaThroughRouterMatchesARebuiltWholeGraph) {
  // A set_output delta materializes onto the registry base's edge table; the
  // same edited graph rebuilt node by node through add_* shares nothing with
  // it. Through a 4-backend router both must settle to one fingerprint.
  RouterConfig config;
  config.num_backends = 4;
  ShardRouter router(config);

  ScheduleRequest base = base_request(71);
  const std::string digest = base.key_digest();
  const TaskGraph base_graph = base.graph;
  ASSERT_TRUE(router.schedule(std::move(base)).ok());

  const std::vector<GraphEdit> edits = retune_exit(base_graph, 3);
  const TaskGraph edited = apply_graph_edits(base_graph, edits);
  ASSERT_TRUE(edited.shares_edge_table_with(base_graph));
  std::vector<NodeId> identity(edited.node_count());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  ScheduleRequest whole = base_request(71);
  whole.graph = renumber(edited, identity);
  ASSERT_FALSE(whole.graph.shares_edge_table_with(edited));
  ASSERT_EQ(canonical_fingerprint(whole.graph), canonical_fingerprint(edited));

  ScheduleRequest delta;
  delta.base_key = digest;
  delta.edits = edits;
  delta.scheduler = "streaming-rlx";
  delta.machine.num_pes = 4;
  const ScheduleResponse from_delta = router.schedule(std::move(delta));
  ASSERT_TRUE(from_delta.ok()) << from_delta.error;

  // The rebuilt request keys like the delta's materialized graph, so a
  // fresh router computes it instead of serving the delta's cached result.
  ShardRouter fresh(config);
  const ScheduleResponse from_whole = fresh.schedule(std::move(whole));
  ASSERT_TRUE(from_whole.ok()) << from_whole.error;
  EXPECT_EQ(result_fingerprint(*from_delta.result), result_fingerprint(*from_whole.result));
  MachineConfig machine;
  machine.num_pes = 4;
  EXPECT_EQ(result_fingerprint(*from_delta.result),
            result_fingerprint(schedule_by_name("streaming-rlx", edited, machine)));
}

}  // namespace
}  // namespace sts
