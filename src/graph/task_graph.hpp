#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/rational.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct GraphEdit;

/// Canonical node kinds (paper Section 3.1).
enum class NodeKind : std::uint8_t {
  kSource,   ///< reads its output from global memory; no production rate
  kSink,     ///< stores its input to global memory; production rate zero
  kCompute,  ///< computational node with production rate R(v) = O(v)/I(v)
  kBuffer,   ///< passive memory node; cannot be pipelined through; holds no PE
};

[[nodiscard]] const char* to_string(NodeKind kind) noexcept;

/// A directed data dependency carrying `volume` unitary elements (edge label
/// in the paper's figures).  Canonicity implies volume == O(src) == I(dst).
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int64_t volume = 0;
};

/// Precomputed per-node streaming profile, built per graph from its node
/// records and its edge table's CSR adjacency, so hot loops (partitioner,
/// scheduler, buffer sizing, both simulator engines) read one cache line
/// instead of chasing edge lists.
struct NodeProfile {
  std::int64_t in_volume = 0;   ///< I(v): per-edge input element count
  std::int64_t out_volume = 0;  ///< O(v): per-edge output element count
  std::int64_t work = 0;        ///< W(v) = max(I, O); 0 for buffer nodes
  std::int64_t rate_num = 1;    ///< reduced numerator of R(v) = O/I (1 if I==0)
  std::int64_t rate_den = 1;    ///< reduced denominator of R(v)
};

/// Weakly connected components of a graph over ALL its edges (buffer edges
/// included): the connected partitions every pipeline stage composes over.
struct WeakComponents {
  std::int32_t count = 0;
  std::vector<std::int32_t> label;   ///< per node: its component, numbered in
                                     ///< order of the lowest member id
  std::vector<NodeId> members;       ///< all nodes grouped by component,
                                     ///< ascending id within each group
  std::vector<std::size_t> offsets;  ///< component c spans
                                     ///< members[offsets[c], offsets[c+1])

  [[nodiscard]] std::span<const NodeId> nodes(std::int32_t c) const {
    const auto i = static_cast<std::size_t>(c);
    return {members.data() + offsets[i], members.data() + offsets[i + 1]};
  }
};

/// A canonical task graph (paper Sections 2-3): a DAG of canonical nodes.
///
/// Volumes are per-edge element counts. A canonical node receives the same
/// amount from every input edge (I(v)) and emits the same amount to every
/// output edge (O(v)). Exit nodes (no out-edges) and sources declare their
/// output volume explicitly via `declare_output` / `add_source`, modelling
/// the stream they write to / read from global memory.
///
/// The graph is split by what an edit can change. Per graph: one 16-byte
/// record per node (kind and declared output; names live in a side array
/// that exists only once some node is named) and the NodeProfile table
/// (I/O volumes, work, reduced rate), built on first use and never copied.
/// Shared: the edge list and everything derived from it and the node count
/// alone — the CSR adjacency (`in_edges`/`out_edges` return spans over
/// contiguous storage, in edge-insertion order), the acyclicity verdict of
/// one Kahn pass, and the weak components of one union-find pass. They sit
/// in an EdgeTable held through shared_ptr: copies share it (a copy costs
/// the node array), and only a mutation that touches edges or the node
/// count (`add_*`, `add_edge`, `reserve`) detaches a graph onto a table of
/// its own. `declare_output` keeps the table.
///
/// Both derived parts are built on first access, each exactly once, under a
/// guarded build (atomic flag + serialized build), so concurrent const
/// access to one graph, or to copies sharing a table, stays safe: the
/// contract ScheduleCache's lock-free scheduling path relies on. Mutation
/// still requires exclusive ownership, like any standard container.
///
/// The class enforces structural rules lazily: construction never throws on
/// semantic violations; `validate()` reports them all so tests can assert on
/// specific diagnostics.
class TaskGraph {
 public:
  TaskGraph() = default;

  // Copies share the edge table and copy the node records; the copy builds
  // its own profiles on demand (copying them from a concurrently-building
  // source would race).
  TaskGraph(const TaskGraph& other)
      : nodes_(other.nodes_), names_(other.names_), table_(other.table_) {}
  TaskGraph& operator=(const TaskGraph& other) {
    if (this != &other) {
      nodes_ = other.nodes_;
      names_ = other.names_;
      table_ = other.table_;
      profiles_ready_.store(false, std::memory_order_relaxed);
    }
    return *this;
  }
  // Moves require exclusive ownership of the source and keep its profiles.
  TaskGraph(TaskGraph&& other) noexcept
      : nodes_(std::move(other.nodes_)),
        names_(std::move(other.names_)),
        table_(std::move(other.table_)),
        profile_(std::move(other.profile_)),
        profiles_ready_(other.profiles_ready_.load(std::memory_order_relaxed)) {
    other.profiles_ready_.store(false, std::memory_order_relaxed);
  }
  TaskGraph& operator=(TaskGraph&& other) noexcept {
    if (this != &other) {
      nodes_ = std::move(other.nodes_);
      names_ = std::move(other.names_);
      table_ = std::move(other.table_);
      profile_ = std::move(other.profile_);
      profiles_ready_.store(other.profiles_ready_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      other.profiles_ready_.store(false, std::memory_order_relaxed);
    }
    return *this;
  }

  /// Reserves room for `nodes` nodes and `edges` edges, so a reader that
  /// knows the counts up front builds the graph without regrowing it.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Creates a source streaming `output_volume` elements out of global memory.
  NodeId add_source(std::int64_t output_volume, std::string name = {});

  /// Creates a computational node; I/O volumes derive from incident edges.
  NodeId add_compute(std::string name = {});

  /// Creates a passive buffer node (not scheduled on a PE).
  NodeId add_buffer(std::string name = {});

  /// Creates a sink absorbing its input into global memory.
  NodeId add_sink(std::string name = {});

  /// Declares the output volume of an exit computational node (stream written
  /// to global memory). For nodes with out-edges the declaration must match
  /// the edge volumes (checked by validate()).
  void declare_output(NodeId v, std::int64_t output_volume);

  /// Adds a dependency edge carrying `volume` elements.
  EdgeId add_edge(NodeId src, NodeId dst, std::int64_t volume);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges().size(); }

  [[nodiscard]] NodeKind kind(NodeId v) const { return nodes_[static_cast<std::size_t>(v)].kind; }
  [[nodiscard]] const std::string& name(NodeId v) const {
    const auto idx = static_cast<std::size_t>(v);
    return idx < names_.size() ? names_[idx] : kUnnamed;
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const {
    return table_->edges[static_cast<std::size_t>(e)];
  }

  /// All edges in insertion (id) order, contiguous.
  [[nodiscard]] std::span<const Edge> edges() const noexcept {
    return table_ ? std::span<const Edge>(table_->edges) : std::span<const Edge>();
  }

  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId v) const {
    const EdgeTable::Derived& d = table_->derived();
    const auto idx = static_cast<std::size_t>(v);
    return {d.in_csr.data() + d.in_off[idx], d.in_csr.data() + d.in_off[idx + 1]};
  }
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId v) const {
    const EdgeTable::Derived& d = table_->derived();
    const auto idx = static_cast<std::size_t>(v);
    return {d.out_csr.data() + d.out_off[idx], d.out_csr.data() + d.out_off[idx + 1]};
  }
  [[nodiscard]] std::size_t in_degree(NodeId v) const { return in_edges(v).size(); }
  [[nodiscard]] std::size_t out_degree(NodeId v) const { return out_edges(v).size(); }

  /// True iff the graph has no directed cycle: the verdict of the edge
  /// table's one Kahn pass.
  [[nodiscard]] bool acyclic() const { return table_ == nullptr || table_->derived().acyclic; }

  /// The weak components over all edges, from the edge table's one
  /// union-find pass.
  [[nodiscard]] const WeakComponents& weak_components() const;

  /// True when this graph and `other` read one edge table, so neither pays
  /// for its edges, CSR, verdict or components a second time.
  [[nodiscard]] bool shares_edge_table_with(const TaskGraph& other) const noexcept {
    return table_ != nullptr && table_ == other.table_;
  }

  /// Precomputed per-node profiles, indexed by NodeId (valid until the next
  /// mutation). Prefer this in hot loops over repeated volume/rate calls.
  [[nodiscard]] std::span<const NodeProfile> profiles() const {
    if (!profiles_ready_.load(std::memory_order_acquire)) build_profiles();
    return profile_;
  }

  /// I(v): per-edge input element count; 0 for sources.
  [[nodiscard]] std::int64_t input_volume(NodeId v) const;

  /// O(v): the declared volume for exit nodes and sources, otherwise the
  /// (common) out-edge volume. 0 for sinks.
  [[nodiscard]] std::int64_t output_volume(NodeId v) const;

  /// The declared output volume record (0 = none declared). Distinct from
  /// output_volume(): exact replication of declarations is what graph edits
  /// and partition extraction need to rebuild a graph record-for-record.
  [[nodiscard]] std::int64_t declared_output(NodeId v) const {
    return nodes_[static_cast<std::size_t>(v)].declared_output;
  }

  /// R(v) = O(v)/I(v); only defined for compute and buffer nodes.
  [[nodiscard]] Rational rate(NodeId v) const;

  /// W(v) = max(I(v), O(v)) (paper Section 4.2); 0 for buffer nodes, which
  /// are not active entities.
  [[nodiscard]] std::int64_t work(NodeId v) const;

  /// T1 = sum of work over PE-occupying nodes: sequential execution time.
  [[nodiscard]] std::int64_t total_work() const;

  /// True for nodes that must be scheduled on a processing element
  /// (everything except buffer nodes).
  [[nodiscard]] bool occupies_pe(NodeId v) const { return kind(v) != NodeKind::kBuffer; }

  /// Node classification helpers (computational nodes only).
  [[nodiscard]] bool is_elementwise(NodeId v) const { return rate(v) == Rational(1); }
  [[nodiscard]] bool is_downsampler(NodeId v) const { return rate(v) < Rational(1); }
  [[nodiscard]] bool is_upsampler(NodeId v) const { return rate(v) > Rational(1); }

  /// All structural/canonicity violations; empty means the graph is a valid
  /// canonical task graph (per-node volume rules, DAG-ness, buffer placement
  /// rule of Section 4.2.3).
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Throws std::invalid_argument listing all violations, if any.
  void validate_or_throw() const;

  // apply_graph_edits (graph/graph_edit.cpp) copies the node records and
  // patches them in place, sharing the base's edge table when no edit
  // touches edges or the node count; through add_* it would replay the
  // whole base.
  friend TaskGraph apply_graph_edits(const TaskGraph& base, std::span<const GraphEdit> edits);

 private:
  struct NodeRec {
    NodeKind kind = NodeKind::kCompute;
    std::int64_t declared_output = 0;  // 0 = not declared
  };

  /// The edge list and the node count, plus what derives from those alone.
  /// Shared between graphs; never mutated once shared or derived from.
  struct EdgeTable {
    struct Derived {
      // CSR adjacency. Edge ids within each node's span appear in
      // edge-insertion order.
      std::vector<std::int32_t> in_off;   // size N+1
      std::vector<std::int32_t> out_off;  // size N+1
      std::vector<EdgeId> in_csr;         // size E
      std::vector<EdgeId> out_csr;        // size E
      bool acyclic = true;
      WeakComponents components;
    };

    std::size_t nodes = 0;
    std::vector<Edge> edges;

    /// The derived state, built by the first caller. Its release store
    /// publishes the arrays to every later caller's acquire load.
    [[nodiscard]] const Derived& derived() const {
      if (!ready_.load(std::memory_order_acquire)) build();
      return derived_;
    }
    [[nodiscard]] bool built() const { return ready_.load(std::memory_order_acquire); }
    void build() const EXCLUDES(build_mutex_);

    // Deliberately NOT GUARDED_BY(build_mutex_): readers never take the lock
    // — they go through derived(), whose acquire load pairs with the release
    // store at the end of build(). The mutex only serializes builders.
    mutable Derived derived_;
    mutable std::atomic<bool> ready_{false};
    mutable Mutex build_mutex_;
  };

  static const std::string kUnnamed;  // name() of a node without one

  NodeId add_node(NodeKind kind, std::string name);
  void check_node(NodeId v) const;
  /// This graph's own, not yet derived-from edge table, for a mutation that
  /// touches edges or the node count: a shared or already derived table is
  /// left to its other readers and the edges move to (or are copied into) a
  /// fresh one (detach_edge_table).
  EdgeTable& own_edge_table() {
    if (table_ != nullptr && table_.use_count() == 1 && !table_->built()) return *table_;
    return detach_edge_table();
  }
  EdgeTable& detach_edge_table();
  void build_profiles() const EXCLUDES(profiles_mutex_);

  std::vector<NodeRec> nodes_;
  std::vector<std::string> names_;     // empty until some node is named
  std::shared_ptr<EdgeTable> table_;  // null only while the graph is empty

  // Per-graph profile table, built on first use. Same protocol as the edge
  // table's derived state: profiles_ready_'s acquire load pairs with the
  // release store at the end of build_profiles(); the mutex serializes
  // builders (deliberately not GUARDED_BY: readers never take it).
  mutable std::vector<NodeProfile> profile_;  // size N
  mutable std::atomic<bool> profiles_ready_{false};
  // Per-instance build guard (never copied/moved: each graph owns its own,
  // and copy/move require exclusive access anyway).
  mutable Mutex profiles_mutex_;
};

}  // namespace sts
