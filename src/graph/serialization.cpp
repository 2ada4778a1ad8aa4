#include "graph/serialization.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/hash.hpp"
#include "support/text.hpp"

namespace sts {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("load_task_graph: line " + std::to_string(line) + ": " + what);
}

NodeKind kind_from(const std::string& token, std::size_t line) {
  if (token == "source") return NodeKind::kSource;
  if (token == "sink") return NodeKind::kSink;
  if (token == "compute") return NodeKind::kCompute;
  if (token == "buffer") return NodeKind::kBuffer;
  fail(line, "unknown node kind '" + token + "'");
}

// The output volume the byte forms record for v: a non-sink node's declared
// output when one is set, else the derived O(v). On a valid graph the two
// agree, so these bytes are those of output_volume(); on an invalid one a
// declaration contradicting the out-edge volume stays visible, and the graph
// cannot share a cache key, a memo entry, or a fragment with its valid twin.
// The partition forms read it from the CSR they already walk; the
// fingerprint derives the same volumes from the flat arrays.
std::int64_t recorded_output(const TaskGraph& graph, NodeId v) {
  const std::int64_t declared = graph.declared_output(v);
  return graph.kind(v) != NodeKind::kSink && declared > 0 ? declared : graph.output_volume(v);
}

// The volume of every node's first out-edge in id order, 0 for a node without
// one (volumes are positive): O(v) of a non-sink node with out-edges, as the
// CSR derives it. One reverse pass over the flat edge array, so the text and
// JSON writers never build the CSR of the graph they write.
std::vector<std::int64_t> first_out_volumes(const TaskGraph& graph) {
  std::vector<std::int64_t> first(graph.node_count(), 0);
  const std::span<const Edge> edges = graph.edges();
  for (auto edge = edges.rbegin(); edge != edges.rend(); ++edge) {
    first[static_cast<std::size_t>(edge->src)] = edge->volume;
  }
  return first;
}

// The volume of v's `output` record in the text and JSON forms, given its
// first out-edge volume (first_out_volumes), or 0 for none. Sources, exits
// and buffers carry one, since a reader cannot derive their volume; so does
// any other non-sink whose declaration contradicts its derived volume, so an
// invalid graph reaches a reader as itself and not as its valid twin. The
// declarations of a valid graph's other nodes equal their derived volumes
// and are left out.
std::int64_t written_output(const TaskGraph& graph, NodeId v, std::int64_t first_out) {
  const NodeKind kind = graph.kind(v);
  if (kind == NodeKind::kSink) return 0;
  const std::int64_t declared = graph.declared_output(v);
  const bool underivable =
      kind == NodeKind::kSource || kind == NodeKind::kBuffer || first_out == 0;
  if (!underivable && (declared <= 0 || declared == first_out)) return 0;
  return declared > 0 ? declared : first_out;
}

}  // namespace

TaskGraph load_task_graph(std::istream& input) {
  TaskGraph graph;
  // Declared outputs may precede edges; sources need theirs at creation, so
  // records are processed in two passes over buffered lines.
  struct PendingNode {
    NodeKind kind;
    std::string name;
  };
  struct PendingEdge {
    NodeId src;
    NodeId dst;
    std::int64_t volume;
  };
  std::vector<PendingNode> nodes;
  std::vector<std::pair<NodeId, std::int64_t>> outputs;
  std::vector<PendingEdge> edges;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string record;
    if (!(fields >> record)) continue;  // blank / comment-only line
    if (record == "node") {
      std::int64_t id = -1;
      std::string kind;
      if (!(fields >> id >> kind)) fail(line_no, "expected 'node <id> <kind> [name]'");
      if (id != static_cast<std::int64_t>(nodes.size())) {
        fail(line_no, "node ids must be dense and ascending (got " + std::to_string(id) +
                          ", expected " + std::to_string(nodes.size()) + ")");
      }
      std::string name;
      fields >> name;  // optional
      nodes.push_back(PendingNode{kind_from(kind, line_no), name});
    } else if (record == "output") {
      std::int64_t id = -1;
      std::int64_t volume = 0;
      if (!(fields >> id >> volume)) fail(line_no, "expected 'output <id> <volume>'");
      outputs.emplace_back(static_cast<NodeId>(id), volume);
    } else if (record == "edge") {
      PendingEdge edge{};
      if (!(fields >> edge.src >> edge.dst >> edge.volume)) {
        fail(line_no, "expected 'edge <src> <dst> <volume>'");
      }
      edges.push_back(edge);
    } else {
      fail(line_no, "unknown record '" + record + "'");
    }
  }

  std::vector<std::int64_t> declared(nodes.size(), 0);
  for (const auto& [id, volume] : outputs) {
    if (id < 0 || static_cast<std::size_t>(id) >= nodes.size()) {
      throw std::invalid_argument("load_task_graph: output record for unknown node " +
                                  std::to_string(id));
    }
    declared[static_cast<std::size_t>(id)] = volume;
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    switch (nodes[i].kind) {
      case NodeKind::kSource:
        if (declared[i] <= 0) {
          throw std::invalid_argument("load_task_graph: source node " + std::to_string(i) +
                                      " needs an 'output' record");
        }
        graph.add_source(declared[i], nodes[i].name);
        break;
      case NodeKind::kSink:
        graph.add_sink(nodes[i].name);
        break;
      case NodeKind::kCompute: {
        const NodeId v = graph.add_compute(nodes[i].name);
        if (declared[i] > 0) graph.declare_output(v, declared[i]);
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId v = graph.add_buffer(nodes[i].name);
        if (declared[i] > 0) graph.declare_output(v, declared[i]);
        break;
      }
    }
  }
  for (const auto& edge : edges) {
    graph.add_edge(edge.src, edge.dst, edge.volume);
  }
  return graph;
}

TaskGraph load_task_graph_from_string(const std::string& text) {
  std::istringstream input(text);
  return load_task_graph(input);
}

std::string save_task_graph_to_string(const TaskGraph& graph) {
  // Plain string appends + to_chars rather than iostreams, and the flat
  // arrays only, like the JSON writer: writing a graph must stay far cheaper
  // than scheduling it. (Cache keys use the binary canonical_fingerprint,
  // not this text.)
  std::string out;
  out.reserve(64 + 28 * graph.node_count() + 32 * graph.edge_count());
  const std::vector<std::int64_t> first_out = first_out_volumes(graph);
  out += "# canonical task graph: ";
  append_number(out, static_cast<std::int64_t>(graph.node_count()));
  out += " nodes, ";
  append_number(out, static_cast<std::int64_t>(graph.edge_count()));
  out += " edges\n";
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    out += "node ";
    append_number(out, v);
    out += ' ';
    out += to_string(graph.kind(v));
    if (!graph.name(v).empty()) {
      out += ' ';
      out += graph.name(v);
    }
    out += '\n';
    const std::int64_t output = written_output(graph, v, first_out[static_cast<std::size_t>(v)]);
    if (output > 0) {
      out += "output ";
      append_number(out, v);
      out += ' ';
      append_number(out, output);
      out += '\n';
    }
  }
  for (const Edge& edge : graph.edges()) {
    out += "edge ";
    append_number(out, edge.src);
    out += ' ';
    append_number(out, edge.dst);
    out += ' ';
    append_number(out, edge.volume);
    out += '\n';
  }
  return out;
}

void append_task_graph_json(std::string& out, const TaskGraph& graph) {
  const std::vector<std::int64_t> first_out = first_out_volumes(graph);
  out += "{\"nodes\": [";
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (v > 0) out += ", ";
    out += "{\"kind\": \"";
    out += to_string(graph.kind(v));
    out += '"';
    // Output records mirror the text serializer exactly, so
    // parse(append(g)) fingerprints identically to g.
    const std::int64_t output = written_output(graph, v, first_out[static_cast<std::size_t>(v)]);
    if (output > 0) {
      out += ", \"output\": ";
      append_number(out, output);
    }
    if (!graph.name(v).empty()) {
      out += ", \"name\": ";
      append_json_quoted(out, graph.name(v));
    }
    out += '}';
  }
  out += "], \"edges\": [";
  const std::span<const Edge> edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Edge& edge = edges[e];
    if (e > 0) out += ", ";
    out += '[';
    append_number(out, edge.src);
    out += ", ";
    append_number(out, edge.dst);
    out += ", ";
    append_number(out, edge.volume);
    out += ']';
  }
  out += "]}";
}

TaskGraph task_graph_from_json(const JsonValue& json) {
  reject_unknown_members(json, {"nodes", "edges"}, "task_graph_from_json", "graph");
  const JsonValue::Items nodes = json.at("nodes").items();
  const JsonValue::Items edges = json.at("edges").items();

  TaskGraph graph;
  graph.reserve(nodes.size(), edges.size());
  for (const JsonValue& node : nodes) {
    // One pass over the members rather than one lookup per member name.
    const JsonValue* kind_member = nullptr;
    std::string name;
    std::int64_t output = 0;
    for (const JsonValue::Member m : node.members()) {
      if (m.key == "kind") {
        kind_member = &m.value;
      } else if (m.key == "output") {
        output = m.value.as_int();
      } else if (m.key == "name") {
        name = m.value.as_string();
      } else {
        throw std::invalid_argument("task_graph_from_json: unknown node member '" +
                                    std::string(m.key) + "'");
      }
    }
    const std::string_view kind =
        (kind_member != nullptr ? *kind_member : node.at("kind")).as_string();
    if (kind == "source") {
      if (output <= 0) {
        throw std::invalid_argument("task_graph_from_json: source node " +
                                    std::to_string(graph.node_count()) +
                                    " needs a positive 'output'");
      }
      graph.add_source(output, std::move(name));
    } else if (kind == "sink") {
      if (output > 0) {
        throw std::invalid_argument("task_graph_from_json: sink node cannot declare 'output'");
      }
      graph.add_sink(std::move(name));
    } else if (kind == "compute") {
      const NodeId v = graph.add_compute(std::move(name));
      if (output > 0) graph.declare_output(v, output);
    } else if (kind == "buffer") {
      const NodeId v = graph.add_buffer(std::move(name));
      if (output > 0) graph.declare_output(v, output);
    } else {
      throw std::invalid_argument("task_graph_from_json: unknown node kind '" +
                                  std::string(kind) + "'");
    }
  }
  for (const JsonValue& edge : edges) {
    const JsonValue::Items fields = edge.items();
    if (fields.size() != 3) {
      throw std::invalid_argument("task_graph_from_json: edge must be [src, dst, volume]");
    }
    const std::int64_t src = fields[0].as_int();
    const std::int64_t dst = fields[1].as_int();
    const auto in_range = [&graph](std::int64_t v) {
      return v >= 0 && static_cast<std::size_t>(v) < graph.node_count();
    };
    if (!in_range(src) || !in_range(dst)) {
      throw std::invalid_argument("task_graph_from_json: edge endpoint out of range");
    }
    graph.add_edge(static_cast<NodeId>(src), static_cast<NodeId>(dst), fields[2].as_int());
  }
  return graph;
}

std::string canonical_fingerprint(const TaskGraph& graph) {
  std::string out;
  append_canonical_fingerprint(out, graph);
  return out;
}

void append_canonical_fingerprint(std::string& out, const TaskGraph& graph) {
  const std::size_t nodes = graph.node_count();
  const std::size_t edges = graph.edge_count();
  const std::size_t at = out.size();
  out.resize(at + 16 + nodes * 9 + edges * 24);
  char* p = out.data() + at;
  const auto put64 = [&p](std::int64_t value) {
    std::memcpy(p, &value, 8);
    p += 8;
  };
  put64(static_cast<std::int64_t>(nodes));
  put64(static_cast<std::int64_t>(edges));
  // Node records: the kind byte, then the declared output (0 for a sink).
  char* const records = p;
  for (NodeId v = 0; static_cast<std::size_t>(v) < nodes; ++v) {
    const NodeKind kind = graph.kind(v);
    *p++ = static_cast<char>(kind);
    put64(kind == NodeKind::kSink ? 0 : graph.declared_output(v));
  }
  // An undeclared non-sink records O(v), its first out-edge volume in id
  // order, as recorded_output would from the CSR: declarations are >= 0 and
  // volumes > 0, so the first edge to find its source's slot still 0 wins.
  for (const Edge& edge : graph.edges()) {
    char* const record = records + 9 * static_cast<std::size_t>(edge.src);
    std::int64_t recorded = 0;
    std::memcpy(&recorded, record + 1, 8);
    if (recorded == 0 && static_cast<NodeKind>(*record) != NodeKind::kSink) {
      std::memcpy(record + 1, &edge.volume, 8);
    }
    put64(edge.src);
    put64(edge.dst);
    put64(edge.volume);
  }
}

namespace {

// splitmix64 finalizer: every input bit flips every output bit with ~1/2
// probability, which is what lets sorted-signature folding stand in for a
// multiset hash.
constexpr std::uint64_t avalanche(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t w) noexcept {
  return avalanche(h ^ (w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

// Distinct values among `hashes`, counted exactly in O(m): open addressing
// over a power-of-two table kept at most half full. Zero marks an empty slot,
// so a zero hash is counted on the side. The refinement loop stops when this
// count stops growing (a fixed point of the refinement operator).
std::size_t distinct_classes(std::span<const std::uint64_t> hashes,
                             std::vector<std::uint64_t>& slots) {
  std::size_t capacity = 16;
  while (capacity < 2 * hashes.size()) capacity *= 2;
  slots.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  std::size_t classes = 0;
  bool zero = false;
  for (const std::uint64_t h : hashes) {
    if (h == 0) {
      zero = true;
      continue;
    }
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots[i] != 0 && slots[i] != h) i = (i + 1) & mask;
    if (slots[i] == 0) {
      slots[i] = h;
      ++classes;
    }
  }
  return classes + (zero ? 1 : 0);
}

// The partition prefix shared by both canonical_partition_index overloads:
// the edge table's weak components, labelled by minimal original id, with
// `order` grouped by partition and ascending original ids inside each group
// (refinement re-sorts the groups into canonical order).
void build_partition_groups(const WeakComponents& components, CanonicalPartitionIndex& index) {
  const std::size_t n = components.label.size();
  index.count = components.count;
  index.component = components.label;
  index.order = components.members;
  index.offsets = components.offsets;
  index.node_hash.assign(n, 0);
  index.rank.assign(n, 0);
}

// Position of each node within its partition's ascending-id listing: the
// coordinate system of the refinement scratch and of the memo key.
std::vector<std::int32_t> partition_positions(const CanonicalPartitionIndex& index) {
  std::vector<std::int32_t> pos(index.order.size(), 0);
  for (std::int32_t c = 0; c < index.count; ++c) {
    const std::span<const NodeId> nodes = index.nodes(c);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      pos[static_cast<std::size_t>(nodes[i])] = static_cast<std::int32_t>(i);
    }
  }
  return pos;
}

// Seed hash from per-node intrinsic structure. The generalized level
// (Eq. level recurrence) is included because it separates long chains
// immediately — pure neighbor-multiset refinement would need O(diameter)
// rounds for those.
std::uint64_t seed_hash(const TaskGraph& graph, NodeId v, const Rational& level) {
  std::uint64_t h = avalanche(0x73747347ULL);  // arbitrary fixed seed
  h = hash_combine(h, static_cast<std::uint64_t>(graph.kind(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.output_volume(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.input_volume(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.in_degree(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(graph.out_degree(v)));
  h = hash_combine(h, static_cast<std::uint64_t>(level.num()));
  h = hash_combine(h, static_cast<std::uint64_t>(level.den()));
  return h;
}

// One partition in flat arrays indexed by position (see
// partition_positions), reused across the partitions of one
// canonicalization call.
struct RefineScratch {
  std::vector<std::uint32_t> first;    ///< node i's edge ends: [first[i], first[i + 1])
  std::vector<std::int32_t> neighbor;  ///< per edge end: the neighbor's position
  std::vector<std::uint64_t> tag;      ///< per edge end: hash_combine(1 in | 2 out, volume)
  std::vector<std::uint64_t> hash;     ///< per node: this round's hash
  std::vector<std::uint64_t> next;     ///< per node: the next round's hash
  std::vector<std::uint64_t> sig;      ///< one node's signatures, kept sorted
  std::vector<std::uint64_t> slots;    ///< distinct_classes' table
};

// Loads partition c into `rs`: the seeds from index.node_hash, and each
// node's in-neighbors' then out-neighbors' positions, with the constant hash
// of that edge end's (direction, volume).
void load_partition(const TaskGraph& graph, const CanonicalPartitionIndex& index,
                    std::int32_t c, std::span<const std::int32_t> pos, RefineScratch& rs) {
  const std::span<const NodeId> nodes = index.nodes(c);
  const std::size_t m = nodes.size();
  std::size_t ends = 0;
  for (const NodeId v : nodes) ends += graph.in_degree(v) + graph.out_degree(v);
  rs.first.resize(m + 1);
  rs.neighbor.resize(ends);
  rs.tag.resize(ends);
  rs.hash.resize(m);
  rs.next.resize(m);
  std::size_t k = 0;
  std::size_t widest = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId v = nodes[i];
    rs.first[i] = static_cast<std::uint32_t>(k);
    rs.hash[i] = index.node_hash[static_cast<std::size_t>(v)];
    for (const EdgeId e : graph.in_edges(v)) {
      const Edge& edge = graph.edge(e);
      rs.neighbor[k] = pos[static_cast<std::size_t>(edge.src)];
      rs.tag[k++] = hash_combine(1, static_cast<std::uint64_t>(edge.volume));
    }
    for (const EdgeId e : graph.out_edges(v)) {
      const Edge& edge = graph.edge(e);
      rs.neighbor[k] = pos[static_cast<std::size_t>(edge.dst)];
      rs.tag[k++] = hash_combine(2, static_cast<std::uint64_t>(edge.volume));
    }
    widest = std::max(widest, k - rs.first[i]);
  }
  rs.first[m] = static_cast<std::uint32_t>(k);
  rs.sig.resize(widest);
}

// One compare-exchange of a sorting network. std::min and std::max over
// integers compile to conditional moves, so a network sorts without a
// data-dependent branch.
void compare_exchange(std::uint64_t& a, std::uint64_t& b) noexcept {
  const std::uint64_t low = std::min(a, b);
  b = std::max(a, b);
  a = low;
}

// Sorts s[0..4) with the optimal five-comparator network.
void sort4(std::uint64_t* s) noexcept {
  compare_exchange(s[0], s[1]);
  compare_exchange(s[2], s[3]);
  compare_exchange(s[0], s[2]);
  compare_exchange(s[1], s[3]);
  compare_exchange(s[1], s[2]);
}

// Sorts s[0..8) with the optimal 19-comparator network (six layers; the
// comparators of a layer are independent). Written out: as a loop over a pair
// table the compiler keeps s in memory instead of registers.
void sort8(std::uint64_t* s) noexcept {
  compare_exchange(s[0], s[2]);
  compare_exchange(s[1], s[3]);
  compare_exchange(s[4], s[6]);
  compare_exchange(s[5], s[7]);
  compare_exchange(s[0], s[4]);
  compare_exchange(s[1], s[5]);
  compare_exchange(s[2], s[6]);
  compare_exchange(s[3], s[7]);
  compare_exchange(s[0], s[1]);
  compare_exchange(s[2], s[3]);
  compare_exchange(s[4], s[5]);
  compare_exchange(s[6], s[7]);
  compare_exchange(s[2], s[4]);
  compare_exchange(s[3], s[5]);
  compare_exchange(s[1], s[4]);
  compare_exchange(s[3], s[6]);
  compare_exchange(s[1], s[2]);
  compare_exchange(s[3], s[4]);
  compare_exchange(s[5], s[6]);
}

// Weisfeiler-Leman rounds over the partition loaded into `rs`: a node's next
// hash folds its hash with its signatures — one hash per edge end of
// (direction, volume, neighbor hash) — in ascending order, then with their
// count, so the fold hashes a multiset, never edge-id order. Rounds stop
// when the class count stops growing, at the latest after 32. Leaves the
// stabilized hashes in rs.hash.
void refine_rounds(RefineScratch& rs) {
  constexpr int kMaxRounds = 32;
  // Up to this many edge ends a node's signatures go through sort4 or sort8,
  // padded with UINT64_MAX. A pad sorts after every other signature, and one
  // equal to it is the same value, so the first `degree` outputs are exactly
  // the sorted signatures either way.
  constexpr std::size_t kNetworkMax = 8;
  constexpr std::uint64_t kPad = std::numeric_limits<std::uint64_t>::max();
  // Above this many edge ends a node's signatures are sorted once instead of
  // inserted one by one, which would cost quadratic time on a hub.
  constexpr std::size_t kInsertionSortMax = 32;
  const std::size_t m = rs.hash.size();
  std::size_t classes = distinct_classes(rs.hash, rs.slots);
  for (int round = 0; round < kMaxRounds && classes < m; ++round) {
    std::uint64_t* const sig = rs.sig.data();
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t begin = rs.first[i];
      const std::size_t degree = rs.first[i + 1] - begin;
      const auto signature = [&rs, begin](std::size_t j) {
        const std::uint32_t k = begin + static_cast<std::uint32_t>(j);
        return hash_combine(rs.tag[k], rs.hash[static_cast<std::size_t>(rs.neighbor[k])]);
      };
      std::uint64_t h = rs.hash[i];
      if (degree <= kNetworkMax) {
        std::uint64_t few[kNetworkMax] = {kPad, kPad, kPad, kPad, kPad, kPad, kPad, kPad};
        for (std::size_t j = 0; j < degree; ++j) few[j] = signature(j);
        if (degree <= 4) {
          sort4(few);
        } else {
          sort8(few);
        }
        for (std::size_t j = 0; j < degree; ++j) h = hash_combine(h, few[j]);
      } else {
        for (std::size_t j = 0; j < degree; ++j) {
          const std::uint64_t s = signature(j);
          std::size_t at = j;
          if (degree <= kInsertionSortMax) {
            for (; at > 0 && sig[at - 1] > s; --at) sig[at] = sig[at - 1];
          }
          sig[at] = s;
        }
        if (degree > kInsertionSortMax) std::sort(sig, sig + degree);
        for (std::size_t j = 0; j < degree; ++j) h = hash_combine(h, sig[j]);
      }
      rs.next[i] = hash_combine(h, degree);
    }
    rs.hash.swap(rs.next);
    const std::size_t refined = distinct_classes(rs.hash, rs.slots);
    if (refined == classes) break;
    classes = refined;
  }
}

// Weisfeiler-Leman refinement + canonical (hash, original id) sort + rank
// assignment for partition c. index.node_hash must hold the seed hashes of
// the partition's nodes. Everything the rounds read — seeds, neighbor
// volumes/hashes, the stop rule — is intrinsic to the partition, so running
// it on the whole graph and on an extracted partition yields identical
// hashes (the invariance canonical_partition_form needs).
void refine_partition(const TaskGraph& graph, CanonicalPartitionIndex& index, std::int32_t c,
                      std::span<const std::int32_t> pos, RefineScratch& rs) {
  load_partition(graph, index, c, pos, rs);
  refine_rounds(rs);
  const std::span<const NodeId> nodes = index.nodes(c);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index.node_hash[static_cast<std::size_t>(nodes[i])] = rs.hash[i];
  }

  // Canonical order: (stabilized hash, original id) within the partition;
  // ranks are positions in that order.
  const auto begin = index.order.begin() + static_cast<std::ptrdiff_t>(
                                               index.offsets[static_cast<std::size_t>(c)]);
  const auto end = index.order.begin() + static_cast<std::ptrdiff_t>(
                                             index.offsets[static_cast<std::size_t>(c) + 1]);
  std::sort(begin, end, [&index](NodeId a, NodeId b) {
    const std::uint64_t ha = index.node_hash[static_cast<std::size_t>(a)];
    const std::uint64_t hb = index.node_hash[static_cast<std::size_t>(b)];
    if (ha != hb) return ha < hb;
    return a < b;
  });
  for (auto it = begin; it != end; ++it) {
    index.rank[static_cast<std::size_t>(*it)] = static_cast<std::int32_t>(it - begin);
  }
}

// The byte form of one partition into `out`: node and edge counts, each
// node's kind and recorded output in `nodes` order, then each node's
// out-degree and out-edges as (coord[dst], volume). The PartitionCanonMemo
// key lists the nodes in ascending-id order with destinations by position
// (partition_positions), since ranks are exactly what a memo probe does not
// yet know; canonical_partition_form lists them in canonical order with
// destinations by rank. Writing into `out` lets the per-partition loop reuse
// one buffer instead of allocating per probe.
void write_partition_form(const TaskGraph& graph, std::span<const NodeId> nodes,
                          std::span<const std::int32_t> coord, std::string& out) {
  std::size_t local_edges = 0;
  for (const NodeId v : nodes) local_edges += graph.out_degree(v);

  out.resize(16 + nodes.size() * 17 + local_edges * 16);
  char* p = out.data();
  const auto put64 = [&p](std::int64_t value) {
    std::memcpy(p, &value, 8);
    p += 8;
  };
  put64(static_cast<std::int64_t>(nodes.size()));
  put64(static_cast<std::int64_t>(local_edges));
  for (const NodeId v : nodes) {
    *p++ = static_cast<char>(graph.kind(v));
    put64(recorded_output(graph, v));
  }
  for (const NodeId v : nodes) {
    put64(static_cast<std::int64_t>(graph.out_degree(v)));
    for (const EdgeId e : graph.out_edges(v)) {
      const Edge& edge = graph.edge(e);
      put64(coord[static_cast<std::size_t>(edge.dst)]);
      put64(edge.volume);
    }
  }
}

}  // namespace

CanonicalPartitionIndex canonical_partition_index(const TaskGraph& graph) {
  return canonical_partition_index(graph, node_levels(graph));
}

CanonicalPartitionIndex canonical_partition_index(const TaskGraph& graph,
                                                  std::span<const Rational> levels) {
  const std::size_t n = graph.node_count();
  CanonicalPartitionIndex index;
  build_partition_groups(graph.weak_components(), index);

  for (std::size_t v = 0; v < n; ++v) {
    index.node_hash[v] = seed_hash(graph, static_cast<NodeId>(v), levels[v]);
  }

  const std::vector<std::int32_t> pos = partition_positions(index);
  RefineScratch rs;
  for (std::int32_t c = 0; c < index.count; ++c) refine_partition(graph, index, c, pos, rs);
  return index;
}

CanonicalPartitionIndex canonical_partition_index(
    const TaskGraph& graph, PartitionCanonMemo* memo,
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>>* entries) {
  if (memo != nullptr) {
    if (std::optional<CanonicalPartitionIndex> index =
            composite_partition_index(graph, *memo, entries)) {
      return std::move(*index);
    }
  }
  if (entries) entries->clear();
  return canonical_partition_index(graph);
}

std::optional<CanonicalPartitionIndex> composite_partition_index(
    const TaskGraph& graph, PartitionCanonMemo& memo,
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>>* entries) {
  const WeakComponents& components = graph.weak_components();
  if (components.count <= 1) return std::nullopt;
  CanonicalPartitionIndex index;
  build_partition_groups(components, index);
  if (entries) entries->assign(static_cast<std::size_t>(index.count), nullptr);
  const std::vector<std::int32_t> pos = partition_positions(index);

  // Scratch for the miss path, indexed by position within the partition:
  // one missed partition of a large graph (the delta steady state) sizes it
  // to that partition, never to the whole graph.
  RefineScratch rs;
  std::vector<Rational> level;
  std::vector<std::int32_t> indeg;
  std::vector<NodeId> ready;
  std::vector<NodeId> ids;  // ascending-id snapshot of the current slice
  std::string raw_buf;      // reused across partitions; copied only on a miss

  for (std::int32_t c = 0; c < index.count; ++c) {
    NodeId* const slice = index.order.data() + index.offsets[static_cast<std::size_t>(c)];
    const std::size_t size = index.offsets[static_cast<std::size_t>(c) + 1] -
                             index.offsets[static_cast<std::size_t>(c)];
    ids.assign(slice, slice + size);
    write_partition_form(graph, {slice, size}, pos, raw_buf);

    if (auto hit = memo.find(raw_buf)) {
      for (std::size_t i = 0; i < size; ++i) {
        const NodeId v = ids[i];
        index.node_hash[static_cast<std::size_t>(v)] = hit->hash[i];
        index.rank[static_cast<std::size_t>(v)] = hit->rank[i];
        slice[hit->rank[i]] = v;
      }
      if (entries) (*entries)[static_cast<std::size_t>(c)] = std::move(hit);
      continue;
    }

    // Partition-local generalized levels, mirroring the node_levels
    // recurrence: L(v) = 1 for nodes without inputs, else
    // max parent level + max(R(v), 1). Every edge of a partition node lies
    // inside the partition (components span ALL edges), so these equal the
    // whole-graph levels and the seeds match the plain overload's.
    const auto at = [&pos](NodeId v) {
      return static_cast<std::size_t>(pos[static_cast<std::size_t>(v)]);
    };
    level.assign(size, Rational(0));
    indeg.assign(size, 0);
    ready.clear();
    for (std::size_t i = 0; i < size; ++i) {
      indeg[i] = static_cast<std::int32_t>(graph.in_degree(ids[i]));
      if (indeg[i] == 0) ready.push_back(ids[i]);
    }
    std::size_t popped = 0;
    while (!ready.empty()) {
      const NodeId v = ready.back();
      ready.pop_back();
      ++popped;
      const auto ins = graph.in_edges(v);
      if (ins.empty()) {
        level[at(v)] = Rational(1);
      } else {
        Rational best(0);
        for (const EdgeId e : ins) best = std::max(best, level[at(graph.edge(e).src)]);
        level[at(v)] = best + std::max(graph.rate(v), Rational(1));
      }
      for (const EdgeId e : graph.out_edges(v)) {
        const NodeId w = graph.edge(e).dst;
        if (--indeg[at(w)] == 0) ready.push_back(w);
      }
    }
    if (popped != size) {
      throw std::invalid_argument("canonical_partition_index: graph contains a cycle");
    }

    for (std::size_t i = 0; i < size; ++i) {
      index.node_hash[static_cast<std::size_t>(ids[i])] = seed_hash(graph, ids[i], level[i]);
    }
    refine_partition(graph, index, c, pos, rs);

    PartitionCanonMemo::Ranks ranks;
    ranks.hash.reserve(size);
    ranks.rank.reserve(size);
    for (const NodeId v : ids) {
      ranks.hash.push_back(index.node_hash[static_cast<std::size_t>(v)]);
      ranks.rank.push_back(index.rank[static_cast<std::size_t>(v)]);
    }
    ranks.form = canonical_partition_form(graph, index, c);
    ranks.form_digest = fnv1a64(ranks.form);
    auto resident = memo.insert(raw_buf, std::move(ranks));
    if (entries) (*entries)[static_cast<std::size_t>(c)] = std::move(resident);
  }
  return index;
}

std::shared_ptr<const PartitionCanonMemo::Ranks> PartitionCanonMemo::find(
    const std::string& raw) {
  const std::uint64_t digest = fnv1a64(raw);
  const MutexLock lock(mutex_);
  if (const auto* hit = lru_.find(digest, raw)) {
    ++stats_.hits;
    return *hit;
  }
  ++stats_.misses;
  return nullptr;
}

std::shared_ptr<const PartitionCanonMemo::Ranks> PartitionCanonMemo::insert(std::string raw,
                                                                            Ranks ranks) {
  const std::size_t weight = ranks.hash.size();
  auto owned = std::make_shared<const Ranks>(std::move(ranks));
  const std::uint64_t digest = fnv1a64(raw);
  const MutexLock lock(mutex_);
  // A concurrent insert that won the race keeps its entry; ranks heavier
  // than the whole memo are refused and returned uncached.
  const auto inserted = lru_.insert(digest, std::move(raw), owned, weight);
  return inserted.value != nullptr ? *inserted.value : owned;
}

PartitionCanonMemo::Stats PartitionCanonMemo::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

std::size_t PartitionCanonMemo::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t PartitionCanonMemo::total_weight() const {
  const MutexLock lock(mutex_);
  return lru_.total_weight();
}

std::string canonical_partition_form(const TaskGraph& graph,
                                     const CanonicalPartitionIndex& index,
                                     std::int32_t c) {
  std::string out;
  write_partition_form(graph, index.nodes(c), index.rank, out);
  return out;
}

TaskGraph materialize_partition(const TaskGraph& graph,
                                const CanonicalPartitionIndex& index,
                                std::int32_t c) {
  const std::span<const NodeId> nodes = index.nodes(c);
  TaskGraph local;
  for (const NodeId v : nodes) {
    switch (graph.kind(v)) {
      case NodeKind::kSource:
        local.add_source(graph.declared_output(v));
        break;
      case NodeKind::kCompute: {
        const NodeId lv = local.add_compute();
        if (graph.declared_output(v) > 0) local.declare_output(lv, graph.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId lv = local.add_buffer();
        if (graph.declared_output(v) > 0) local.declare_output(lv, graph.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        local.add_sink();
        break;
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const EdgeId e : graph.out_edges(nodes[i])) {
      const Edge& edge = graph.edge(e);
      local.add_edge(static_cast<NodeId>(i),
                     index.rank[static_cast<std::size_t>(edge.dst)], edge.volume);
    }
  }
  return local;
}

CanonicalPartitionIndex materialized_partition_index(const CanonicalPartitionIndex& index,
                                                     std::int32_t c) {
  const std::span<const NodeId> nodes = index.nodes(c);
  const std::size_t n = nodes.size();
  CanonicalPartitionIndex local;
  local.count = 1;
  local.component.assign(n, 0);
  local.node_hash.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    local.node_hash[i] = index.node_hash[static_cast<std::size_t>(nodes[i])];
  }
  local.order.resize(n);
  std::iota(local.order.begin(), local.order.end(), NodeId{0});
  local.rank.resize(n);
  std::iota(local.rank.begin(), local.rank.end(), std::int32_t{0});
  local.offsets = {0, n};
  return local;
}

}  // namespace sts
