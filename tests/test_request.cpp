// ScheduleRequest envelope round-trip coverage: serialize -> parse must
// preserve the request identity (key(), and therefore the cache entry it
// resolves to) across randomized graphs, machine configs, and sim options;
// malformed envelopes must be rejected with typed errors, never silently
// coerced into a different scenario.

#include "service/request.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/serialization.hpp"
#include "paper_examples.hpp"
#include "service/schedule_service.hpp"
#include "support/json.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

/// A request exercising every envelope field, varied by (shape, seed).
ScheduleRequest fuzz_request(int shape, std::uint64_t seed) {
  ScheduleRequest request;
  request.graph = make_random_layered(testing::fuzz_spec_for(shape), seed);
  request.scheduler = (seed % 2 == 0) ? "streaming-rlx" : "streaming-lts";
  request.machine.num_pes = 4 + static_cast<std::int64_t>(seed % 29);
  request.machine.default_fifo_capacity = 1 + static_cast<std::int64_t>(seed % 3);
  if (seed % 3 == 0) request.machine.place_on_mesh = true;
  if (seed % 4 == 0) {
    // Fractional speeds stress the double round-trip (to_chars shortest
    // form must parse back bit-identically).
    request.machine.pe_speed = {1.0, 0.75, 1.0 / 3.0, 2.5 + 0.1 * static_cast<double>(seed)};
  }
  if (seed % 2 == 0) {
    SimOptions sim;
    sim.engine = (seed % 4 == 0) ? SimEngine::kTickAccurate : SimEngine::kBulkAdvance;
    sim.max_ticks = 1'000'000 + static_cast<std::int64_t>(seed);
    sim.record_trace = seed % 8 == 0;
    request.sim = sim;
  }
  if (seed % 5 == 0) request.admission = AdmissionPolicy::kReject;
  request.priority = static_cast<std::int32_t>(seed % 3);
  if (seed % 3 == 1) request.label = "fuzz \"label\"\n#" + std::to_string(seed);
  return request;
}

/// Several fuzz-shaped random components in one graph, named with prefixes
/// that need JSON escapes (quote, backslash, control bytes) or carry
/// non-ASCII UTF-8 bytes.
TaskGraph named_multi_component_graph(std::uint64_t seed) {
  const std::string prefixes[] = {"quote\" back\\slash/ ", "tab\t newline\n bell\x07 del\x7f ",
                                  "\xc3\xa9t\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x9a\x80 "};
  TaskGraph graph;
  for (int c = 0; c < 3; ++c) {
    const int shape = (c + static_cast<int>(seed)) % 4;
    const std::uint64_t part_seed = seed * 3 + static_cast<std::uint64_t>(c);
    testing::append_component(graph, make_random_layered(testing::fuzz_spec_for(shape), part_seed),
                              prefixes[c]);
  }
  return graph;
}

/// source -> a -> b with 8 on both edges and exit b declaring 8: an invalid
/// graph because either a (`at_source` false) or the source declares 16.
TaskGraph contradicting_declaration(bool at_source) {
  TaskGraph graph;
  const NodeId source = graph.add_source(at_source ? 16 : 8, "source");
  const NodeId a = graph.add_compute("a");
  const NodeId b = graph.add_compute("b");
  graph.add_edge(source, a, 8);
  graph.add_edge(a, b, 8);
  if (!at_source) graph.declare_output(a, 16);
  graph.declare_output(b, 8);
  return graph;
}

struct RoundTripCase {
  std::string name;
  ScheduleRequest request;
  bool valid = true;
};

/// The fuzzed envelope grid, multi-component graphs with escaped and
/// non-ASCII names, and two invalid graphs whose declared outputs contradict
/// their out-edges.
std::vector<RoundTripCase> round_trip_cases() {
  std::vector<RoundTripCase> cases;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      cases.push_back({"shape " + std::to_string(shape) + ", seed " + std::to_string(seed),
                       fuzz_request(shape, seed)});
    }
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScheduleRequest request = fuzz_request(static_cast<int>(seed % 4), seed);
    request.graph = named_multi_component_graph(seed);
    cases.push_back({"named multi-component, seed " + std::to_string(seed), std::move(request)});
  }
  for (const bool at_source : {false, true}) {
    ScheduleRequest request;
    request.graph = contradicting_declaration(at_source);
    cases.push_back({at_source ? "source declares 16 on an edge of 8"
                               : "compute declares 16 on an edge of 8",
                     std::move(request), false});
  }
  return cases;
}

/// A node's declared output where it has one, else its derived volume: the
/// volume the key records. A declaration equal to the derived volume is not
/// written, so this, not declared_output(), is what a trip must preserve.
std::int64_t declared_or_derived(const TaskGraph& graph, NodeId v) {
  const std::int64_t declared = graph.declared_output(v);
  return graph.kind(v) != NodeKind::kSink && declared > 0 ? declared : graph.output_volume(v);
}

TEST(ScheduleRequestJson, RoundTripPreservesKeyAcrossFuzzedEnvelopes) {
  for (const RoundTripCase& input : round_trip_cases()) {
    SCOPED_TRACE(input.name);
    const ScheduleRequest& original = input.request;
    const std::string json = original.to_json();
    const ScheduleRequest parsed = ScheduleRequest::from_json(json);

    // The acceptance invariant: identical key => identical cache entry.
    EXPECT_EQ(parsed.key(), original.key());
    EXPECT_EQ(canonical_fingerprint(parsed.graph), canonical_fingerprint(original.graph));
    EXPECT_EQ(parsed.graph.node_count(), original.graph.node_count());
    EXPECT_EQ(parsed.graph.edge_count(), original.graph.edge_count());
    EXPECT_EQ(parsed.scheduler, original.scheduler);
    EXPECT_EQ(parsed.machine.cache_key(), original.machine.cache_key());
    EXPECT_EQ(parsed.sim.has_value(), original.sim.has_value());
    if (original.sim) EXPECT_EQ(parsed.sim->cache_key(), original.sim->cache_key());
    EXPECT_EQ(parsed.admission, original.admission);
    EXPECT_EQ(parsed.priority, original.priority);
    EXPECT_EQ(parsed.label, original.label);

    // Serialization is stable: a second trip emits the same bytes.
    EXPECT_EQ(parsed.to_json(), json);

    // Names and declared outputs survive, and an invalid graph stays
    // invalid for the same reasons instead of arriving as its valid twin.
    const std::size_t nodes = std::min(parsed.graph.node_count(), original.graph.node_count());
    for (NodeId v = 0; static_cast<std::size_t>(v) < nodes; ++v) {
      EXPECT_EQ(parsed.graph.name(v), original.graph.name(v)) << "node " << v;
      EXPECT_EQ(declared_or_derived(parsed.graph, v), declared_or_derived(original.graph, v))
          << "node " << v;
    }
    EXPECT_EQ(parsed.graph.validate(), original.graph.validate());
    EXPECT_EQ(original.graph.validate().empty(), input.valid);
  }
}

TEST(ScheduleRequestJson, InlineGraphPreservesNamesAndStructure) {
  ScheduleRequest request;
  request.graph = testing::figure8_graph();  // named nodes
  const ScheduleRequest parsed = ScheduleRequest::from_json(request.to_json());
  EXPECT_EQ(save_task_graph_to_string(parsed.graph),
            save_task_graph_to_string(request.graph));
}

TEST(ScheduleRequestJson, GeneratorRefMaterializesTheSameScenario) {
  const ScheduleRequest parsed = ScheduleRequest::from_json(
      R"({"schema_version": 2, "scheduler": "streaming-rlx", "machine": {"pes": 16},)"
      R"( "graph": {"generator": "fft", "param": 16, "seed": 7}})");
  ASSERT_TRUE(parsed.graph_ref.has_value());
  EXPECT_EQ(parsed.graph_ref->label(), "fft 16 7");

  ScheduleRequest inline_request;
  inline_request.graph = make_fft(16, 7);
  inline_request.scheduler = "streaming-rlx";
  inline_request.machine.num_pes = 16;
  EXPECT_EQ(parsed.key(), inline_request.key())
      << "a generator ref is identity-equal to its inline expansion";

  // The ref (not the expanded node list) round-trips through JSON.
  const std::string json = parsed.to_json();
  EXPECT_NE(json.find("\"generator\": \"fft\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"nodes\""), std::string::npos) << json;
  EXPECT_EQ(ScheduleRequest::from_json(json).key(), parsed.key());
}

TEST(ScheduleRequestJson, RoundTrippedRequestHitsTheSameCacheEntry) {
  // The end-to-end acceptance gate: submit an envelope, round-trip it
  // through JSON, submit again — the parsed request must resolve from the
  // cache to the bit-identical result object.
  ScheduleService service(ServiceConfig{2, 4096});
  ScheduleRequest original;
  original.graph = make_gaussian_elimination(6, 11);
  original.scheduler = "streaming-rlx";
  original.machine.num_pes = 8;
  original.sim = SimOptions{};

  const std::string json = original.to_json();
  const auto first = service.submit(std::move(original)).future.get();

  ScheduleRequest reparsed = ScheduleRequest::from_json(json);
  auto second = service.submit(std::move(reparsed)).future;
  service.wait_idle();
  EXPECT_EQ(second.get().get(), first.get())
      << "serialize -> parse -> submit must be a cache hit on the same object";
  EXPECT_EQ(service.stats().fast_path_hits, 1u);
  EXPECT_EQ(service.stats().cache.misses, 1u);
}

TEST(ScheduleRequestJson, MalformedEnvelopesAreRejected) {
  const std::vector<std::string> malformed = {
      "",                                  // empty
      "{",                                 // truncated
      "not json at all",                   // no document
      R"({"schema_version": 1})",          // missing scheduler + graph
      R"({"scheduler": "streaming-rlx", "graph": {"nodes": [], "edges": []}})",  // no version
      R"({"schema_version": 99, "scheduler": "s", "graph": {"nodes": [], "edges": []}})",
      R"({"schema_version": "1", "scheduler": "s", "graph": {"nodes": [], "edges": []}})",
      R"({"schema_version": 1, "scheduler": "", "graph": {"nodes": [], "edges": []}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}, "x": 1})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [{"kind": "alien"}], "edges": []}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [{"kind": "source"}], "edges": []}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [{"kind": "sink", "output": 4}], "edges": []}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": [[0, 1]]}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": [[0, 1, 4]]}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"generator": "warp", "param": 4, "seed": 1}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"generator": "fft", "param": 17, "seed": 1}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"generator": "fft", "param": 16, "seed": -1}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}, "priority": 1.5})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}, "intra_threads": 4})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}, "admission": "maybe"})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}, "sim": {"engine": "warp"}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}, "sim": {"max_ticks": 0}})",
      R"({"schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}} trailing)",
      R"({"schema_version": 1, "schema_version": 1, "scheduler": "s", "graph": {"nodes": [], "edges": []}})",
  };
  for (const std::string& text : malformed) {
    EXPECT_THROW((void)ScheduleRequest::from_json(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(ScheduleRequestJson, EscapedLabelsSurviveTheTrip) {
  ScheduleRequest request;
  request.graph = make_chain(4, 1);
  request.label = "tabs\tquotes\"slashes\\and\nnewlines";
  const ScheduleRequest parsed = ScheduleRequest::from_json(request.to_json());
  EXPECT_EQ(parsed.label, request.label);
}

TEST(ScheduleRequestJson, KeyExcludesDeliveryHints) {
  ScheduleRequest a;
  a.graph = make_chain(6, 2);
  ScheduleRequest b = a;
  b.admission = AdmissionPolicy::kReject;
  b.priority = 7;
  b.label = "other";
  EXPECT_EQ(a.key(), b.key()) << "admission/priority/label are not identity";

  ScheduleRequest c = a;
  c.machine.num_pes = a.machine.num_pes + 1;
  EXPECT_NE(a.key(), c.key());
}

// key_digest() and parse_key_digest() are the two halves of one format: a
// delta names its base by the digest and the router reads the base's routing
// hash back out of it.
TEST(ScheduleRequestDigest, ParsesBackToTheKeyHash) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const ScheduleRequest request = fuzz_request(static_cast<int>(seed % 4), seed);
    EXPECT_EQ(parse_key_digest(request.key_digest()), request.key_hash()) << "seed " << seed;
  }
  EXPECT_EQ(parse_key_digest("0123456789abcdef"), 0x0123456789abcdefULL);
  EXPECT_EQ(parse_key_digest("ffffffffffffffff"), std::numeric_limits<std::uint64_t>::max());
}

TEST(ScheduleRequestDigest, RefusesAnythingButSixteenLowercaseHexDigits) {
  for (const char* bad : {"0123456789ABCDEF", "0123456789abcdeF", "0123456789abcde",
                          "0123456789abcdef0", "0123456789abcdeg", "0123456789abcd-f",
                          " 123456789abcdef", ""}) {
    EXPECT_EQ(parse_key_digest(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(ScheduleResponseJson, InvalidMarksOnlyABadRequest) {
  // A failed computation's body carries no bit; a bad request's does, and
  // rethrows as std::invalid_argument after the round trip.
  EXPECT_EQ(ScheduleResponse::failure("tick limit").to_json(),
            R"({"status": "error", "error": "tick limit"})");
  const std::string bad = ScheduleResponse::failure("unknown scheduler", true).to_json();
  EXPECT_EQ(bad, R"({"status": "error", "error": "unknown scheduler", "invalid": true})");
  const ScheduleResponse decoded = ScheduleResponse::from_json(bad);
  EXPECT_TRUE(decoded.invalid);
  EXPECT_THROW((void)decoded.result_or_throw(), std::invalid_argument);
  EXPECT_THROW((void)ScheduleResponse::from_json(R"({"status": "error", "error": "x"})")
                   .result_or_throw(),
               std::runtime_error);
  const char* explicit_false = R"({"status": "error", "error": "x", "invalid": false})";
  EXPECT_FALSE(ScheduleResponse::from_json(explicit_false).invalid);
  EXPECT_THROW(
      (void)ScheduleResponse::from_json(R"({"status": "error", "error": "x", "invalid": 1})"),
      std::invalid_argument);
}

TEST(JsonParser, RejectsStructuralGarbage) {
  for (const char* text :
       {"{\"a\": 1,}", "[1, 2,]", "{\"a\" 1}", "{1: 2}", "\"unterminated", "[1 2]",
        "{\"a\": 1} {\"b\": 2}", "tru", "nul", "-", "1e", "{\"a\": \\x}",
        "\"lone \\ud800 surrogate\""}) {
    EXPECT_THROW((void)parse_json(text), std::invalid_argument) << "accepted: " << text;
  }
}

TEST(JsonParser, KeepsInt64Exact) {
  const JsonDocument v = parse_json("[9223372036854775807, -9223372036854775808, 2.5]");
  EXPECT_EQ(v.items()[0].as_int(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(v.items()[1].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)v.items()[2].as_int(), std::invalid_argument);
  EXPECT_DOUBLE_EQ(v.items()[2].as_double(), 2.5);
}

TEST(JsonParser, IndexesAndIteratesPastNestedSiblings) {
  // Elements after a container are reached by skipping its whole subtree.
  const JsonDocument v = parse_json(R"([[1, [2]], {"a": [3, {}], "b": "s"}, "t", 4])");
  ASSERT_EQ(v.items().size(), 4u);
  EXPECT_EQ(v.items()[0].items()[1].items()[0].as_int(), 2);
  EXPECT_EQ(v.items()[1].at("b").as_string(), "s");
  EXPECT_EQ(v.items()[2].as_string(), "t");
  EXPECT_EQ(v.items()[3].as_int(), 4);
  std::string keys;
  for (const JsonValue::Member m : v.items()[1].members()) keys += m.key;
  EXPECT_EQ(keys, "ab");
  std::int64_t sum = 0;
  for (const JsonValue& item : v.items()) {
    if (item.kind() == JsonValue::Kind::kNumber) sum += item.as_int();
  }
  EXPECT_EQ(sum, 4);
}

}  // namespace
}  // namespace sts
