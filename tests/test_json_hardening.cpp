// Untrusted-input hardening of the JSON parser: nesting-depth and input-size
// limits must yield typed parse errors (std::invalid_argument) instead of
// stack exhaustion or unbounded allocation, and fuzz-style adversarial
// documents (deeply nested containers, pathological escapes, truncations)
// must never crash or parse to the wrong value.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "service/backend.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "support/json.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

std::string nested_arrays(std::size_t depth) {
  std::string text;
  text.reserve(2 * depth + 1);
  text.append(depth, '[');
  text += '1';
  text.append(depth, ']');
  return text;
}

std::string nested_objects(std::size_t depth) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
  text += "0";
  text.append(depth, '}');
  return text;
}

TEST(JsonHardening, DefaultDepthLimitIs64) {
  // Depth 64 parses; 65 is rejected with a typed error, not a crash.
  EXPECT_NO_THROW((void)parse_json(nested_arrays(64)));
  EXPECT_THROW((void)parse_json(nested_arrays(65)), std::invalid_argument);
  EXPECT_NO_THROW((void)parse_json(nested_objects(64)));
  EXPECT_THROW((void)parse_json(nested_objects(65)), std::invalid_argument);
}

TEST(JsonHardening, DepthErrorNamesTheProblem) {
  try {
    (void)parse_json(nested_arrays(65));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"), std::string::npos) << e.what();
  }
}

TEST(JsonHardening, CustomDepthLimit) {
  JsonLimits limits;
  limits.max_depth = 4;
  EXPECT_NO_THROW((void)parse_json(nested_arrays(4), limits));
  EXPECT_THROW((void)parse_json(nested_arrays(5), limits), std::invalid_argument);
  // Scalars sit at depth 0: a tight limit still parses flat documents.
  limits.max_depth = 0;
  EXPECT_EQ(parse_json("42", limits).as_int(), 42);
  EXPECT_THROW((void)parse_json("[1]", limits), std::invalid_argument);
}

TEST(JsonHardening, AdversarialDepthIsRejectedNotCrashed) {
  // A ~1M-level bomb must fail fast via the depth check long before the
  // recursion could touch the guard page. Both container kinds, and the
  // unterminated variant (all-open, no closers) too.
  EXPECT_THROW((void)parse_json(nested_arrays(1u << 20)), std::invalid_argument);
  EXPECT_THROW((void)parse_json(nested_objects(1u << 18)), std::invalid_argument);
  EXPECT_THROW((void)parse_json(std::string(1u << 20, '[')), std::invalid_argument);
}

TEST(JsonHardening, SizeLimitRejectsOversizedInput) {
  JsonLimits limits;
  limits.max_bytes = 16;
  EXPECT_EQ(parse_json("{\"k\": 1}", limits).at("k").as_int(), 1);
  const std::string big = "\"" + std::string(64, 'x') + "\"";
  try {
    (void)parse_json(big, limits);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos) << e.what();
  }
  // 0 = unlimited (the default): the same document parses.
  limits.max_bytes = 0;
  EXPECT_EQ(parse_json(big, limits).as_string(), std::string(64, 'x'));
}

TEST(JsonHardening, SizeLimitIsExactAtTheBoundary) {
  JsonLimits limits;
  limits.max_bytes = 4;
  EXPECT_EQ(parse_json("1234", limits).as_int(), 1234);
  EXPECT_THROW((void)parse_json("12345", limits), std::invalid_argument);
}

TEST(JsonHardening, FuzzStyleMalformedInputsThrowTyped) {
  // A grab bag of adversarial fragments: every one must throw
  // std::invalid_argument — never crash, hang, or silently parse.
  const char* cases[] = {
      "",
      "[",
      "]",
      "{",
      "{\"k\"",
      "{\"k\":}",
      "[1,]",
      "{\"k\":1,}",
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"truncated escape \\",
      "\"\\u12",
      "\"\\ud800\"",          // lone high surrogate
      "\"\\udc00\"",          // lone low surrogate
      "\"\\ud800\\u0041\"",   // high surrogate + non-surrogate
      "01",
      "-",
      "1.",
      ".5",
      "1e",
      "nul",
      "tru",
      "falsee",
      "1 2",
      "[1] []",
      "{\"a\":1,\"a\":2}",    // duplicate key
      "\x01",
      "\"ctrl \x1f\"",
  };
  for (const char* text : cases) {
    EXPECT_THROW((void)parse_json(text), std::invalid_argument) << "input: " << text;
  }
}

TEST(JsonHardening, DeepButLegalDocumentsRoundTripUnderTheLimit) {
  // Mixed nesting right at a custom bound, with real payloads on the way
  // down — the limit must count container levels, not bytes or members.
  JsonLimits limits;
  limits.max_depth = 8;
  const std::string doc =
      "{\"a\": [{\"b\": [{\"c\": [{\"d\": [7]}]}]}]}";  // depth 8
  const JsonDocument v = parse_json(doc, limits);
  EXPECT_EQ(v.at("a").items()[0].at("b").items()[0].at("c").items()[0].at("d").items()[0]
                .as_int(),
            7);
  limits.max_depth = 7;
  EXPECT_THROW((void)parse_json(doc, limits), std::invalid_argument);
}

TEST(JsonHardening, WideDocumentsAreNotDepth) {
  // 10k siblings at depth 1: breadth must not trip the depth limit.
  std::string wide = "[";
  for (int i = 0; i < 10000; ++i) {
    if (i > 0) wide += ',';
    wide += std::to_string(i);
  }
  wide += ']';
  JsonLimits limits;
  limits.max_depth = 1;
  EXPECT_EQ(parse_json(wide, limits).items().size(), 10000u);
}

TEST(JsonHardening, EveryProperPrefixOfARealDocumentThrows) {
  // A body cut anywhere (a dropped connection, a truncated scrape) must fail
  // typed: never parse as a shorter document, never read past the cut.
  ServiceConfig config;
  config.num_workers = 1;
  ScheduleService service(config);
  ScheduleRequest request;
  request.graph = make_cholesky(8, 3);
  request.machine.num_pes = 32;
  request.sim = SimOptions{};
  request.label = "prefix \"cut\"\n";
  const std::string request_json = request.to_json();
  const ScheduleResponse response = service.schedule(request);
  ASSERT_EQ(response.status, ScheduleResponse::Status::kOk) << response.error;
  const std::string response_json = response.to_json();
  const std::string stats_json = service.stats_json();

  // The whole documents parse; every proper prefix throws.
  EXPECT_EQ(ScheduleRequest::from_json(request_json).key(), request.key());
  EXPECT_EQ(ScheduleResponse::from_json(response_json).result->makespan,
            response.result->makespan);
  EXPECT_EQ(service_stats_from_json(parse_json(stats_json)).submitted, 1u);
  // Each prefix gets an allocation of exactly its size, so under ASan a read
  // past the cut is a report, not a read of the next byte of the document.
  const auto for_each_prefix = [](const std::string& text, const auto& check) {
    for (std::size_t n = 0; n < text.size(); ++n) {
      const std::vector<char> cut(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(n));
      check(std::string_view(cut.data(), cut.size()), n);
    }
  };
  for_each_prefix(request_json, [](std::string_view prefix, std::size_t n) {
    EXPECT_THROW((void)parse_json(prefix), std::invalid_argument) << n;
    EXPECT_THROW((void)ScheduleRequest::from_json(prefix), std::invalid_argument) << n;
  });
  for_each_prefix(response_json, [](std::string_view prefix, std::size_t n) {
    EXPECT_THROW((void)ScheduleResponse::from_json(prefix), std::invalid_argument) << n;
  });
  for_each_prefix(stats_json, [](std::string_view prefix, std::size_t n) {
    EXPECT_THROW((void)service_stats_from_json(parse_json(prefix)), std::invalid_argument) << n;
  });
}

}  // namespace
}  // namespace sts
