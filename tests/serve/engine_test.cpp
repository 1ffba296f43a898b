// QueryEngine warm-state guarantees:
//
//   * forking the warm baseline is bit-exact — repeated forks of the same
//     image answer with byte-identical payloads, on both backends;
//   * warm answers equal cold answers — an engine that has served other
//     queries first (so the fork/cache paths are hot) produces the same
//     bytes as a fresh engine answering only that query;
//   * batches are independent of worker-thread count;
//   * threads racing on one cold faults query build the baseline outside
//     the engine lock, insert it once, and answer byte-identically;
//   * the reuse accounting (EngineStats) reflects the paths taken;
//   * malformed queries become typed error envelopes in place, never
//     exceptions, and never poison the rest of a batch.
#include "netpp/serve/engine.h"

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "netpp/serve/json.h"

namespace netpp::serve {
namespace {

/// Answers `text` and returns the ok-envelope payload string.
std::string payload_of(QueryEngine& engine, const std::string& text) {
  const JsonValue response = engine.handle(parse_json(text));
  const JsonValue* ok = response.find("ok");
  EXPECT_NE(ok, nullptr);
  if (ok == nullptr || !ok->as_bool()) {
    ADD_FAILURE() << "query failed: " << response.dump();
    return {};
  }
  return response.find("result")->find("payload")->as_string();
}

const char* const kFaultsCsv = R"({"command":"faults","seed":7,"output":"csv"})";
const char* const kFaultsShardedCsv =
    R"({"command":"faults","seed":7,"backend":"sharded","shards":2,"output":"csv"})";
const char* const kMechCsv = R"({"command":"mech","iters":2,"output":"csv"})";

TEST(QueryEngine, RepeatedForksAreBitIdentical) {
  for (const char* query : {kFaultsCsv, kFaultsShardedCsv}) {
    QueryEngine engine{EngineConfig{.result_cache = false}};
    const std::string first = payload_of(engine, query);
    ASSERT_FALSE(first.empty());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(payload_of(engine, query), first)
          << query << ": fork " << i << " diverged";
    }
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.baselines_built, 1u) << query;
    EXPECT_EQ(stats.baseline_forks, 4u) << query;
    EXPECT_EQ(stats.result_reuses, 0u) << query;
  }
}

TEST(QueryEngine, ConcurrentColdFaultsQueriesInsertOneBaseline) {
  constexpr int kThreads = 4;
  for (const char* query : {kFaultsCsv, kFaultsShardedCsv}) {
    QueryEngine engine{EngineConfig{.result_cache = false}};
    std::vector<std::string> payloads(kThreads);
    std::latch start{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        payloads[t] = payload_of(engine, query);
      });
    }
    for (auto& thread : threads) thread.join();
    ASSERT_FALSE(payloads[0].empty()) << query;
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(payloads[t], payloads[0]) << query << ": thread " << t;
    }
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.baselines_built, 1u) << query;
    EXPECT_EQ(stats.baseline_forks, static_cast<std::size_t>(kThreads))
        << query;
  }
}

TEST(QueryEngine, WarmAnswersEqualColdAnswers) {
  // Warm engine: serve a mixed workload first so every answer below comes
  // from hot forks / composite-cache hits.
  QueryEngine warm{EngineConfig{.result_cache = false}};
  (void)payload_of(warm, R"({"command":"faults","seed":7,"output":"table"})");
  (void)payload_of(warm, R"({"command":"mech","iters":2,"output":"table"})");
  (void)payload_of(warm,
                   R"({"command":"mech","stack":"dynamic","iters":2,"output":"csv"})");

  for (const char* query :
       {kFaultsCsv, kFaultsShardedCsv, kMechCsv,
        R"({"command":"faults","seed":7,"output":"metrics"})",
        R"({"command":"mech","iters":2,"output":"metrics"})"}) {
    QueryEngine cold{EngineConfig{.result_cache = false}};
    EXPECT_EQ(payload_of(warm, query), payload_of(cold, query))
        << "warm answer diverged from cold for " << query;
  }
}

TEST(QueryEngine, BatchesAreIndependentOfThreadCount) {
  JsonValue batch = JsonValue::make_array();
  int id = 0;
  for (const char* query :
       {kFaultsCsv, kFaultsShardedCsv, kMechCsv,
        R"({"command":"mech","stack":"dynamic","iters":2,"output":"csv"})",
        R"({"command":"savings","prop":0.85,"output":"csv"})",
        R"({"command":"faults","seed":11,"output":"csv"})"}) {
    JsonValue q = parse_json(query);
    q.set("id", JsonValue::make_number(id++));
    batch.push_back(std::move(q));
  }
  std::vector<std::string> responses;
  for (const std::size_t threads : {1u, 4u}) {
    QueryEngine engine{
        EngineConfig{.num_threads = threads, .result_cache = false}};
    responses.push_back(engine.handle(batch).dump());
  }
  EXPECT_EQ(responses[0], responses[1])
      << "batch answers depend on the worker-thread count";
}

TEST(QueryEngine, ResultCacheShortCircuitsIdenticalQueries) {
  QueryEngine engine;  // result_cache on by default
  const std::string first = payload_of(engine, kMechCsv);
  EXPECT_EQ(payload_of(engine, kMechCsv), first);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.result_reuses, 1u);
}

TEST(QueryEngine, MechQueriesShareTheCompositeCache) {
  QueryEngine engine{EngineConfig{.result_cache = false}};
  const std::string first = payload_of(engine, kMechCsv);
  EXPECT_EQ(payload_of(engine, kMechCsv), first);
  // The second run reused backend simulations and stage totals instead of
  // resimulating from scratch.
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.sim_reuses, 0u);
  EXPECT_GT(stats.stage_reuses, 0u);
}

TEST(QueryEngine, ErrorsBecomeTypedEnvelopesInPlace) {
  QueryEngine engine;
  // Malformed text: a bad_json envelope, not an exception.
  const std::string bad = engine.handle_text("this is not json");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad.find("\"code\":\"bad_json\""), std::string::npos);
  // A batch with one bad query answers the good ones and slots a typed
  // error envelope at the bad one's position.
  const JsonValue response = engine.handle(parse_json(
      R"([{"command":"cluster","output":"csv","id":0},)"
      R"({"command":"faults","mttr_s":0,"id":1},)"
      R"({"command":"savings","prop":0.5,"id":2}])"));
  const std::vector<JsonValue>& answers = response.as_array();
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0].find("ok")->as_bool());
  EXPECT_FALSE(answers[1].find("ok")->as_bool());
  EXPECT_EQ(answers[1].find("error")->find("code")->as_string(),
            "out_of_range");
  EXPECT_EQ(answers[1].find("id")->as_number(), 1.0);
  EXPECT_TRUE(answers[2].find("ok")->as_bool());
}

TEST(QueryEngine, EchoesTheQueryId) {
  QueryEngine engine;
  const JsonValue response = engine.handle(
      parse_json(R"({"command":"cluster","output":"csv","id":"alpha"})"));
  EXPECT_EQ(response.find("id")->as_string(), "alpha");
  // No id: echoed as null.
  const JsonValue anon =
      engine.handle(parse_json(R"({"command":"cluster","output":"csv"})"));
  EXPECT_TRUE(anon.find("id")->is_null());
}

}  // namespace
}  // namespace netpp::serve
