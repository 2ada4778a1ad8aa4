#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <stdexcept>

#include "core/streaming_scheduler.hpp"
#include "paper_examples.hpp"
#include "pipeline/passes.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/schedule_cache.hpp"
#include "sim/dataflow_sim.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

MachineConfig machine_with(std::int64_t pes) {
  MachineConfig machine;
  machine.num_pes = pes;
  return machine;
}

// ---------------------------------------------------------------- registry

TEST(Registry, BuiltinsAreRegistered) {
  auto& registry = SchedulerRegistry::instance();
  for (const char* name :
       {"streaming-lts", "streaming-rlx", "streaming-work", "list", "heft", "csdf"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    const auto scheduler = registry.create(name);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), name);
    EXPECT_FALSE(scheduler->description().empty());
  }
}

TEST(Registry, NamesAreSortedAndListEveryBuiltin) {
  const auto names = SchedulerRegistry::instance().names();
  EXPECT_GE(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, UnknownNameThrowsListingKnownSchedulers) {
  try {
    (void)SchedulerRegistry::instance().create("no-such-scheduler");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-scheduler"), std::string::npos);
    EXPECT_NE(message.find("streaming-rlx"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  auto& registry = SchedulerRegistry::instance();
  EXPECT_THROW(registry.add("streaming-rlx",
                            []() -> std::unique_ptr<Scheduler> {
                              throw std::logic_error("factory must not run");
                            }),
               std::invalid_argument);
}

TEST(Registry, CustomSchedulerRegistersAndUnregisters) {
  auto& registry = SchedulerRegistry::instance();
  registry.add("test-only-rlx",
               [&registry] { return registry.create("streaming-rlx"); });
  ASSERT_TRUE(registry.contains("test-only-rlx"));
  const TaskGraph g = testing::figure8_graph();
  const ScheduleResult r = schedule_by_name("test-only-rlx", g, machine_with(8));
  EXPECT_GT(r.makespan, 0);
  registry.remove("test-only-rlx");
  EXPECT_FALSE(registry.contains("test-only-rlx"));
}

// ---------------------------------------------------- input preconditions

TEST(SchedulerPreconditions, NonPositivePeCountThrows) {
  const TaskGraph g = testing::figure8_graph();
  EXPECT_THROW((void)schedule_by_name("streaming-rlx", g, machine_with(0)),
               std::invalid_argument);
  EXPECT_THROW((void)schedule_by_name("streaming-rlx", g, machine_with(-4)),
               std::invalid_argument);
  EXPECT_THROW((void)schedule_streaming_graph(g, 0, PartitionVariant::kRLX),
               std::invalid_argument);
}

TEST(SchedulerPreconditions, PeSpeedMustMatchPeCountAndBePositive) {
  const TaskGraph g = testing::figure8_graph();
  MachineConfig machine = machine_with(8);
  machine.pe_speed = {1.0, 1.0};  // size mismatch with num_pes
  EXPECT_THROW((void)schedule_by_name("heft", g, machine), std::invalid_argument);
  machine.pe_speed = std::vector<double>(8, 1.0);
  machine.pe_speed[3] = 0.0;
  EXPECT_THROW((void)schedule_by_name("heft", g, machine), std::invalid_argument);
  machine.pe_speed[3] = 2.0;
  EXPECT_GT(schedule_by_name("heft", g, machine).makespan, 0);
}

TEST(SchedulerPreconditions, InvalidGraphThrowsWithDiagnostics) {
  TaskGraph g;
  const NodeId a = g.add_source(8, "a");
  const NodeId b = g.add_compute("b");
  g.add_edge(a, b, 4);  // mismatched volume: source declares 8, edge carries 4
  ASSERT_FALSE(g.validate().empty());
  try {
    (void)schedule_streaming_graph(g, 4, PartitionVariant::kLTS);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("canonical"), std::string::npos);
  }
}

// ------------------------------------------------------------- equivalence

class PipelineEquivalence : public ::testing::TestWithParam<PartitionVariant> {};

TEST_P(PipelineEquivalence, MatchesDirectCallsOnPaperExamples) {
  const PartitionVariant variant = GetParam();
  const char* name = variant == PartitionVariant::kLTS ? "streaming-lts" : "streaming-rlx";
  for (const TaskGraph& g :
       {testing::figure8_graph(), testing::figure9_graph1(), testing::figure9_graph2(),
        testing::figure6_graph(), testing::buffer_split_example()}) {
    // Direct calls into the stage functions, exactly as pre-pipeline code did.
    const StreamingSchedule direct =
        schedule_streaming(g, partition_spatial_blocks(g, 8, variant));
    const BufferPlan direct_buffers = compute_buffer_plan(g, direct);

    const ScheduleResult piped = schedule_by_name(name, g, machine_with(8));
    ASSERT_TRUE(piped.is_streaming());
    EXPECT_EQ(piped.makespan, direct.makespan);
    EXPECT_EQ(piped.streaming->block_start, direct.block_start);
    EXPECT_EQ(piped.buffers->total_capacity, direct_buffers.total_capacity);
    for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
      EXPECT_EQ(piped.streaming->at(v).start, direct.at(v).start) << "node " << v;
      EXPECT_EQ(piped.streaming->at(v).last_out, direct.at(v).last_out) << "node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, PipelineEquivalence,
                         ::testing::Values(PartitionVariant::kLTS, PartitionVariant::kRLX),
                         [](const auto& info) {
                           return info.param == PartitionVariant::kLTS ? "lts" : "rlx";
                         });

TEST(PipelineEquivalence, WrapperMatchesRegistry) {
  const TaskGraph g = make_fft(8, 3);
  const StreamingSchedulerResult wrapper = schedule_streaming_graph(g, 16, PartitionVariant::kRLX);
  const ScheduleResult piped = schedule_by_name("streaming-rlx", g, machine_with(16));
  EXPECT_EQ(wrapper.schedule.makespan, piped.makespan);
  EXPECT_EQ(wrapper.buffers.total_capacity, piped.buffers->total_capacity);
}

// ------------------------------------------------------------------ passes

TEST(Pipeline, RecordsTimingsAndRunsValidationHooks) {
  const TaskGraph g = testing::figure9_graph1();
  ScheduleContext ctx;
  ctx.graph = &g;
  ctx.machine = machine_with(8);

  Pipeline pipeline;
  pipeline.emplace<PartitionPass>(PartitionStrategy::kRLX)
      .emplace<StreamingSchedulePass>()
      .emplace<BufferSizingPass>()
      .emplace<MetricsPass>();
  EXPECT_EQ(pipeline.pass_count(), 4u);
  pipeline.run(ctx);

  ASSERT_EQ(ctx.timings.size(), 4u);
  EXPECT_EQ(ctx.timings[0].pass, "partition");
  EXPECT_EQ(ctx.timings[1].pass, "streaming-schedule");
  ASSERT_TRUE(ctx.metrics.has_value());
  EXPECT_GT(ctx.metrics->speedup, 0.0);
  EXPECT_GT(ctx.makespan, 0);
}

TEST(Pipeline, MisassembledPipelineFailsLoudly) {
  const TaskGraph g = testing::figure8_graph();
  ScheduleContext ctx;
  ctx.graph = &g;
  ctx.machine = machine_with(8);
  Pipeline pipeline;
  pipeline.emplace<StreamingSchedulePass>();  // partition pass missing
  EXPECT_THROW(pipeline.run(ctx), std::logic_error);
}

TEST(Pipeline, StreamingWorkSchedulerRunsAlgorithm2) {
  const TaskGraph g = make_chain(8, 1);
  const ScheduleResult r = schedule_by_name("streaming-work", g, machine_with(4));
  ASSERT_TRUE(r.is_streaming());
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.streaming->timing.size(), g.node_count());
}

TEST(Pipeline, BaselineSchedulersProduceListSchedules) {
  const TaskGraph g = make_fft(8, 2);
  for (const char* name : {"list", "heft"}) {
    const ScheduleResult r = schedule_by_name(name, g, machine_with(16));
    ASSERT_TRUE(r.list.has_value()) << name;
    EXPECT_FALSE(r.is_streaming()) << name;
    EXPECT_GT(r.makespan, 0) << name;
    EXPECT_GT(r.metrics.speedup, 0.0) << name;
  }
}

TEST(Pipeline, CsdfSchedulerAnalyzesBufferFreeGraphs) {
  const TaskGraph g = testing::figure8_graph();
  const ScheduleResult r = schedule_by_name("csdf", g, machine_with(8));
  ASSERT_TRUE(r.csdf.has_value());
  EXPECT_GT(r.makespan, 0);
  EXPECT_FALSE(r.csdf->deadlocked);
}

TEST(Pipeline, SimulationPassValidatesSchedules) {
  const TaskGraph g = testing::figure9_graph1();
  ScheduleContext ctx;
  ctx.graph = &g;
  ctx.machine = machine_with(5);

  Pipeline pipeline;
  pipeline.emplace<PartitionPass>(PartitionStrategy::kRLX)
      .emplace<StreamingSchedulePass>()
      .emplace<BufferSizingPass>()
      .emplace<SimulationPass>();
  pipeline.run(ctx);

  ASSERT_TRUE(ctx.sim.has_value());
  EXPECT_FALSE(ctx.sim->deadlocked);
  EXPECT_EQ(ctx.sim->engine_used, SimEngine::kBulkAdvance);
  EXPECT_EQ(ctx.sim->makespan, ctx.streaming->makespan);
}

TEST(Pipeline, SimulationPassRejectsStarvedBuffers) {
  const TaskGraph g = testing::figure9_graph1();
  ScheduleContext ctx;
  ctx.graph = &g;
  ctx.machine = machine_with(5);

  Pipeline pipeline;
  pipeline.emplace<PartitionPass>(PartitionStrategy::kRLX)
      .emplace<StreamingSchedulePass>()
      .emplace<BufferSizingPass>();
  pipeline.run(ctx);
  for (ChannelPlan& c : ctx.buffers->channels) c.capacity = 1;  // starve the FIFOs

  Pipeline sim_only;
  sim_only.emplace<SimulationPass>();
  EXPECT_THROW(sim_only.run(ctx), std::runtime_error);
  ASSERT_TRUE(ctx.sim.has_value());
  EXPECT_TRUE(ctx.sim->deadlocked);
}

TEST(Pipeline, SimulationPassWithoutBuffersFailsLoudly) {
  const TaskGraph g = testing::figure8_graph();
  ScheduleContext ctx;
  ctx.graph = &g;
  ctx.machine = machine_with(8);
  Pipeline pipeline;
  pipeline.emplace<PartitionPass>(PartitionStrategy::kRLX)
      .emplace<StreamingSchedulePass>()
      .emplace<SimulationPass>();  // buffer-sizing pass missing
  EXPECT_THROW(pipeline.run(ctx), std::logic_error);
}

TEST(Pipeline, PlacementPassRunsWhenRequested) {
  const TaskGraph g = make_fft(8, 1);
  MachineConfig machine = machine_with(16);
  machine.place_on_mesh = true;
  const ScheduleResult r = schedule_by_name("streaming-rlx", g, machine);
  ASSERT_TRUE(r.placement.has_value());
  EXPECT_EQ(r.placement->mesh_pe.size(), g.node_count());
}

TEST(Pipeline, RequestsRunOnTheCallingThread) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::is_directory(tasks)) GTEST_SKIP() << "no /proc/self/task";
  const auto thread_count = [&] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const TaskGraph g = make_gaussian_elimination(8, 3);
  const auto before = thread_count();
  const ScheduleResult r = schedule_by_name("streaming-rlx", g, machine_with(8));
  EXPECT_LE(thread_count(), before) << "schedule_by_name started a thread";
  SimOptions options;
  options.engine = SimEngine::kBulkAdvance;
  const SimResult sim = simulate_streaming(g, *r.streaming, *r.buffers, options);
  EXPECT_FALSE(sim.deadlocked);
  EXPECT_LE(thread_count(), before) << "simulate_streaming started a thread";
}

// ------------------------------------------------------------------- cache

TEST(ScheduleCache, HitReturnsIdenticalResult) {
  ScheduleCache cache;
  const TaskGraph g = make_cholesky(5, 1);
  const MachineConfig machine = machine_with(8);

  const auto first = cache.get_or_schedule(g, "streaming-rlx", machine);
  const auto second = cache.get_or_schedule(g, "streaming-rlx", machine);
  EXPECT_EQ(first.get(), second.get()) << "hit must return the cached object";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  const ScheduleResult direct = schedule_by_name("streaming-rlx", g, machine);
  EXPECT_EQ(first->makespan, direct.makespan);
  EXPECT_EQ(first->buffers->total_capacity, direct.buffers->total_capacity);
}

TEST(ScheduleCache, DistinctSchedulerOrConfigMisses) {
  ScheduleCache cache;
  const TaskGraph g = make_fft(8, 1);
  (void)cache.get_or_schedule(g, "streaming-rlx", machine_with(8));
  (void)cache.get_or_schedule(g, "streaming-lts", machine_with(8));
  (void)cache.get_or_schedule(g, "streaming-rlx", machine_with(16));
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ScheduleCache, MutatedGraphRecomputes) {
  ScheduleCache cache;
  TaskGraph g = testing::figure8_graph();
  (void)cache.get_or_schedule(g, "streaming-rlx", machine_with(8));

  // Same topology, one volume changed: must be a miss, not a stale hit.
  TaskGraph mutated;
  const NodeId n0 = mutated.add_source(16, "t0");
  const NodeId n1 = mutated.add_compute("t1");
  const NodeId n2 = mutated.add_compute("t2");
  const NodeId n3 = mutated.add_compute("t3");
  const NodeId n4 = mutated.add_compute("t4");
  mutated.add_edge(n0, n1, 16);
  mutated.add_edge(n1, n2, 4);
  mutated.add_edge(n0, n3, 16);
  mutated.add_edge(n3, n4, 32);
  mutated.declare_output(n2, 4);
  mutated.declare_output(n4, 16);  // figure8 declares 8 here
  ASSERT_TRUE(mutated.validate().empty());

  (void)cache.get_or_schedule(mutated, "streaming-rlx", machine_with(8));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ScheduleCache, RenamedNodesStillHit) {
  // Names never influence schedules, so the canonical fingerprint ignores
  // them and a renamed copy of the same graph hits the cache.
  ScheduleCache cache;
  (void)cache.get_or_schedule(testing::figure8_graph(), "streaming-rlx", machine_with(8));

  TaskGraph renamed;
  const NodeId n0 = renamed.add_source(16, "renamed0");
  const NodeId n1 = renamed.add_compute("renamed1");
  const NodeId n2 = renamed.add_compute("renamed2");
  const NodeId n3 = renamed.add_compute("renamed3");
  const NodeId n4 = renamed.add_compute("renamed4");
  renamed.add_edge(n0, n1, 16);
  renamed.add_edge(n1, n2, 4);
  renamed.add_edge(n0, n3, 16);
  renamed.add_edge(n3, n4, 32);
  renamed.declare_output(n2, 4);
  renamed.declare_output(n4, 8);

  (void)cache.get_or_schedule(renamed, "streaming-rlx", machine_with(8));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ScheduleCache, ClearResetsEntriesAndStats) {
  ScheduleCache cache;
  (void)cache.get_or_schedule(testing::figure8_graph(), "streaming-rlx", machine_with(8));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ScheduleCacheKey, FingerprintDiffersForDifferentGraphs) {
  const std::string a = canonical_cache_key(testing::figure8_graph(), "streaming-rlx",
                                            machine_with(8));
  const std::string b = canonical_cache_key(testing::figure9_graph1(), "streaming-rlx",
                                            machine_with(8));
  EXPECT_NE(a, b);
  EXPECT_NE(fnv1a64(a), fnv1a64(b));
}

}  // namespace
}  // namespace sts
