#include "src/indexserve/index_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "src/cluster/index_node.h"
#include "src/sim/simulator.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

QueryWork MakeQuery(uint64_t id, int fanout = 5, double size = 1.0, uint64_t seed = 99) {
  QueryWork work;
  work.id = id;
  work.fanout = fanout;
  work.size_factor = size;
  work.seed = seed;
  return work;
}

TEST(IndexServerTest, SingleQueryCompletes) {
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  QueryResult result;
  bool done = false;
  rig.server().SubmitQuery(MakeQuery(1), [&](const QueryResult& r) {
    result = r;
    done = true;
  });
  sim.RunUntil(kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.dropped);
  EXPECT_GT(result.latency_ms, 0.5);
  EXPECT_LT(result.latency_ms, 50);
  EXPECT_EQ(rig.server().stats().completed, 1);
  EXPECT_EQ(rig.server().stats().latency_ms.Count(), 1u);
}

TEST(IndexServerTest, FanoutCreatesReadyBurst) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.hedging_enabled = false;
  IndexNodeRig rig(&sim, options, "m0");
  rig.server().SubmitQuery(MakeQuery(1, /*fanout=*/15));
  sim.RunUntil(kSecond);
  // The fan-out spawns all chunk workers within the same instant — at least
  // `fanout` threads ready within 5 us (the paper's measurement, §1).
  EXPECT_GE(rig.machine().metrics().max_ready_burst_5us, 15);
}

TEST(IndexServerTest, QueryExceedingTimeoutIsDropped) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.timeout = FromMicros(100);  // absurdly tight
  IndexNodeRig rig(&sim, options, "m0");
  QueryResult result;
  rig.server().SubmitQuery(MakeQuery(1), [&](const QueryResult& r) { result = r; });
  sim.RunUntil(kSecond);
  EXPECT_TRUE(result.dropped);
  EXPECT_EQ(rig.server().stats().dropped_timeout, 1);
  EXPECT_EQ(rig.server().stats().latency_ms.Count(), 0u);  // excluded from stats
}

TEST(IndexServerTest, AdmissionControlRejectsWhenSaturated) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.max_inflight = 1;
  IndexNodeRig rig(&sim, options, "m0");
  int drops = 0;
  for (int i = 0; i < 3; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i)),
                             [&](const QueryResult& r) { drops += r.dropped ? 1 : 0; });
  }
  sim.RunUntil(kSecond);
  EXPECT_EQ(rig.server().stats().dropped_admission, 2);
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(rig.server().stats().completed, 1);
}

// Every drop reports the whole fan-out as chunks_total and the chunks that
// answered as chunks_served, so a query shed before its fan-out reads zero
// coverage rather than full coverage.
TEST(IndexServerTest, DropsReportTheChunksThatAnswered) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.max_inflight = 1;
  options.indexserve.timeout = FromMicros(100);  // expires at parse, before fan-out
  IndexNodeRig rig(&sim, options, "m0");
  std::map<uint64_t, QueryResult> results;
  for (uint64_t id = 1; id <= 2; ++id) {
    rig.server().SubmitQuery(MakeQuery(id, /*fanout=*/5),
                             [&](const QueryResult& r) { results[r.id] = r; });
  }
  sim.RunUntil(kSecond);
  ASSERT_EQ(rig.server().stats().dropped_timeout, 1);
  ASSERT_EQ(rig.server().stats().dropped_admission, 1);
  for (uint64_t id = 1; id <= 2; ++id) {
    const QueryResult& r = results[id];
    EXPECT_TRUE(r.dropped) << "query " << id;
    EXPECT_EQ(r.chunks_total, 5) << "query " << id;
    EXPECT_EQ(r.chunks_served, 0) << "query " << id;
    EXPECT_EQ(r.Coverage(), 0.0) << "query " << id;
  }
}

TEST(IndexServerTest, HedgingFiresForSlowChunks) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.chunk_cpu_median_us = 5000;  // slow lookups
  options.indexserve.hedge_delay = FromMillis(1);
  IndexNodeRig rig(&sim, options, "m0");
  for (int i = 0; i < 20; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i), 5, 1.0, 1000 + i));
  }
  sim.RunUntil(kSecond);
  EXPECT_GT(rig.server().stats().hedges_issued, 0);
  EXPECT_EQ(rig.server().stats().completed, 20);
}

TEST(IndexServerTest, HedgingDisabledIssuesNone) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.chunk_cpu_median_us = 5000;
  options.indexserve.hedge_delay = FromMillis(1);
  options.indexserve.hedging_enabled = false;
  IndexNodeRig rig(&sim, options, "m0");
  for (int i = 0; i < 20; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i), 5, 1.0, 1000 + i));
  }
  sim.RunUntil(kSecond);
  EXPECT_EQ(rig.server().stats().hedges_issued, 0);
}

TEST(IndexServerTest, DeterministicAcrossRuns) {
  // The same trace must produce bit-identical results (replay semantics);
  // a different trace seed must not.
  auto run = [](uint64_t trace_seed) {
    Simulator sim;
    IndexNodeOptions options;
    IndexNodeRig rig(&sim, options, "m0");
    Rng trace_rng(trace_seed);
    auto trace = GenerateTrace(TraceSpec{}, 200, &trace_rng);
    OpenLoopClient client(&sim, trace, 2000, Rng(5),
                          [&](const QueryWork& q, SimTime) { rig.server().SubmitQuery(q); });
    client.Run(0, kSecond);
    sim.RunUntil(2 * kSecond);
    return rig.server().stats().latency_ms.Mean();
  };
  EXPECT_DOUBLE_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(IndexServerTest, LogBackpressureStallsCompletions) {
  Simulator sim;
  IndexNodeOptions options;
  options.hdd_drives = 1;
  options.indexserve.log_bytes_per_query = 64 * 1024;
  options.indexserve.log_flush_bytes = 64 * 1024;
  options.indexserve.log_buffer_cap_bytes = 128 * 1024;
  IndexNodeRig rig(&sim, options, "m0");
  // Saturate the lone HDD with bully traffic at equal priority.
  rig.hdd_scheduler().RegisterOwner(kIoOwnerDiskBully, "bully", /*priority=*/0, /*weight=*/50);
  DiskBully::Options bully_options;
  bully_options.queue_depth = 16;
  bully_options.block_bytes = 1024 * 1024;
  DiskBully bully(&sim, &rig.machine(), &rig.hdd_scheduler(), rig.secondary_job(),
                  bully_options, Rng(3));
  bully.Start();
  for (int i = 0; i < 200; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i), 5, 1.0, 5000 + i));
  }
  sim.RunUntil(5 * kSecond);
  EXPECT_GT(rig.server().stats().log_stalls, 0);
}

// --- Calibration against the paper's standalone baseline (§6.1.1) -----------
//
// Targets: median ~4 ms and P99 ~12 ms at both 2,000 and 4,000 QPS; CPU idle
// ~80% at 2,000 QPS and ~60% at 4,000 QPS.
struct CalibrationResult {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double idle = 0;
  double primary_util = 0;
  int64_t dropped = 0;
};

CalibrationResult RunStandalone(double qps, SimDuration measure = 6 * kSecond) {
  Simulator sim;
  IndexNodeOptions options;
  options.seed = 77;
  IndexNodeRig rig(&sim, options, "m0");
  Rng trace_rng(2017);
  auto trace = GenerateTrace(TraceSpec{}, 20000, &trace_rng);
  OpenLoopClient client(&sim, trace, qps, Rng(7),
                        [&](const QueryWork& q, SimTime) { rig.server().SubmitQuery(q); });
  const SimDuration warmup = kSecond;
  client.Run(0, warmup + measure);
  sim.RunUntil(warmup);
  rig.server().ResetStats();
  const auto snap = rig.SnapshotUtilization();
  sim.RunUntil(warmup + measure);
  CalibrationResult result;
  result.p50 = rig.server().stats().latency_ms.P50();
  result.p95 = rig.server().stats().latency_ms.P95();
  result.p99 = rig.server().stats().latency_ms.P99();
  result.idle = rig.IdleFractionSince(snap);
  result.primary_util = rig.UtilizationSince(snap, TenantClass::kPrimary);
  result.dropped = rig.server().stats().TotalDropped();
  return result;
}

// Lifetime regression: every query must reach a terminal state and free its
// slot in the server's query table, so the occupied-slot count returns to
// zero once the simulator drains. A query stranded without a pending callback
// would hold its slot forever.
TEST(IndexServerTest, AllQueryStateDestroyedAfterDrain) {
  Simulator sim;
  IndexNodeOptions options;  // defaults: snippet reads on, hedging on, HDD log on
  IndexNodeRig rig(&sim, options, "m0");
  ASSERT_GT(rig.server().config().snippet_reads, 0);
  for (int i = 0; i < 200; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i)));
  }
  EXPECT_GT(rig.server().live_query_states(), 0);
  sim.RunUntilEmpty();
  EXPECT_EQ(rig.server().stats().completed + rig.server().stats().TotalDropped(), 200);
  EXPECT_EQ(rig.server().inflight(), 0);
  EXPECT_EQ(rig.server().live_query_states(), 0);
}

// Same invariant on the expiry path: queries abandoned mid-pipeline (including
// with snippet reads already in flight) must also release their slots.
TEST(IndexServerTest, ExpiredQueryStateDestroyedAfterDrain) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.timeout = FromMillis(2);  // expires mid-pipeline
  IndexNodeRig rig(&sim, options, "m0");
  for (int i = 0; i < 200; ++i) {
    rig.server().SubmitQuery(MakeQuery(static_cast<uint64_t>(i)));
  }
  sim.RunUntilEmpty();
  EXPECT_GT(rig.server().stats().dropped_timeout, 0);
  EXPECT_EQ(rig.server().live_query_states(), 0);
}

bool Conserved(const IndexServer& server) {
  const IndexServer::Stats& s = server.stats();
  return s.submitted + server.inflight_at_reset() ==
         s.completed + s.TotalDropped() + server.inflight();
}

// Crash() fails live queries in submission order. Three fast queries finish
// first and free slots in the middle of the table; the queries submitted
// next reuse those slots (most recently freed first), so slot order and
// submission order disagree when the crash arrives.
TEST(IndexServerTest, CrashFailsLiveQueriesInSubmissionOrder) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.hedging_enabled = false;
  IndexNodeRig rig(&sim, options, "m0");
  std::vector<uint64_t> order;
  auto record = [&](const QueryResult& r) { order.push_back(r.id); };
  const auto is_fast = [](uint64_t id) { return id == 2 || id == 5 || id == 7; };
  for (uint64_t id = 0; id < 10; ++id) {
    // Size 50 spends 35 ms in parse alone; size 0.05 finishes in a few ms.
    rig.server().SubmitQuery(MakeQuery(id, 5, is_fast(id) ? 0.05 : 50.0, 100 + id), record);
  }
  sim.RunUntil(FromMillis(20));
  std::sort(order.begin(), order.end());
  ASSERT_EQ(order, (std::vector<uint64_t>{2, 5, 7}));
  for (uint64_t id = 10; id < 13; ++id) {
    rig.server().SubmitQuery(MakeQuery(id, 5, 50.0, 100 + id), record);
  }
  EXPECT_EQ(rig.server().live_query_states(), 10);
  order.clear();
  rig.server().Crash();
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 3, 4, 6, 8, 9, 10, 11, 12}));
  EXPECT_EQ(rig.server().stats().dropped_crash, 10);
  EXPECT_EQ(rig.server().live_query_states(), 0);
  EXPECT_TRUE(Conserved(rig.server()));
}

// A crash that leaves the disks alone (IndexNodeRig::Crash would cancel their
// I/O): the dead queries' chunk threads, SSD reads and snippet reads, and the
// HDD log flushes, all complete after the restart, while new queries occupy
// the dead queries' slots. None of them may touch a new query: each new query
// is answered once, under its own id, with its full fan-out, and no sooner
// than its own parse stage allows.
TEST(IndexServerTest, LateCompletionsOfCrashedQueriesSkipReusedSlots) {
  Simulator sim;
  IndexNodeOptions options;
  options.indexserve.hedge_delay = FromMillis(1);
  options.indexserve.log_flush_bytes = 4 * 1024;
  options.indexserve.log_buffer_cap_bytes = 8 * 1024;
  IndexNodeRig rig(&sim, options, "m0");
  std::map<uint64_t, int> answers;
  std::map<uint64_t, QueryResult> results;
  auto record = [&](const QueryResult& r) {
    ++answers[r.id];
    results[r.id] = r;
  };
  // Old queries arrive every 250 us, so the crash catches them spread across
  // the pipeline: parsing, fanned out, reading snippets, stalled on the log.
  for (uint64_t id = 0; id < 40; ++id) {
    sim.Schedule(FromMicros(250) * static_cast<SimDuration>(id), [&, id] {
      rig.server().SubmitQuery(MakeQuery(id, /*fanout=*/8, 1.0, 300 + id), record);
    });
  }
  sim.RunUntil(FromMillis(12));
  const int64_t crashed = rig.server().inflight();
  ASSERT_GT(crashed, 0);
  rig.server().Crash();
  rig.server().Restart();
  // Size 10: parse + understand alone take 7 ms of CPU.
  constexpr double kNewSize = 10.0;
  for (uint64_t id = 1000; id < 1040; ++id) {
    rig.server().SubmitQuery(MakeQuery(id, /*fanout=*/4, kNewSize, 300 + id), record);
  }
  sim.RunUntilEmpty();

  const IndexServeConfig& config = rig.server().config();
  const double min_new_latency_ms =
      (config.parse_cpu_us + config.understand_cpu_us) * kNewSize / 1000.0;
  for (uint64_t id = 1000; id < 1040; ++id) {
    ASSERT_EQ(answers[id], 1) << "query " << id;
    const QueryResult& r = results[id];
    EXPECT_EQ(r.id, id);
    EXPECT_FALSE(r.dropped) << "query " << id;
    EXPECT_EQ(r.chunks_total, 4);
    EXPECT_EQ(r.chunks_served, 4);
    EXPECT_GE(r.latency_ms, min_new_latency_ms) << "query " << id;
  }
  for (uint64_t id = 0; id < 40; ++id) {
    EXPECT_EQ(answers[id], 1) << "query " << id;
  }
  const IndexServer::Stats& stats = rig.server().stats();
  EXPECT_EQ(stats.dropped_crash, crashed);
  EXPECT_GT(stats.log_stalls, 0);
  EXPECT_EQ(stats.completions_while_crashed, 0);
  EXPECT_EQ(rig.server().inflight(), 0);
  EXPECT_TRUE(Conserved(rig.server()));
  EXPECT_EQ(rig.server().live_query_states(), 0);
}

// Closed-loop clients resubmit from `done`. Here every answer submits two
// more queries, so the query table grows while the server is still inside
// the terminal transition that invoked the callback. Run under
// -DPERFISO_SANITIZE=ON this catches any reference into the table held
// across the callback.
TEST(IndexServerTest, ResubmittingFromDoneGrowsTableMidCallback) {
  Simulator sim;
  IndexNodeOptions options;
  IndexNodeRig rig(&sim, options, "m0");
  IndexServer& server = rig.server();
  constexpr uint64_t kTotal = 63;  // a full binary tree of depth 6
  uint64_t next_id = 1;
  int64_t peak_slots = 0;
  std::vector<uint64_t> answered;
  std::function<void(const QueryResult&)> on_done = [&](const QueryResult& r) {
    answered.push_back(r.id);
    for (int child = 0; child < 2 && next_id < kTotal; ++child) {
      server.SubmitQuery(MakeQuery(next_id, 5, 1.0, 700 + next_id), on_done);
      ++next_id;
    }
    peak_slots = std::max(peak_slots, server.live_query_states());
  };
  server.SubmitQuery(MakeQuery(0, 5, 1.0, 700), on_done);
  sim.RunUntilEmpty();
  ASSERT_EQ(answered.size(), kTotal);
  std::sort(answered.begin(), answered.end());
  for (uint64_t id = 0; id < kTotal; ++id) {
    EXPECT_EQ(answered[id], id);
  }
  EXPECT_GE(peak_slots, 4);
  EXPECT_EQ(server.stats().completed, static_cast<int64_t>(kTotal));
  EXPECT_TRUE(Conserved(server));
  EXPECT_EQ(server.live_query_states(), 0);
}

TEST(IndexServeCalibration, StandaloneAt2000Qps) {
  const CalibrationResult r = RunStandalone(2000);
  ::testing::Test::RecordProperty("p50", r.p50);
  std::printf("[calibration 2000qps] p50=%.2fms p95=%.2fms p99=%.2fms idle=%.1f%% "
              "primary=%.1f%% dropped=%lld\n",
              r.p50, r.p95, r.p99, r.idle * 100, r.primary_util * 100,
              static_cast<long long>(r.dropped));
  EXPECT_GE(r.p50, 3.0);
  EXPECT_LE(r.p50, 5.0);
  EXPECT_GE(r.p99, 9.0);
  EXPECT_LE(r.p99, 15.0);
  EXPECT_GE(r.idle, 0.74);
  EXPECT_LE(r.idle, 0.86);
  EXPECT_EQ(r.dropped, 0);
}

TEST(IndexServeCalibration, StandaloneAt4000Qps) {
  const CalibrationResult r = RunStandalone(4000);
  std::printf("[calibration 4000qps] p50=%.2fms p95=%.2fms p99=%.2fms idle=%.1f%% "
              "primary=%.1f%% dropped=%lld\n",
              r.p50, r.p95, r.p99, r.idle * 100, r.primary_util * 100,
              static_cast<long long>(r.dropped));
  EXPECT_GE(r.p50, 3.0);
  EXPECT_LE(r.p50, 5.5);
  EXPECT_GE(r.p99, 9.0);
  EXPECT_LE(r.p99, 16.0);
  EXPECT_GE(r.idle, 0.52);
  EXPECT_LE(r.idle, 0.70);
  EXPECT_EQ(r.dropped, 0);
}

}  // namespace
}  // namespace perfiso
