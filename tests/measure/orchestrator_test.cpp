// SweepOrchestrator coverage with /bin/sh stand-in workers: real
// engine-running workers are exercised end to end by the smoke.amsweep
// ctest entry; here the workers are tiny scripts that answer the plan
// probe and speak the lease protocol, so the supervision logic (retry on
// kill, retry-budget exhaustion + manifest, usage fail-fast, stall
// kills, merge) is testable in milliseconds. A pre-built store file
// plays the part of what a worker persists before acknowledging.
#include "measure/orchestrator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace am::measure {
namespace {

namespace fs = std::filesystem;

ScenarioKey key(const std::string& workload, std::uint32_t threads) {
  return ScenarioKey::make("machine-fp", workload, Resource::kCacheStorage,
                           threads, "cs:b4096:n4:w1000", 7, 1'000'000);
}

SimRunResult result(double seconds) {
  SimRunResult r;
  r.seconds = seconds;
  r.cycles = 1000;
  return r;
}

/// A /bin/sh stand-in for a figure driver. The appended flags arrive as
/// $1=--results-dir $2=<dir>, then $3=--emit-plan $4=<file> for the
/// probe, which answers with a `points`-point plan, or $3=--worker
/// $4=--lease $5=<file> for a worker, which runs `worker_body`.
std::string stub(std::size_t points, const std::string& worker_body) {
  return "case \"$3\" in\n"
         "  --emit-plan)\n"
         "    printf '#am-plan-info v1\\npoints\\t" +
         std::to_string(points) +
         "\\n' > \"$4.tmp\" && mv \"$4.tmp\" \"$4\"\n"
         "    exit 0 ;;\n"
         "  --worker)\n" +
         worker_body +
         " ;;\n"
         "esac\n"
         "exit 0\n";
}

/// A worker's lease loop: per fresh offer ($np = its point count), run
/// `on_offer`, persist $2/worker-store.tsv as the lease's store (real
/// workers save before acknowledging) unless `persist` is false, then
/// acknowledge with 2 engine runs; exit 0 on the done offer.
std::string lease_loop(const std::string& on_offer = "",
                       bool persist = true) {
  return R"sh(
    lease=$5; last=
    while :; do
      if [ -f "$lease" ]; then
        id=$(awk '$1=="lease"{print $2}' "$lease")
        dn=$(awk '$1=="done"{print $2}' "$lease")
        if [ -n "$id" ] && [ "$id" != "$last" ]; then
          if [ "$dn" = "1" ]; then exit 0; fi
          np=$(awk '$1=="points"{print NF-1}' "$lease")
          )sh" +
         on_offer + "\n" +
         (persist ? R"sh(cp "$2/worker-store.tsv" "$lease.tsv")sh" : "") +
         R"sh(
          printf '#am-lease-ack v1\nlease\t%s\npoints\t%s\nexecuted\t2\nwall\t0.25\n' \
            "$id" "$np" > "$lease.ack.tmp" && mv "$lease.ack.tmp" "$lease.ack"
          last=$id
        fi
      fi
      sleep 0.01
    done)sh";
}

/// on_offer snippets: die as if SIGKILLed, or with the retryable exit
/// code, on the first offer after the marker file appears; die on every
/// offer holding plan point 1.
constexpr const char* kKillOnMarker =
    R"(if rm "$2/crash.marker" 2>/dev/null; then kill -9 $$; fi)";
constexpr const char* kFailOnMarker =
    R"(if rm "$2/poison.marker" 2>/dev/null; then exit 3; fi)";
constexpr const char* kFailOnPoint1 =
    R"(if awk '$1=="points"{for(i=2;i<=NF;i++) if ($i=="1") f=1})"
    R"( END{exit !f}' "$lease"; then exit 3; fi)";

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("am_orchestrator_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // What every stub worker persists: the records a real worker would
    // have written for the plan.
    ResultStore store;
    store.put(key("workload-0", 1), result(0.1), "host-fp");
    store.put(key("workload-1", 1), result(1.1), "host-fp");
    store.save(dir() + "/worker-store.tsv");
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  OrchestratorOptions opts(const std::string& script, std::size_t retries) {
    OrchestratorOptions o;
    o.worker_command = {"/bin/sh", "-c", script, "worker"};
    o.results_dir = dir();
    o.driver = "drv";
    o.workers = 2;
    o.retries = retries;
    o.poll_seconds = 0.005;
    return o;
  }

  std::string manifest() const {
    std::ifstream in(SweepOrchestrator::manifest_path(dir(), "drv"));
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(OrchestratorTest, RejectsUnusableConfigurations) {
  OrchestratorOptions o = opts("exit 0", 0);
  o.worker_command.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 0);
  o.results_dir.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 0);
  o.driver.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 0);
  o.workers = 0;
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
}

TEST_F(OrchestratorTest, MergesWorkerStoresIntoCanonicalFile) {
  SweepOrchestrator orch(opts(stub(2, lease_loop()), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_TRUE(report.missing_points.empty());
  EXPECT_EQ(report.merged_records, 2u);
  ASSERT_EQ(report.attempts.size(), 2u);  // both slots drained with exit 0

  const auto merged = ResultStore::load(report.merged_path);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_TRUE(merged.has(key("workload-0", 1)));
  EXPECT_TRUE(merged.has(key("workload-1", 1)));
  EXPECT_NE(manifest().find("status\tok"), std::string::npos);
}

TEST_F(OrchestratorTest, MergePreservesExistingCanonicalRecords) {
  // The canonical store may hold records from earlier runs (other scales,
  // other grids) — documented to sit idle in the file. Completing a sweep
  // must extend that cache, never replace it with only this grid's points.
  ResultStore prior;
  prior.put(key("earlier-grid", 3), result(0.5), "host-fp");
  prior.save(store_path(dir(), "drv"));
  SweepOrchestrator orch(opts(stub(2, lease_loop()), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.merged_records, 3u);
  const auto merged = ResultStore::load(report.merged_path);
  EXPECT_TRUE(merged.has(key("earlier-grid", 3)));
  EXPECT_TRUE(merged.has(key("workload-0", 1)));
  EXPECT_TRUE(merged.has(key("workload-1", 1)));
}

TEST_F(OrchestratorTest, WorkerKilledMidLeaseIsRetried) {
  // The first worker claims the marker and dies as if SIGKILLed holding
  // its lease; the respawned worker finds no marker and drains the
  // queue, the dead lease's point included.
  { std::ofstream(dir_ / "crash.marker") << ""; }
  auto o = opts(stub(2, lease_loop(kKillOnMarker)), 1);
  o.workers = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_EQ(report.attempts[0].status.signal, 9);
  EXPECT_TRUE(report.attempts[1].status.success());
  EXPECT_EQ(report.attempts[1].attempt, 1u);
  EXPECT_NE(manifest().find("signal 9"), std::string::npos);
}

TEST_F(OrchestratorTest, ExhaustedRetryBudgetFailsAndNamesThePoint) {
  // Point 0 runs fine; every worker offered point 1 dies with the
  // retryable exit code, until point 1's budget runs out.
  auto o = opts(stub(2, lease_loop(kFailOnPoint1)), 1);
  o.workers = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.missing_points.size(), 1u);
  EXPECT_EQ(report.missing_points[0], 1u);
  // 1 + retries attempts, each dying on point 1.
  EXPECT_EQ(report.attempts.size(), 2u);
  EXPECT_NE(report.error.find("retry budget"), std::string::npos)
      << report.error;
  const auto m = manifest();
  EXPECT_NE(m.find("status\tfailed"), std::string::npos);
  EXPECT_NE(m.find("missing_point\t1"), std::string::npos);
  // No merged store may appear for an incomplete sweep.
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

TEST_F(OrchestratorTest, UsageExitFailsFastWithoutRetry) {
  SweepOrchestrator orch(opts(stub(4, "exit 2"), 5));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("rejected"), std::string::npos) << report.error;
  // Fail-fast: nowhere near (1 + retries) attempts per point.
  EXPECT_LE(report.attempts.size(), 2u);
  EXPECT_EQ(report.missing_points.size(), 4u);
}

TEST_F(OrchestratorTest, AcknowledgedLeaseWithoutStoreFailsTheSweep) {
  // Workers must persist their results before the ack; an acknowledged
  // lease with no store behind it is a hole the merge must not paper
  // over with an empty store.
  SweepOrchestrator orch(
      opts(stub(2, lease_loop("", /*persist=*/false)), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  EXPECT_NE(report.error.find("merge failed"), std::string::npos)
      << report.error;
  EXPECT_NE(manifest().find("status\tfailed"), std::string::npos);
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

TEST_F(OrchestratorTest, StaleHeartbeatGetsWorkerKilled) {
  // The worker fakes a heartbeat that then never advances; the
  // orchestrator must kill it long before the 30 s sleep finishes.
  auto o = opts(stub(1, R"(printf '1\t1\n' > "$5.hb"; sleep 30)"), 0);
  o.stall_timeout_seconds = 0.2;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].stalled);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_LT(report.attempts[0].wall_seconds, 10.0);
  EXPECT_NE(manifest().find("[stalled]"), std::string::npos);
}

TEST_F(OrchestratorTest, SequenceStuckHeartbeatIsAStallEvenWithFreshMtimes) {
  // NTP-immunity regression: this worker rewrites its heartbeat file
  // forever — fresh mtime every 50 ms — but the beat sequence number
  // never advances. Mtime-based staleness would call it alive
  // indefinitely; sequence-progress supervision must kill it.
  auto o = opts(
      stub(1, R"(while :; do printf '1\t1\n' > "$5.hb"; sleep 0.05; done)"),
      0);
  o.stall_timeout_seconds = 0.3;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].stalled);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_LT(report.attempts[0].wall_seconds, 10.0);
  EXPECT_NE(log.str().find("heartbeat stuck at beat 1"), std::string::npos);
}

TEST_F(OrchestratorTest, WorkerWedgedBeforeFirstBeatIsKilled) {
  // This worker never writes a heartbeat at all (wedged during startup,
  // before the writer thread exists). Real --worker drivers beat
  // immediately, so time since spawn must trip the same timeout, or the
  // sweep would hang on the 30 s sleep.
  auto o = opts(stub(1, "sleep 30"), 0);
  o.stall_timeout_seconds = 0.2;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].stalled);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_LT(report.attempts[0].wall_seconds, 10.0);
  EXPECT_NE(log.str().find("no heartbeat"), std::string::npos);
}

TEST_F(OrchestratorTest, DrainsTheQueueAndRecordsLoadStats) {
  SweepOrchestrator orch(opts(stub(3, lease_loop()), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.plan_points, 3u);
  // 3 points → 3 singleton batches, every one acknowledged, each ack
  // reporting 2 engine runs.
  EXPECT_EQ(report.leases.size(), 3u);
  for (const auto& lease : report.leases) {
    EXPECT_TRUE(lease.completed);
    EXPECT_EQ(lease.executed, 2u);
  }
  EXPECT_EQ(report.engine_runs, 6u);
  EXPECT_TRUE(report.missing_points.empty());
  ASSERT_EQ(report.worker_stats.size(), 2u);
  std::size_t batches = 0;
  for (const auto& ws : report.worker_stats) batches += ws.batches;
  EXPECT_EQ(batches, 3u);
  const auto m = manifest();
  EXPECT_NE(m.find("schedule\tlease"), std::string::npos);
  EXPECT_NE(m.find("plan_points\t3"), std::string::npos);
  EXPECT_NE(m.find("worker\t0\t"), std::string::npos);
  EXPECT_NE(m.find("worker\t1\t"), std::string::npos);
}

TEST_F(OrchestratorTest, RequiresASuccessfulProbe) {
  SweepOrchestrator orch(
      opts("case \"$3\" in --emit-plan) exit 3;; esac; exit 0", 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("probe"), std::string::npos) << report.error;
  EXPECT_TRUE(report.attempts.empty());  // no workers ever spawned
}

TEST_F(OrchestratorTest, ExhaustsPerPointBudgetAndNamesPoints) {
  // Workers that die holding a lease charge each leased point one
  // failure; once a point's budget is gone the sweep fails, and every
  // point never acknowledged is named missing.
  auto o = opts(stub(2, "exit 3"), 1);
  o.workers = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  EXPECT_EQ(report.missing_points.size(), 2u);
  const auto m = manifest();
  EXPECT_NE(m.find("missing_point\t0"), std::string::npos);
  EXPECT_NE(m.find("missing_point\t1"), std::string::npos);
  // No merged store may appear for an incomplete sweep.
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

TEST_F(OrchestratorTest, DeadWorkersBatchIsSplitOnRequeue) {
  // One batch holds the whole 4-point plan; the first worker dies with
  // it. The requeue must split the survivors in half — two 2-point
  // batches under fresh lease ids — instead of re-offering all 4 as one
  // block, so repeated crashes bisect toward a poison point.
  { std::ofstream(dir_ / "poison.marker") << "x"; }
  auto o = opts(stub(4, lease_loop(kFailOnMarker)), /*retries=*/2);
  o.lease_batches = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  ASSERT_EQ(report.leases.size(), 3u);
  EXPECT_FALSE(report.leases[0].completed);
  EXPECT_EQ(report.leases[0].points, 4u);
  EXPECT_EQ(report.leases[1].points, 2u);
  EXPECT_EQ(report.leases[2].points, 2u);
  EXPECT_TRUE(report.leases[1].completed);
  EXPECT_TRUE(report.leases[2].completed);
  // Fresh ids, never a reuse of the dead lease's id.
  EXPECT_NE(report.leases[1].id, report.leases[0].id);
  EXPECT_NE(report.leases[2].id, report.leases[0].id);
  EXPECT_TRUE(report.missing_points.empty());
  EXPECT_NE(log.str().find("split into 2 + 2"), std::string::npos)
      << log.str();
}

}  // namespace
}  // namespace am::measure
