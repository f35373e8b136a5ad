#include "measure/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "apps/stream_probe.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "common/stats.hpp"
#include "model/ehr_model.hpp"
#include "sim/engine.hpp"

namespace am::measure {
namespace {

using sim::MachineConfig;

constexpr std::uint32_t kScale = 32;

MachineConfig machine() { return MachineConfig::xeon20mb_scaled(kScale); }

interfere::CSThrConfig cs_cfg() {
  interfere::CSThrConfig c;
  c.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  return c;
}

interfere::BWThrConfig bw_cfg() {
  interfere::BWThrConfig c;
  c.buffer_bytes = 520ull * 1024 / kScale;
  return c;
}

CalibrationOptions quick_opts(std::uint32_t max_threads) {
  CalibrationOptions o;
  o.max_threads = max_threads;
  o.buffer_to_l3_ratios = {2.5};
  o.probe_distributions = {9};  // Uni only: fastest, tightest inversion
  o.accesses_per_probe = 150'000;
  return o;
}

TEST(CapacityCalibration, NoInterferenceRecoversFullL3) {
  const auto calib = calibrate_capacity(machine(), cs_cfg(), quick_opts(0));
  ASSERT_EQ(calib.available_bytes.size(), 1u);
  // Paper Fig. 6 "No Interference": estimate approaches the true 20 MB
  // (scaled); allow the fully-associative model's small bias.
  EXPECT_NEAR(calib.available_bytes[0],
              static_cast<double>(machine().l3.size_bytes),
              0.25 * machine().l3.size_bytes);
}

TEST(CapacityCalibration, EffectiveCapacityShrinksMonotonically) {
  const auto calib = calibrate_capacity(machine(), cs_cfg(), quick_opts(3));
  ASSERT_EQ(calib.available_bytes.size(), 4u);
  for (std::size_t k = 1; k < calib.available_bytes.size(); ++k)
    EXPECT_LT(calib.available_bytes[k], calib.available_bytes[k - 1])
        << "k=" << k;
}

TEST(CapacityCalibration, OneThreadDeniesRoughlyItsBuffer) {
  const auto calib = calibrate_capacity(machine(), cs_cfg(), quick_opts(1));
  const double denied = calib.available_bytes[0] - calib.available_bytes[1];
  // Paper: 1 CSThr with a 4 MB buffer leaves ~15 MB of 20 (denies 4-6 MB).
  EXPECT_GT(denied, 0.5 * cs_cfg().buffer_bytes);
  EXPECT_LT(denied, 2.5 * cs_cfg().buffer_bytes);
}

TEST(BandwidthCalibration, PeakNearConfiguredBandwidth) {
  const auto calib = calibrate_bandwidth(machine(), bw_cfg(), 0);
  EXPECT_GT(calib.peak_bytes_per_sec,
            0.6 * machine().mem_bandwidth_bytes_per_sec);
  EXPECT_LE(calib.peak_bytes_per_sec,
            1.05 * machine().mem_bandwidth_bytes_per_sec);
}

TEST(BandwidthCalibration, UsageGrowsWithThreadCount) {
  const auto calib = calibrate_bandwidth(machine(), bw_cfg(), 3);
  ASSERT_EQ(calib.used_bytes_per_sec.size(), 4u);
  EXPECT_LT(calib.used_bytes_per_sec[0], 1e8);  // idle socket
  for (std::size_t k = 1; k < calib.used_bytes_per_sec.size(); ++k)
    EXPECT_GT(calib.used_bytes_per_sec[k],
              calib.used_bytes_per_sec[k - 1] * 1.2)
        << "k=" << k;
}

TEST(BandwidthCalibration, AvailableIsPeakMinusUsed) {
  const auto calib = calibrate_bandwidth(machine(), bw_cfg(), 1);
  EXPECT_NEAR(calib.available(1),
              calib.peak_bytes_per_sec - calib.used_bytes_per_sec[1], 1e-6);
}

TEST(BandwidthCalibration, RejectsTooManyThreads) {
  EXPECT_THROW(calibrate_bandwidth(machine(), bw_cfg(), 8),
               std::invalid_argument);
}

TEST(CapacityCalibration, RejectsTooManyThreads) {
  // Probe on core 0 + k CSThrs on cores 1..k: max_threads = 8 would spill
  // the last CSThr onto the next socket and calibrate against interference
  // that never shares the probe's L3.
  EXPECT_EQ(machine().cores_per_socket, 8u);
  EXPECT_THROW(calibrate_capacity(machine(), cs_cfg(), quick_opts(8)),
               std::invalid_argument);
  // The largest placement that still fits the socket stays accepted (tiny
  // probes: only the placement check matters here).
  auto opts = quick_opts(7);
  opts.buffer_to_l3_ratios = {0.05};
  opts.accesses_per_probe = 200;
  EXPECT_NO_THROW(calibrate_capacity(machine(), cs_cfg(), opts));
}

/// Calibration rejects inputs that cannot produce a meaningful table with
/// std::invalid_argument naming the field, before any probe runs.
void expect_rejected(const CalibrationOptions& opts, const std::string& field) {
  try {
    calibrate_capacity(machine(), cs_cfg(), opts);
    ADD_FAILURE() << "accepted options with a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(CapacityCalibration, RejectsEmptyRatioList) {
  // Zero probes per level would average into available_bytes[k] == 0.
  auto opts = quick_opts(1);
  opts.buffer_to_l3_ratios.clear();
  expect_rejected(opts, "buffer_to_l3_ratios");
}

TEST(CapacityCalibration, RejectsEmptyDistributionList) {
  auto opts = quick_opts(1);
  opts.probe_distributions.clear();
  expect_rejected(opts, "probe_distributions");
}

TEST(CapacityCalibration, RejectsDistributionIndexOutsideTable2) {
  // Index 9 (Uni) is valid and comes first: the bad index must be caught
  // up front, not as std::out_of_range from inside a later probe.
  auto opts = quick_opts(1);
  opts.probe_distributions = {9, 10};
  expect_rejected(opts, "probe_distributions");
}

TEST(CapacityCalibration, RejectsNonFiniteRatio) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto opts = quick_opts(1);
    opts.buffer_to_l3_ratios = {2.5, bad};
    expect_rejected(opts, "buffer_to_l3_ratios");
  }
}

TEST(CapacityCalibration, RejectsNonPositiveRatio) {
  for (const double bad : {0.0, -2.5}) {
    auto opts = quick_opts(1);
    opts.buffer_to_l3_ratios = {2.5, bad};
    expect_rejected(opts, "buffer_to_l3_ratios");
  }
}

// ---------------------------------------------------------------------------
// Independent serial oracle. The literal documented procedures, one probe
// after another on the calling thread: for every k, for every ratio, for
// every distribution, one engine seeded with the calibration seed; the
// capacity estimates of one k are averaged in that loop order.

class OracleTimer final : public sim::Agent {
 public:
  explicit OracleTimer(sim::Cycles duration)
      : sim::Agent("timer"), left_(duration) {}
  void step(sim::AgentContext& ctx) override {
    const sim::Cycles chunk = std::min<sim::Cycles>(left_, 10'000);
    ctx.compute(chunk);
    left_ -= chunk;
  }
  bool finished() const override { return left_ == 0; }

 private:
  sim::Cycles left_;
};

CapacityCalibration serial_capacity(const MachineConfig& m,
                                    const interfere::CSThrConfig& cs,
                                    const CalibrationOptions& opts) {
  CapacityCalibration out;
  for (std::uint32_t k = 0; k <= opts.max_threads; ++k) {
    RunningStats estimate;
    for (const double ratio : opts.buffer_to_l3_ratios) {
      const auto elements = static_cast<std::uint64_t>(
          ratio * static_cast<double>(m.l3.size_bytes) / 4);
      for (const std::size_t dist_idx : opts.probe_distributions) {
        const auto dist =
            model::AccessDistribution::table2(elements).at(dist_idx);
        sim::Engine engine(m, opts.seed);
        apps::SyntheticConfig cfg{dist, 4, 1, elements * 2,
                                  opts.accesses_per_probe};
        auto agent = std::make_unique<apps::SyntheticBenchmarkAgent>(
            engine.memory(), cfg);
        const auto bench = engine.add_agent(std::move(agent), 0);
        for (std::uint32_t i = 0; i < k; ++i)
          engine.add_agent(
              std::make_unique<interfere::CSThrAgent>(engine.memory(), cs),
              1 + i, /*primary=*/false);
        engine.run();
        const double miss = engine.agent_counters(bench).l3_miss_rate();
        estimate.add(model::EhrModel(dist, 4).invert_capacity(miss));
      }
    }
    out.available_bytes.push_back(estimate.mean());
    out.stddev_bytes.push_back(estimate.stddev());
  }
  return out;
}

BandwidthCalibration serial_bandwidth(const MachineConfig& m,
                                      const interfere::BWThrConfig& bw,
                                      std::uint32_t max_threads,
                                      std::uint64_t seed) {
  BandwidthCalibration out;
  {
    sim::Engine engine(m, seed);
    apps::StreamProbeConfig cfg;
    cfg.array_bytes = m.l3.size_bytes * 2;
    engine.add_agent(
        std::make_unique<apps::StreamProbeAgent>(engine.memory(), cfg), 0);
    const sim::Cycles end = engine.run();
    out.peak_bytes_per_sec =
        static_cast<double>(engine.memory().mem_backend(0).total_bytes()) /
        m.cycles_to_seconds(end);
  }
  for (std::uint32_t k = 0; k <= max_threads; ++k) {
    sim::Engine engine(m, seed);
    engine.add_agent(std::make_unique<OracleTimer>(20'000'000), 0);
    for (std::uint32_t i = 0; i < k; ++i)
      engine.add_agent(
          std::make_unique<interfere::BWThrAgent>(engine.memory(), bw), 1 + i,
          /*primary=*/false);
    const sim::Cycles end = engine.run();
    out.used_bytes_per_sec.push_back(
        static_cast<double>(engine.memory().mem_backend(0).total_bytes()) /
        m.cycles_to_seconds(end));
  }
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(bits(got[k]), bits(want[k]))
        << what << "[" << k << "]: " << got[k] << " vs " << want[k];
}

constexpr std::uint32_t kOracleScale = 1024;

CalibrationOptions oracle_opts() {
  CalibrationOptions o;
  o.max_threads = 2;
  o.buffer_to_l3_ratios = {1.5, 2.5};
  o.probe_distributions = {4, 9};
  o.accesses_per_probe = 3'000;
  o.seed = 7;
  return o;
}

TEST(CapacityCalibration, MatchesSerialOracleBitForBit) {
  const auto m = MachineConfig::xeon20mb_scaled(kOracleScale);
  interfere::CSThrConfig cs;
  cs.buffer_bytes = 4ull * 1024 * 1024 / kOracleScale;
  const auto opts = oracle_opts();

  const auto want = serial_capacity(m, cs, opts);
  const auto got = calibrate_capacity(m, cs, opts);
  expect_same_bits(got.available_bytes, want.available_bytes,
                   "available_bytes");
  expect_same_bits(got.stddev_bytes, want.stddev_bytes, "stddev_bytes");
  // Four probes per level with different estimates: the fold order and
  // the stddev are really exercised.
  EXPECT_TRUE(std::any_of(want.stddev_bytes.begin(), want.stddev_bytes.end(),
                          [](double s) { return s > 0.0; }));

  const auto again = calibrate_capacity(m, cs, opts);
  expect_same_bits(again.available_bytes, got.available_bytes,
                   "repeat available_bytes");
  expect_same_bits(again.stddev_bytes, got.stddev_bytes, "repeat stddev_bytes");
}

TEST(BandwidthCalibration, MatchesSerialOracleBitForBit) {
  const auto m = MachineConfig::xeon20mb_scaled(kOracleScale);
  interfere::BWThrConfig bw;
  bw.buffer_bytes = 520ull * 1024 / kOracleScale;

  const auto want = serial_bandwidth(m, bw, 2, 7);
  const auto got = calibrate_bandwidth(m, bw, 2, 7);
  EXPECT_EQ(bits(got.peak_bytes_per_sec), bits(want.peak_bytes_per_sec));
  expect_same_bits(got.used_bytes_per_sec, want.used_bytes_per_sec,
                   "used_bytes_per_sec");

  const auto again = calibrate_bandwidth(m, bw, 2, 7);
  EXPECT_EQ(bits(again.peak_bytes_per_sec), bits(got.peak_bytes_per_sec));
  expect_same_bits(again.used_bytes_per_sec, got.used_bytes_per_sec,
                   "repeat used_bytes_per_sec");
}

}  // namespace
}  // namespace am::measure
