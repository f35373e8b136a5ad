// PlanSpec wire-format coverage: serialize/parse round-trips (including
// randomized specs and bit-exact hexfloat doubles), canonical-form
// stability, the rejection catalogue for malformed input, and the
// bit-exactness contract that two processes building from equal specs
// agree on every ScenarioKey — the property that lets amsweepd seed one
// tenant's sweep from another's cached points.
#include "measure/plan_wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "common/record.hpp"

namespace am::measure {
namespace {

PlanSpec sample_spec() {
  PlanSpec spec;
  spec.machine_scale = 512;
  spec.machine_nodes = 2;
  spec.mem_backend = "banked";
  spec.seed = 42;
  spec.max_cycles = 123456789;
  spec.mix_seed_per_point = true;
  spec.cs.buffer_bytes = 8192;
  spec.cs.batch_size = 4;
  spec.bw.buffer_bytes = 4096;
  spec.bw.num_buffers = 11;

  WorkloadWire uni;
  uni.kind = WorkloadWire::Kind::kSynthetic;
  uni.name = "uni-64";
  // The wire canonicalizes an empty dist_name to the workload name;
  // round-trip specs live in that canonical domain.
  uni.dist_name = "uni-64";
  uni.dist = model::DistKind::kUniform;
  uni.n = 64;
  uni.measured_accesses = 500;
  spec.workloads.push_back(uni);

  WorkloadWire norm;
  norm.kind = WorkloadWire::Kind::kSynthetic;
  norm.name = "norm-128";
  norm.dist_name = "normal mu=64 sigma=16";  // spaces are legal
  norm.dist = model::DistKind::kNormal;
  norm.n = 128;
  norm.dist_a = 64.0;
  norm.dist_b = 16.0;
  norm.measured_accesses = 400;
  spec.workloads.push_back(norm);

  WorkloadWire mcb;
  mcb.kind = WorkloadWire::Kind::kMcb;
  mcb.name = "mcb-p2000";
  mcb.ranks = 4;
  mcb.per_socket = 2;
  mcb.particles = 2000;
  mcb.steps = 1;
  mcb.app_scale = 8;
  spec.workloads.push_back(mcb);

  WorkloadWire lulesh;
  lulesh.kind = WorkloadWire::Kind::kLulesh;
  lulesh.name = "lulesh-e6";
  lulesh.ranks = 8;
  lulesh.per_socket = 4;
  lulesh.edge = 6;
  lulesh.app_scale = 16;
  spec.workloads.push_back(lulesh);

  spec.points.push_back({0, Resource::kCacheStorage, 0});
  spec.points.push_back({0, Resource::kCacheStorage, 2});
  spec.points.push_back({1, Resource::kBandwidth, 3});
  spec.points.push_back({2, Resource::kCacheStorage, 1});
  spec.points.push_back({3, Resource::kBandwidth, 1});
  return spec;
}

TEST(PlanWire, RoundTripsAllWorkloadKinds) {
  const PlanSpec spec = sample_spec();
  const std::string text = serialize_plan_spec(spec);
  const PlanSpec back = parse_plan_spec(text);
  EXPECT_TRUE(back == spec);
  // Canonical form: re-serializing the parsed spec is byte-identical,
  // which is what lets the daemon persist its own re-serialization.
  EXPECT_EQ(serialize_plan_spec(back), text);
}

TEST(PlanWire, EmptyDistNameCanonicalizesToWorkloadName) {
  PlanSpec spec = sample_spec();
  spec.workloads[0].dist_name.clear();
  const PlanSpec back = parse_plan_spec(serialize_plan_spec(spec));
  EXPECT_EQ(back.workloads[0].dist_name, back.workloads[0].name);
  // One serialization canonicalizes; after that the round trip is exact.
  EXPECT_TRUE(parse_plan_spec(serialize_plan_spec(back)) == back);
}

TEST(PlanWire, HexfloatDoublesAreBitExact) {
  PlanSpec spec = sample_spec();
  const std::vector<double> nasty = {
      0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, 4.9406564584124654e-324,
      std::nextafter(1.0, 2.0), -2.5e-7};
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    spec.workloads[1].dist_a = nasty[i];
    spec.workloads[1].dist_b = -nasty[i];
    const PlanSpec back = parse_plan_spec(serialize_plan_spec(spec));
    // operator== compares doubles exactly; any rounding in the wire
    // format would break ScenarioKey agreement between processes.
    EXPECT_TRUE(back == spec) << "double " << nasty[i] << " did not survive";
  }
}

TEST(PlanWire, RandomizedSpecsRoundTrip) {
  std::mt19937 rng(20140519);  // fixed seed: failures must reproduce
  for (int iter = 0; iter < 100; ++iter) {
    PlanSpec spec;
    spec.machine_scale = 1 + rng() % 4096;
    spec.machine_nodes = 1 + rng() % 4;
    spec.mem_backend = (iter % 2) ? "channel" : "ddr4";
    spec.seed = rng();
    spec.max_cycles = (static_cast<std::uint64_t>(rng()) << 32) | rng();
    spec.mix_seed_per_point = rng() % 2 == 0;
    spec.cs.buffer_bytes = 4096 + rng() % 65536;
    spec.cs.batch_size = 1 + rng() % 16;
    spec.bw.buffer_bytes = 4096 + rng() % 65536;
    spec.bw.num_buffers = 1 + rng() % 64;
    spec.bw.line_stride = 1 + rng() % 32;
    spec.bw.index_compute_cycles = rng() % 100;
    spec.bw.buffers_per_step = 1 + rng() % 16;

    std::exponential_distribution<double> expd(0.5);
    const std::size_t n_workloads = 1 + rng() % 5;
    for (std::size_t w = 0; w < n_workloads; ++w) {
      WorkloadWire ww;
      ww.kind = static_cast<WorkloadWire::Kind>(rng() % 3);
      // Appended to one string: g++ 12 -O2 flags the equivalent operator+
      // chain with a -Wrestrict false positive, failing -Werror builds.
      std::string name(1, 'w');
      name += std::to_string(w);
      name += " (var ";
      name += std::to_string(rng() % 100);
      name += ')';
      ww.name = std::move(name);
      if (ww.kind == WorkloadWire::Kind::kSynthetic) {
        ww.dist_name = rng() % 2 ? ww.name
                                 : "dist " + std::to_string(rng() % 1000);
        ww.dist = static_cast<model::DistKind>(rng() % 4);
        ww.n = 16 + rng() % 100000;
        ww.dist_a = expd(rng) * 1000.0;
        ww.dist_b = expd(rng);
        ww.element_bytes = 1 + rng() % 16;
        ww.compute_ops = 1 + rng() % 10;
        ww.warmup_accesses = rng() % 1000;
        ww.measured_accesses = 1 + rng() % 100000;
      } else {
        ww.ranks = 1 + rng() % 16;
        ww.per_socket = 1 + rng() % 8;
        if (ww.kind == WorkloadWire::Kind::kMcb)
          ww.particles = 1 + rng() % 100000;
        else
          ww.edge = 1 + rng() % 48;
        ww.steps = rng() % 5;
        ww.app_scale = 1 + rng() % 64;
      }
      spec.workloads.push_back(std::move(ww));
    }
    const std::size_t n_points = 1 + rng() % 12;
    for (std::size_t p = 0; p < n_points; ++p)
      spec.points.push_back(
          {rng() % spec.workloads.size(),
           rng() % 2 ? Resource::kCacheStorage : Resource::kBandwidth,
           static_cast<std::uint32_t>(rng() % 5)});

    const std::string text = serialize_plan_spec(spec);
    const PlanSpec back = parse_plan_spec(text);
    ASSERT_TRUE(back == spec) << "iteration " << iter;
    ASSERT_EQ(serialize_plan_spec(back), text) << "iteration " << iter;
  }
}

TEST(PlanWire, RejectsMalformedInput) {
  const std::string good = serialize_plan_spec(sample_spec());

  EXPECT_THROW(parse_plan_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_plan_spec("#not-a-plan v9\nend\n"),
               std::invalid_argument);
  // Truncation: chopping anywhere before the trailer must throw — the
  // mandatory `end` turns a cut-off transfer into a parse error.
  for (const std::size_t cut : {good.size() / 4, good.size() / 2,
                                good.size() - 2})
    EXPECT_THROW(parse_plan_spec(good.substr(0, cut)), std::invalid_argument)
        << "cut at " << cut;
  EXPECT_THROW(parse_plan_spec(good + "trailing-junk\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_plan_spec(good + "machine\tscale\t1\tnodes\t1\t"
                                      "backend\tchannel\n"),
               std::invalid_argument);

  // Unknown keywords are rejected: specs are untrusted input.
  EXPECT_THROW(
      parse_plan_spec("#am-plan-spec v1\nmystery\t1\nend\n"),
      std::invalid_argument);

  // A point referencing an undeclared workload.
  EXPECT_THROW(
      parse_plan_spec("#am-plan-spec v1\n"
                      "machine\tscale\t64\tnodes\t1\tbackend\tchannel\n"
                      "run\tseed\t1\tmax_cycles\t1000\tmix_seed\t1\n"
                      "point\t0\tcache-storage\t1\n"
                      "end\n"),
      std::invalid_argument);

  // Numeric garbage must name its line, never silently become zero.
  try {
    parse_plan_spec("#am-plan-spec v1\n"
                    "machine\tscale\tXX\tnodes\t1\tbackend\tchannel\n"
                    "run\tseed\t1\tmax_cycles\t1000\tmix_seed\t1\n"
                    "end\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(PlanWire, SerializeRejectsUnwirableSpecs) {
  PlanSpec spec = sample_spec();
  spec.workloads[0].name = "tab\there";
  EXPECT_THROW(serialize_plan_spec(spec), std::invalid_argument);

  spec = sample_spec();
  spec.points.push_back({99, Resource::kCacheStorage, 1});
  EXPECT_THROW(serialize_plan_spec(spec), std::invalid_argument);

  spec = sample_spec();
  spec.machine_scale = 0;
  EXPECT_THROW(serialize_plan_spec(spec), std::invalid_argument);
}

TEST(PlanWire, EqualSpecsBuildAgreeingRunnersAndKeys) {
  const PlanSpec spec = sample_spec();
  const PlanSpec back = parse_plan_spec(serialize_plan_spec(spec));

  const ExperimentPlan plan_a = build_plan(spec);
  const ExperimentPlan plan_b = build_plan(back);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  ASSERT_GT(plan_a.size(), 0u);

  const SweepRunner runner_a = make_runner(spec);
  const SweepRunner runner_b = make_runner(back);
  for (std::size_t p = 0; p < plan_a.size(); ++p) {
    const ScenarioKey ka = runner_a.key_for(plan_a, p);
    const ScenarioKey kb = runner_b.key_for(plan_b, p);
    EXPECT_EQ(ka.fingerprint(), kb.fingerprint()) << "plan index " << p;
    EXPECT_EQ(runner_a.seed_for(p), runner_b.seed_for(p));
  }
}

TEST(PlanWire, BaselineNormalizationSurvivesTheWire) {
  // Two spec points that normalize to the same baseline must still
  // produce a valid (deduplicated) plan after a round trip.
  PlanSpec spec = sample_spec();
  spec.points.clear();
  spec.points.push_back({0, Resource::kCacheStorage, 0});
  spec.points.push_back({0, Resource::kBandwidth, 0});  // same baseline
  spec.points.push_back({0, Resource::kBandwidth, 1});
  const PlanSpec back = parse_plan_spec(serialize_plan_spec(spec));
  EXPECT_EQ(back.points.size(), 3u);       // the wire keeps the raw list
  EXPECT_EQ(build_plan(back).size(), 2u);  // the plan dedups baselines
}

TEST(PlanWire, GoldenSpecReserializesByteIdentically) {
  // Written by the serializer that predates the record codec.
  const auto golden =
      record::read_file(std::string(AM_FORMATS_DIR) + "/plan_spec.txt");
  ASSERT_TRUE(golden.has_value());
  EXPECT_EQ(serialize_plan_spec(parse_plan_spec(*golden)), *golden);
}

TEST(PlanWire, RejectsFieldsWithBytesAfterANul) {
  using namespace std::string_literals;
  std::string text = serialize_plan_spec(sample_spec());
  const auto pos = text.find("\tmax_cycles\t123456789");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + 21, "\0"s);  // after the max_cycles value
  EXPECT_THROW(parse_plan_spec(text), std::invalid_argument);
}

}  // namespace
}  // namespace am::measure
