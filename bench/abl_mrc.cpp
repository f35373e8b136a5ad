// Ablation: ground-truth miss-rate curve vs the paper's analytic model.
// A synthetic benchmark's access trace is captured from the simulator and
// fed to exact LRU stack-distance analysis; the resulting miss-rate curve
// is compared, capacity by capacity, against Eq. 4 and against Che's
// approximation. This quantifies how much of Fig. 5's error is the
// *analytic* approximation vs set-associativity.
#include "bench_util.hpp"

#include "model/che_approximation.hpp"
#include "model/distributions.hpp"
#include "model/stack_distance.hpp"
#include "sim/trace.hpp"

namespace {

int abl(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 400'000));
  const auto dist_idx =
      static_cast<std::size_t>(cli.get_int("dist", 4));  // Exp_6

  const std::uint64_t elements = ctx.machine.l3.size_bytes * 2 / 4;
  const auto dist = am::model::AccessDistribution::table2(elements)[dist_idx];

  // Capture the trace of the benchmark running on the simulator.
  am::sim::Engine engine(ctx.machine, ctx.seed);
  am::apps::SyntheticConfig cfg{dist, 4, 1, /*warmup=*/0, accesses};
  const auto idx = engine.add_agent(
      std::make_unique<am::apps::SyntheticBenchmarkAgent>(engine.memory(),
                                                          cfg),
      0);
  am::sim::TraceBuffer trace;
  engine.set_trace(idx, &trace);
  engine.run();

  const auto lines = trace.line_addresses(ctx.machine.l3.line_bytes);
  const am::model::MissRateCurve mrc(
      am::model::StackDistanceAnalyzer::analyze(lines));
  const am::model::EhrModel eq4(dist, 4);
  const am::model::CheApproximation che(dist, 4, ctx.machine.l3.line_bytes);

  am::Table t({"Capacity (MB)", "Exact MRC", "Eq. 4", "Che", "Eq.4 err",
               "Che err"});
  for (int step = 1; step <= 8; ++step) {
    const std::uint64_t capacity = ctx.machine.l3.size_bytes * step / 4;
    const auto cap_lines = capacity / ctx.machine.l3.line_bytes;
    const double exact = mrc.warm_miss_rate(cap_lines);
    const double m_eq4 = eq4.expected_miss_rate(capacity);
    const double m_che = che.expected_miss_rate(capacity);
    t.add_row({am::Table::num(capacity / 1048576.0, 2),
               am::Table::num(exact, 3), am::Table::num(m_eq4, 3),
               am::Table::num(m_che, 3),
               am::Table::num(std::abs(m_eq4 - exact), 3),
               am::Table::num(std::abs(m_che - exact), 3)});
  }
  am::bench::emit(t, ctx,
                  "Ablation: exact LRU miss-rate curve (stack distances of " +
                      std::to_string(lines.size()) + " accesses, " +
                      dist.name() + ") vs analytic models");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_mrc",
                               /*default_scale=*/16, /*nodes=*/1, abl);
}
