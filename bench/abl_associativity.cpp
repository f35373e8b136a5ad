// Ablation: the EHR model's fully-associative assumption. The paper blames
// its small-buffer error on set-associativity (Fig. 5 discussion, citing
// Hill & Smith); here we re-run the Fig. 5 experiment against simulated
// L3s of varying associativity, including a fully associative one, and
// also compare against Che's approximation (our refinement).
#include <atomic>

#include "bench_util.hpp"
#include "model/che_approximation.hpp"
#include "model/distributions.hpp"

namespace {

int abl(const am::Cli& cli, const am::bench::BenchContext& base_ctx) {
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 200'000));
  const std::uint64_t buffer = base_ctx.machine.l3.size_bytes * 3 / 2;

  am::Table t({"L3 ways", "Avg |err| Eq.4", "Avg |err| Che"});
  for (const std::uint32_t ways : {4u, 8u, 20u, 0u /*fully assoc*/}) {
    auto ctx = base_ctx;
    auto& l3 = ctx.machine.l3;
    l3.ways = ways == 0
                  ? static_cast<std::uint32_t>(l3.num_lines())
                  : ways;
    ctx.machine.validate();

    am::RunningStats err_eq4, err_che;
    am::ThreadPool pool;
    std::mutex mu;
    const auto dists =
        am::model::AccessDistribution::table2(buffer / 4);
    for (std::size_t di = 0; di < dists.size(); ++di) {
      pool.submit([&, di] {
        const auto& dist = dists[di];
        const auto outcome =
            am::bench::run_synth_experiment(ctx, dist, 1, 0, accesses);
        const am::model::EhrModel eq4(dist, 4);
        const am::model::CheApproximation che(dist, 4, 64);
        const double m_eq4 =
            eq4.expected_miss_rate(ctx.machine.l3.size_bytes);
        const double m_che =
            che.expected_miss_rate(ctx.machine.l3.size_bytes);
        std::lock_guard lock(mu);
        err_eq4.add(std::abs(outcome.miss_rate - m_eq4));
        err_che.add(std::abs(outcome.miss_rate - m_che));
      });
    }
    pool.wait_idle();
    t.add_row({ways == 0 ? "full" : std::to_string(ways),
               am::Table::num(err_eq4.mean(), 4),
               am::Table::num(err_che.mean(), 4)});
  }
  am::bench::emit(t, base_ctx,
                  "Ablation: model error vs L3 associativity "
                  "(paper: error stems from the fully-associative "
                  "assumption; Che's approximation is our refinement)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_associativity",
                               /*default_scale=*/16, /*nodes=*/1, abl);
}
