// Fig. 7 of the paper: orthogonality, part 1. One BWThr runs while 0..5
// CSThrs interfere on the same socket. Reported per CSThr count: the
// BWThr's memory bandwidth, its L3 miss rate, and the time to complete a
// fixed number of main-loop iterations.
//
// Paper reference shape: all three metrics stay flat — CSThrs do not
// disturb the bandwidth thread.
#include "bench_util.hpp"

namespace {

int fig7(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto max_threads =
      static_cast<std::uint32_t>(cli.get_int("max-threads", 5));
  // Paper: time for 1e7 iterations; scaled down for bench runtime.
  const auto iterations = static_cast<std::uint64_t>(
      cli.get_int("iterations", cli.get_bool("full", false) ? 10'000'000
                                                            : 10'000));

  am::Table t({"CSThrs", "BWThr GB/s", "BWThr L3 miss rate",
               "Time for iterations (ms)"});
  for (std::uint32_t k = 0; k <= max_threads; ++k) {
    am::sim::Engine engine(ctx.machine, ctx.seed);

    // The BWThr is the primary here: it finishes after `iterations` rounds.
    struct BoundedBW final : am::sim::Agent {
      BoundedBW(am::sim::MemorySystem& ms, am::interfere::BWThrConfig cfg,
                std::uint64_t target)
          : am::sim::Agent("bwthr"), inner(ms, cfg), target_(target) {}
      void step(am::sim::AgentContext& ctx2) override { inner.step(ctx2); }
      bool finished() const override { return inner.iterations() >= target_; }
      am::interfere::BWThrAgent inner;
      std::uint64_t target_;
    };
    auto bw = std::make_unique<BoundedBW>(engine.memory(), ctx.bw_config(),
                                          iterations);
    const auto idx = engine.add_agent(std::move(bw), 0);
    for (std::uint32_t i = 0; i < k; ++i)
      engine.add_agent(std::make_unique<am::interfere::CSThrAgent>(
                           engine.memory(), ctx.cs_config()),
                       1 + i, /*primary=*/false);
    const am::sim::Cycles end = engine.run();
    const double seconds = ctx.machine.cycles_to_seconds(end);
    const auto& ctr = engine.agent_counters(idx);
    t.add_row({std::to_string(k),
               am::Table::num(
                   static_cast<double>(ctr.bytes_from_mem) / seconds / 1e9, 2),
               am::Table::num(static_cast<double>(ctr.mem_accesses) /
                                  static_cast<double>(ctr.loads),
                              3),
               am::Table::num(seconds * 1e3, 2)});
  }
  am::bench::emit(t, ctx,
                  "Fig. 7: BWThr behaviour vs CSThr count (paper: flat)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig7_bwthr_vs_csthr",
                               /*default_scale=*/8, /*nodes=*/1, fig7);
}
