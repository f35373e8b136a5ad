// Fig. 8 of the paper: orthogonality, part 2. One CSThr runs while 0..5
// BWThrs interfere. Reported per BWThr count: the CSThr's memory
// bandwidth, L3 miss rate, and the average time of one
// read-add-write operation.
//
// Paper reference shape: a lone CSThr uses very little bandwidth; 1-2
// BWThrs barely affect it, 3+ BWThrs start stealing cache capacity, which
// raises the CSThr's miss rate, op time and bandwidth use.
#include "bench_util.hpp"

namespace {

int fig8(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto max_threads =
      static_cast<std::uint32_t>(cli.get_int("max-threads", 5));
  const auto operations = static_cast<std::uint64_t>(
      cli.get_int("operations", cli.get_bool("full", false) ? 10'000'000
                                                            : 400'000));

  am::Table t({"BWThrs", "CSThr GB/s", "CSThr L3 miss rate",
               "ns per read+add+write"});
  for (std::uint32_t k = 0; k <= max_threads; ++k) {
    am::sim::Engine engine(ctx.machine, ctx.seed);

    struct BoundedCS final : am::sim::Agent {
      BoundedCS(am::sim::MemorySystem& ms, am::interfere::CSThrConfig cfg,
                std::uint64_t target)
          : am::sim::Agent("csthr"), inner(ms, cfg), target_(target) {}
      void step(am::sim::AgentContext& ctx2) override { inner.step(ctx2); }
      bool finished() const override { return inner.operations() >= target_; }
      am::interfere::CSThrAgent inner;
      std::uint64_t target_;
    };
    auto cs = std::make_unique<BoundedCS>(engine.memory(), ctx.cs_config(),
                                          operations);
    const auto idx = engine.add_agent(std::move(cs), 0);
    for (std::uint32_t i = 0; i < k; ++i)
      engine.add_agent(std::make_unique<am::interfere::BWThrAgent>(
                           engine.memory(), ctx.bw_config()),
                       1 + i, /*primary=*/false);
    const am::sim::Cycles end = engine.run();
    const double seconds = ctx.machine.cycles_to_seconds(end);
    const auto& ctr = engine.agent_counters(idx);
    t.add_row({std::to_string(k),
               am::Table::num(
                   static_cast<double>(ctr.bytes_from_mem) / seconds / 1e9, 3),
               am::Table::num(ctr.l3_miss_rate(), 3),
               am::Table::num(seconds * 1e9 / static_cast<double>(operations),
                              2)});
  }
  am::bench::emit(t, ctx,
                  "Fig. 8: CSThr behaviour vs BWThr count "
                  "(paper: flat through 2 BWThrs, degrading at 3+)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig8_csthr_vs_bwthr",
                               /*default_scale=*/8, /*nodes=*/1, fig8);
}
