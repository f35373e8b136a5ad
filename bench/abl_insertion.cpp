// Ablation: L3 insertion policy. The repo's default is plain MRU-insert
// LRU, which reproduces the paper's empirical finding that 3+ BWThrs begin
// stealing cache capacity (Fig. 8). SRRIP-style distant insertion
// (`insert_age`) protects re-used lines from streaming — making BWThr
// *more* orthogonal than the paper's machine — at the cost of flattening
// the Fig. 8 capacity-theft knee. This bench shows both regimes.
#include "bench_util.hpp"

namespace {

int abl(const am::Cli& cli, const am::bench::BenchContext& base_ctx) {
  const auto operations =
      static_cast<std::uint64_t>(cli.get_int("operations", 300'000));

  am::Table t({"L3 insertion", "BWThrs", "CSThr ns/op", "CSThr miss rate"});
  for (const bool distant : {false, true}) {
    auto ctx = base_ctx;
    ctx.machine.l3.insert_age =
        distant ? ctx.machine.l3.num_lines() / 2 : 0;
    for (const std::uint32_t k : {0u, 2u, 4u}) {
      am::sim::Engine engine(ctx.machine, ctx.seed);
      struct BoundedCS final : am::sim::Agent {
        BoundedCS(am::sim::MemorySystem& ms, am::interfere::CSThrConfig cfg,
                  std::uint64_t target)
            : am::sim::Agent("csthr"), inner(ms, cfg), target_(target) {}
        void step(am::sim::AgentContext& c) override { inner.step(c); }
        bool finished() const override {
          return inner.operations() >= target_;
        }
        am::interfere::CSThrAgent inner;
        std::uint64_t target_;
      };
      const auto idx = engine.add_agent(
          std::make_unique<BoundedCS>(engine.memory(), ctx.cs_config(),
                                      operations),
          0);
      for (std::uint32_t i = 0; i < k; ++i)
        engine.add_agent(std::make_unique<am::interfere::BWThrAgent>(
                             engine.memory(), ctx.bw_config()),
                         1 + i, /*primary=*/false);
      const auto end = engine.run();
      const auto& ctr = engine.agent_counters(idx);
      t.add_row({distant ? "distant (SRRIP-like)" : "MRU (default)",
                 std::to_string(k),
                 am::Table::num(ctx.machine.cycles_to_seconds(end) * 1e9 /
                                    static_cast<double>(operations),
                                2),
                 am::Table::num(ctr.l3_miss_rate(), 3)});
    }
  }
  am::bench::emit(t, base_ctx,
                  "Ablation: L3 insertion policy vs BWThr capacity theft "
                  "(paper's machine behaves like the MRU rows)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_insertion",
                               /*default_scale=*/8, /*nodes=*/1, abl);
}
