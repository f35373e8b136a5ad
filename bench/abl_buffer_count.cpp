// Ablation: BWThr throughput vs the number of concurrent buffers. The
// paper found 44 buffers sufficient to maximize concurrent memory traffic;
// this sweep shows the saturation curve on the simulator (throughput rises
// with memory-level parallelism until the line-fill-buffer limit).
#include "bench_util.hpp"

namespace {

int abl(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto window = static_cast<am::sim::Cycles>(
      cli.get_int("cycles", 10'000'000));

  am::Table t({"Buffers", "BWThr GB/s", "GB/s per buffer"});
  for (const std::uint32_t nbuf : {1u, 2u, 4u, 8u, 16u, 32u, 44u, 64u}) {
    am::sim::Engine engine(ctx.machine, ctx.seed);
    struct Timer final : am::sim::Agent {
      explicit Timer(am::sim::Cycles d) : am::sim::Agent("t"), left(d) {}
      void step(am::sim::AgentContext& c) override {
        const auto chunk = std::min<am::sim::Cycles>(left, 10'000);
        c.compute(chunk);
        left -= chunk;
      }
      bool finished() const override { return left == 0; }
      am::sim::Cycles left;
    };
    engine.add_agent(std::make_unique<Timer>(window), 0);
    auto cfg = ctx.bw_config();
    cfg.num_buffers = nbuf;
    engine.add_agent(std::make_unique<am::interfere::BWThrAgent>(
                         engine.memory(), cfg),
                     1, /*primary=*/false);
    const auto end = engine.run();
    const double seconds = ctx.machine.cycles_to_seconds(end);
    const double bw =
        static_cast<double>(engine.agent_counters(1).bytes_from_mem) /
        seconds;
    t.add_row({std::to_string(nbuf), am::Table::num(bw / 1e9, 2),
               am::Table::num(bw / 1e9 / nbuf, 3)});
  }
  am::bench::emit(t, ctx,
                  "Ablation: BWThr bandwidth vs buffer count "
                  "(paper: 44 buffers found sufficient)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_buffer_count",
                               /*default_scale=*/8, /*nodes=*/1, abl);
}
