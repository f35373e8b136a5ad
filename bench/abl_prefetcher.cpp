// Ablation: the stream prefetcher's contribution to consumable bandwidth.
// The paper chose a constant stride for BWThr specifically so the hardware
// prefetcher would "help use up more bandwidth"; this bench quantifies the
// effect on the simulator for a sequential stream, a prefetchable small
// stride, the BWThr's large prime stride, and a random pattern.
#include "bench_util.hpp"

namespace {

/// Strided/random walker over one large buffer.
class Walker final : public am::sim::Agent {
 public:
  Walker(am::sim::MemorySystem& ms, std::uint64_t bytes, std::int64_t stride,
         std::uint64_t target_loads)
      : am::sim::Agent("walker"),
        base_(ms.alloc(bytes, 64)),
        lines_(bytes / 64),
        stride_(stride),
        target_(target_loads) {}

  void step(am::sim::AgentContext& ctx) override {
    std::array<am::sim::Addr, 8> batch;
    for (auto& addr : batch) {
      const std::uint64_t line =
          stride_ == 0 ? ctx.rng().bounded(lines_)
                       : (cursor_ += static_cast<std::uint64_t>(stride_)) %
                             lines_;
      addr = base_ + line * 64;
    }
    ctx.load_batch(batch);
    done_ += batch.size();
  }
  bool finished() const override { return done_ >= target_; }

 private:
  am::sim::Addr base_;
  std::uint64_t lines_;
  std::int64_t stride_;  // lines; 0 = random
  std::uint64_t cursor_ = 0;
  std::uint64_t target_;
  std::uint64_t done_ = 0;
};

int abl(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto loads =
      static_cast<std::uint64_t>(cli.get_int("loads", 400'000));
  const std::uint64_t bytes = ctx.machine.l3.size_bytes * 4;

  am::Table t({"Pattern", "Prefetcher", "GB/s", "Prefetch cover %"});
  struct Case {
    const char* name;
    std::int64_t stride;
  };
  for (const Case c : {Case{"sequential", 1}, Case{"stride 3", 3},
                       Case{"stride 17 (BWThr)", 17}, Case{"random", 0}}) {
    for (const bool pf : {true, false}) {
      auto m = ctx.machine;
      m.prefetcher.enabled = pf;
      am::sim::Engine engine(m, ctx.seed);
      engine.add_agent(
          std::make_unique<Walker>(engine.memory(), bytes, c.stride, loads),
          0);
      const auto end = engine.run();
      const auto& ctr = engine.agent_counters(0);
      const double seconds = m.cycles_to_seconds(end);
      const double bw = static_cast<double>(ctr.bytes_from_mem) / seconds;
      const double cover =
          100.0 * static_cast<double>(ctr.prefetch_issued) /
          static_cast<double>(ctr.prefetch_issued + ctr.mem_accesses);
      t.add_row({c.name, pf ? "on" : "off", am::Table::num(bw / 1e9, 2),
                 am::Table::num(cover, 1)});
    }
  }
  am::bench::emit(t, ctx,
                  "Ablation: prefetcher contribution per access pattern");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_prefetcher",
                               /*default_scale=*/8, /*nodes=*/1, abl);
}
