// Ablation: why CSThr touches its buffer *randomly*. The paper argues the
// random order (a) defeats the prefetcher and (b) rarely revisits a line's
// neighbours, maximizing private-cache misses and therefore L3 residency
// pressure. This bench compares random vs linear touch order in terms of
// the L3 share the interference thread actually denies a co-running probe.
#include "bench_util.hpp"

namespace {

/// CSThr variant with a linear (element-order) touch pattern.
class LinearCS final : public am::sim::Agent {
 public:
  LinearCS(am::sim::MemorySystem& ms, std::uint64_t bytes)
      : am::sim::Agent("linear-cs"), base_(ms.alloc(bytes, 64)),
        elements_(bytes / 4) {}

  void step(am::sim::AgentContext& ctx) override {
    std::array<am::sim::Addr, 4> batch;
    for (auto& addr : batch) {
      addr = base_ + (cursor_ % elements_) * 4;
      ++cursor_;
    }
    ctx.load_batch(batch);
    ctx.store_batch(batch);
    ctx.compute(4);
  }
  bool finished() const override { return false; }

 private:
  am::sim::Addr base_;
  std::uint64_t elements_;
  std::uint64_t cursor_ = 0;
};

int abl(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 250'000));
  const std::uint64_t probe_elements = ctx.machine.l3.size_bytes / 2;

  am::Table t({"CSThr pattern", "Probe miss rate", "Effective capacity (MB)",
               "Denied (MB)"});
  const auto dist =
      am::model::AccessDistribution::uniform(probe_elements, "Uni");
  const am::model::EhrModel model(dist, 4);
  const double mb = 1024.0 * 1024.0;

  double base_capacity = 0.0;
  for (const std::string pattern : {"none", "random", "linear"}) {
    am::sim::Engine engine(ctx.machine, ctx.seed);
    am::apps::SyntheticConfig cfg{dist, 4, 1, probe_elements * 2, accesses};
    const auto idx = engine.add_agent(
        std::make_unique<am::apps::SyntheticBenchmarkAgent>(engine.memory(),
                                                            cfg),
        0);
    if (pattern == "random")
      engine.add_agent(std::make_unique<am::interfere::CSThrAgent>(
                           engine.memory(), ctx.cs_config()),
                       1, false);
    else if (pattern == "linear")
      engine.add_agent(std::make_unique<LinearCS>(
                           engine.memory(), ctx.cs_config().buffer_bytes),
                       1, false);
    engine.run();
    const double miss = engine.agent_counters(idx).l3_miss_rate();
    const double capacity = model.invert_capacity(miss);
    if (pattern == "none") base_capacity = capacity;
    t.add_row({pattern, am::Table::num(miss, 3),
               am::Table::num(capacity / mb, 3),
               am::Table::num((base_capacity - capacity) / mb, 3)});
  }
  am::bench::emit(t, ctx,
                  "Ablation: CSThr touch order (paper: random denies more "
                  "because every touch misses the private caches)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_access_pattern",
                               /*default_scale=*/8, /*nodes=*/1, abl);
}
