#include "replay.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "common/stats.hpp"
#include "sim/cache.hpp"
#include "sim/engine.hpp"
#include "sim/memory_backend.hpp"
#include "sim/memory_system.hpp"
#include "sim/prefetcher.hpp"

namespace perfbench {

namespace {

using am::sim::Addr;
using am::sim::CoreId;
using am::sim::Cycles;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_per(double seconds, std::size_t ops) {
  return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

/// Primary that only burns compute: it keeps an interference-only engine
/// alive for a fixed window.
class IdleAgent final : public am::sim::Agent {
 public:
  explicit IdleAgent(Cycles duration) : Agent("idle"), left_(duration) {}
  void step(am::sim::AgentContext& ctx) override {
    const Cycles chunk = std::min<Cycles>(left_, 10'000);
    ctx.compute(chunk);
    left_ -= chunk;
  }
  bool finished() const override { return left_ == 0; }

 private:
  Cycles left_;
};

/// One access of a flattened miss stream.
struct LineAccess {
  CoreId core = 0;
  Addr line = 0;
  bool store = false;
};

/// The caches a MemorySystem would build for `machine`, with the same
/// machine-level toggles applied to their configs.
struct Geometry {
  am::sim::CacheConfig l1, l2, l3;
  explicit Geometry(const am::sim::MachineConfig& m)
      : l1(m.l1), l2(m.l2), l3(m.l3) {
    l1.filter = m.l1_filter;
    l2.filter = m.l2_filter;
    l3.set_hash = m.set_hash;
  }
};

/// Feeds `in` through one cache per key (`key_of` picks core or socket),
/// returning the host seconds spent and the misses in `out`.
template <typename KeyOf>
double cache_pass(const am::sim::CacheConfig& config,
                  const std::vector<LineAccess>& in, KeyOf key_of,
                  std::vector<LineAccess>& out) {
  std::map<std::uint32_t, std::unique_ptr<am::sim::Cache>> caches;
  for (const auto& a : in)
    if (!caches.count(key_of(a.core)))
      caches.emplace(key_of(a.core), std::make_unique<am::sim::Cache>(config));
  out.clear();
  out.reserve(in.size());
  const auto t0 = Clock::now();
  am::sim::Cache* cache = nullptr;
  std::uint32_t cached_key = ~0u;
  for (const auto& a : in) {
    const std::uint32_t key = key_of(a.core);
    if (key != cached_key) {
      cache = caches.at(key).get();
      cached_key = key;
    }
    if (!cache->access(a.line, 0, 0, a.store).hit) out.push_back(a);
  }
  return seconds_since(t0);
}

}  // namespace

std::vector<CapturedStream> cap_streams(
    const std::vector<CapturedStream>& streams, std::size_t max_records) {
  std::vector<CapturedStream> out;
  if (streams.empty()) return out;
  const std::size_t per_stream = std::max<std::size_t>(
      1, max_records / streams.size());
  for (const auto& s : streams) {
    CapturedStream c;
    c.core = s.core;
    const std::size_t n = std::min(per_stream, s.trace.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = s.trace[i];
      c.trace.append(r.addr, r.kind, r.compute_after);
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<CapturedStream> capture_interference(
    const am::sim::MachineConfig& machine, bool bandwidth,
    const am::interfere::CSThrConfig& cs,
    const am::interfere::BWThrConfig& bw, Cycles window, std::uint64_t seed) {
  std::vector<CapturedStream> out(1);
  out[0].core = 1;
  am::sim::Engine engine(machine, seed);
  engine.add_agent(std::make_unique<IdleAgent>(window), 0);
  std::unique_ptr<am::sim::Agent> agent;
  if (bandwidth)
    agent = std::make_unique<am::interfere::BWThrAgent>(engine.memory(), bw);
  else
    agent = std::make_unique<am::interfere::CSThrAgent>(engine.memory(), cs);
  const auto idx = engine.add_agent(std::move(agent), out[0].core,
                                    /*primary=*/false);
  engine.set_trace(idx, &out[0].trace);
  engine.run();
  return out;
}

LayerCosts replay_layers(const am::sim::MachineConfig& machine,
                         const std::vector<CapturedStream>& streams,
                         std::uint64_t seed, int repetitions) {
  std::size_t records = 0;
  std::vector<LineAccess> flat;
  const int shift = std::countr_zero(
      static_cast<std::uint64_t>(machine.l1.line_bytes));
  for (const auto& s : streams) {
    records += s.trace.size();
    for (const auto& r : s.trace.records())
      flat.push_back({s.core, r.addr >> shift,
                      r.kind == am::sim::AccessKind::kStore});
  }
  const Geometry geo(machine);
  const auto socket_of = [&](CoreId c) { return machine.socket_of(c); };
  const auto core_of = [](CoreId c) { return static_cast<std::uint32_t>(c); };

  std::vector<double> hierarchy, engine, l1, l2, l3, prefetch, backend;
  std::vector<LineAccess> l1_miss, l2_miss, l3_miss;
  for (int rep = 0; rep < repetitions; ++rep) {
    {
      am::sim::MemorySystem memory(machine);
      const auto t0 = Clock::now();
      for (const auto& s : streams) {
        Cycles now = 0;
        for (const auto& r : s.trace.records())
          now = memory.access(s.core, r.addr, r.kind, now).complete +
                r.compute_after;
      }
      hierarchy.push_back(ns_per(seconds_since(t0), records));
    }
    {
      am::sim::Engine eng(machine, seed);
      for (const auto& s : streams)
        eng.add_agent(std::make_unique<am::sim::TraceReplayAgent>(s.trace),
                      s.core);
      const auto t0 = Clock::now();
      eng.run();
      engine.push_back(ns_per(seconds_since(t0), records) - hierarchy.back());
    }
    l1.push_back(ns_per(cache_pass(geo.l1, flat, core_of, l1_miss),
                        flat.size()));
    l2.push_back(ns_per(cache_pass(geo.l2, l1_miss, core_of, l2_miss),
                        l1_miss.size()));
    l3.push_back(ns_per(cache_pass(geo.l3, l2_miss, socket_of, l3_miss),
                        l2_miss.size()));
    {
      std::map<CoreId, std::unique_ptr<am::sim::StreamPrefetcher>> pf;
      for (const auto& a : l2_miss)
        if (!pf.count(a.core))
          pf.emplace(a.core, std::make_unique<am::sim::StreamPrefetcher>(
                                 machine.prefetcher));
      std::vector<Addr> out;
      const auto t0 = Clock::now();
      for (const auto& a : l2_miss) {
        out.clear();
        pf.at(a.core)->on_miss(a.line, out);
      }
      prefetch.push_back(ns_per(seconds_since(t0), l2_miss.size()));
    }
    {
      std::map<std::uint32_t, std::unique_ptr<am::sim::MemoryBackend>> be;
      for (const auto& a : l3_miss)
        if (!be.count(socket_of(a.core)))
          be.emplace(socket_of(a.core), am::sim::make_memory_backend(machine));
      Cycles now = 0;
      const auto t0 = Clock::now();
      for (const auto& a : l3_miss)
        now = be.at(socket_of(a.core))
                  ->transfer(now, a.line, machine.l3.line_bytes);
      backend.push_back(ns_per(seconds_since(t0), l3_miss.size()));
    }
  }
  LayerCosts c;
  c.hierarchy_ns_per_access = am::percentile(hierarchy, 50.0);
  c.engine_ns_per_access = am::percentile(engine, 50.0);
  c.l1_ns_per_access = am::percentile(l1, 50.0);
  c.l2_ns_per_access = am::percentile(l2, 50.0);
  c.l3_ns_per_access = am::percentile(l3, 50.0);
  c.prefetcher_ns_per_miss = am::percentile(prefetch, 50.0);
  c.backend_ns_per_transfer = am::percentile(backend, 50.0);
  return c;
}

}  // namespace perfbench
