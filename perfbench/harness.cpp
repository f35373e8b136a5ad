// The repository benchmark harness (see README.md for the workloads, the
// metrics and the layer map).
//
// One process runs one workload. It builds the figure job in-process
// through the public API — ExperimentPlan/SweepRunner for the fig9 and
// fig11 degradation grids, calibrate_capacity/calibrate_bandwidth +
// ActiveMeasurer for the fig10 bounds job — and times each layer from
// outside, at those calls. Jobs form a closed batch: the next starts when
// the previous one has finished, until the time budget is spent.
//
//   --trace 0: end-to-end metrics (medians over the jobs of the run).
//   --trace 1: one untraced and one traced job; per-layer metrics from
//              the traced job's spans, trace replays of its sim traffic,
//              and exact simulated counts (which must equal the untraced
//              job's). The spans are written to a TSV file at the end.
//
// Every job is checked: no timeouts, per-level hits + DRAM accesses equal
// the accesses, slowdowns finite and positive, a warm re-sweep against
// the reloaded store executes nothing and reproduces the cold results,
// and all jobs of a run agree bit-for-bit. At the default seed the
// canonical store serialization must also match the committed reference
// digest. The last stdout line is the JSON result; the exit code is 0
// only when every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/fingerprint.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/result_store.hpp"
#include "replay.hpp"

namespace {

namespace fs = std::filesystem;
namespace measure = am::measure;
namespace sim = am::sim;
using Clock = std::chrono::steady_clock;

/// The seed the figure drivers default to; at this seed the canonical
/// store must match the committed reference digest.
constexpr std::uint64_t kDefaultSeed = 1;

/// Set-up-only repetitions after each untraced job (see sample_setups).
constexpr int kSetupSamples = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The median, or 0 for an empty sample (a job that threw).
double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : am::percentile(xs, 50.0);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// --------------------------------------------------------------- spans

/// In-memory span recorder: name, start, end and parent per span, kept
/// until the run ends. Disabled tracers record nothing, so untraced jobs
/// run the same code at the cost of one branch per boundary.
class Tracer {
 public:
  struct Span {
    int parent = -1;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its id (-1 when disabled). Thread-safe.
  int open(const std::string& name, int parent) {
    if (!enabled_) return -1;
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({parent, name, t, t});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (id < 0) return;
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  Scope span(const std::string& name, int parent) {
    return Scope(*this, open(name, parent));
  }

  /// Summed duration of the spans called `name`.
  double total(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const auto& s : spans_)
      if (s.name == name) sum += s.end - s.start;
    return sum;
  }

  /// Number of spans called `name`.
  std::size_t count(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
  }

  /// Writes every span with its self time — its duration minus the part
  /// of its interval that child spans cover (children of pool threads
  /// overlap, so the covered part is the union of their intervals).
  void write(const std::string& path, const std::string& run_id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "run\tspan\tparent\tname\tstart_s\tend_s\tduration_s\tself_s\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> kids;
      for (const auto& c : spans_)
        if (c.parent == static_cast<int>(i))
          kids.emplace_back(std::max(c.start, s.start),
                            std::min(c.end, s.end));
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double reach = s.start;
      for (const auto& [b, e] : kids) {
        const double from = std::max(b, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
      }
      const double duration = s.end - s.start;
      out << run_id << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
          << s.start << '\t' << s.end << '\t' << duration << '\t'
          << duration - covered << '\n';
    }
  }

 private:
  double now() const { return seconds_since(origin_); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index = span id
};

// ----------------------------------------------------------- workloads

enum class Workload { kMcbSweep, kLuleshSweep, kMcbBounds };

/// Every size knob of a job. "full" is the benchmark; "tiny" only proves
/// the harness end to end in the self-test.
struct Size {
  std::uint32_t scale = 16;
  std::uint32_t nodes = 12;
  std::uint32_t ranks = 8;
  std::uint32_t steps = 1;
  std::vector<std::uint32_t> mappings;
  std::uint32_t base = 0;             // cell size of the mapping sweep
  std::vector<std::uint32_t> sizes;   // particles / cube edges at p = 1
  std::uint32_t max_cs = 5;
  std::uint32_t max_bw = 2;
  // mcb_bounds only (fig10 --quick calibration).
  std::uint32_t calib_threads = 2;
  std::uint64_t calib_accesses = 20'000;
  // Trace replays.
  std::size_t replay_records = 400'000;
  sim::Cycles interference_window = 2'000'000;
};

Size size_for(Workload w, bool tiny) {
  Size s;
  switch (w) {
    case Workload::kMcbSweep:  // fig9 --quick grid
      s.mappings = {1, 4};
      s.base = 20'000;
      s.sizes = {20'000, 90'000};
      break;
    case Workload::kLuleshSweep:  // fig11 --quick grid, 32 nodes
      s.nodes = 32;
      s.mappings = {1, 4};
      s.base = 22;
      s.sizes = {22, 30};
      break;
    case Workload::kMcbBounds:  // fig10 --quick job at its smoke scale
      s.scale = 128;
      s.mappings = {1, 4};
      s.base = 20'000;
      s.max_cs = 2;
      s.max_bw = 1;
      break;
  }
  if (tiny) {
    s.scale = 256;
    s.max_cs = 1;
    s.max_bw = 1;
    s.calib_threads = 1;
    s.calib_accesses = 2'000;
    s.replay_records = 20'000;
    s.interference_window = 200'000;
    if (w == Workload::kMcbSweep) s.sizes = {20'000};
    if (w == Workload::kLuleshSweep) s.sizes = {22};
  }
  return s;
}

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "mcb_sweep") return Workload::kMcbSweep;
  if (name == "lulesh_sweep") return Workload::kLuleshSweep;
  if (name == "mcb_bounds") return Workload::kMcbBounds;
  return std::nullopt;
}

/// The interference configurations the figure drivers run at `scale`
/// (bench_util's BenchContext::cs_config/bw_config).
am::interfere::CSThrConfig cs_config(std::uint32_t scale) {
  am::interfere::CSThrConfig c;
  c.buffer_bytes = std::max<std::uint64_t>(4096, 4ull * 1024 * 1024 / scale);
  return c;
}

am::interfere::BWThrConfig bw_config(std::uint32_t scale) {
  am::interfere::BWThrConfig c;
  c.buffer_bytes = std::max<std::uint64_t>(4096, 520ull * 1024 / scale);
  return c;
}

sim::MachineConfig machine_for(const Size& s) {
  return sim::MachineConfig::xeon20mb_scaled(s.scale, s.nodes);
}

// -------------------------------------------------------------- checks

/// Everything a result's simulated state determines, as exact integers:
/// the sixteen counters, the cycles, the runtime's bits and the timeout
/// flag. `serialized_only` drops the filter diagnostics, which the store
/// format does not carry.
std::vector<std::uint64_t> exact_counts(const sim::Counters& c,
                                        std::uint64_t cycles, double seconds,
                                        bool timed_out,
                                        bool serialized_only = false) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(seconds));
  std::memcpy(&bits, &seconds, sizeof(bits));
  std::vector<std::uint64_t> v{
      c.loads,          c.stores,         c.l1_hits,      c.l2_hits,
      c.l3_hits,        c.mem_accesses,   c.prefetch_issued,
      c.prefetch_dropped, c.writebacks,   c.bytes_from_mem,
      c.compute_cycles, c.stall_cycles,   cycles,         bits,
      timed_out ? 1u : 0u};
  if (!serialized_only)
    v.insert(v.end(), {c.l1_filter_hits, c.l1_filter_fallthroughs,
                       c.l2_filter_hits, c.l2_filter_fallthroughs});
  return v;
}

std::vector<std::uint64_t> exact_counts(const measure::SimRunResult& r,
                                        bool serialized_only = false) {
  return exact_counts(r.app, r.cycles, r.seconds, r.timed_out,
                      serialized_only);
}

/// Why one grid point's result fails the output check ("" = it passes).
std::string point_error(const measure::SimRunResult& r) {
  const auto& c = r.app;
  if (r.timed_out) return "timed out";
  if (c.l1_hits + c.l2_hits + c.l3_hits + c.mem_accesses != c.accesses())
    return "per-level hits + mem_accesses != accesses";
  if (!(std::isfinite(r.seconds) && r.seconds > 0.0))
    return "runtime not finite and positive";
  return {};
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// FNV-1a digest of the store's canonical serialization (with the
/// producing host's fingerprint replaced by a constant, so the digest is
/// host-independent) followed by `extra`.
std::string canonical_digest(const measure::ResultStore& store,
                             const fs::path& dir, const std::string& extra) {
  measure::ResultStore canonical;
  for (const auto* rec : store.records())
    canonical.put(rec->key, rec->result, "perfbench");
  const auto path = (dir / "canonical.tsv").string();
  canonical.save(path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  am::Fingerprint fp;
  fp.mix(bytes.str());
  fp.mix(extra);
  return fp.hex();
}

// ----------------------------------------------------------------- jobs

/// One job's measurements and check outcome.
struct JobResult {
  double wall_s = 0.0;   // set-up + calibration + grid + assembly
  double setup_s = 0.0;  // job entry → first engine-running call
  double cpu_s = 0.0;    // user + sys over the same interval as wall_s
  std::size_t attempted = 0;  // grid points + calibration probes
  std::size_t failed = 0;
  std::vector<std::string> errors;
  sim::Counters app;          // Σ over the grid points
  std::uint64_t cycles = 0;   // Σ simulated cycles over the grid points
  std::string digest;
  std::vector<double> point_seconds;  // host seconds of each engine run
  std::size_t probes = 0;
  std::size_t warm_executed = 0;
  std::vector<double> setup_samples;  // this job's set-up + set-up-only runs
  std::vector<perfbench::CapturedStream> app_streams;  // capture only

  void fail(const std::string& why, std::size_t ops) {
    errors.push_back(why);
    failed = std::min(attempted, failed + ops);
  }
  /// A job-level check failing makes every operation of the job suspect.
  void fail_job(const std::string& why) { fail(why, attempted); }
};

struct JobEnv {
  Workload workload = Workload::kMcbSweep;
  Size size;
  std::uint64_t seed = kDefaultSeed;
  std::size_t threads = 1;
  fs::path dir;  // scratch directory for this job's store
  Tracer* tracer = nullptr;
  bool capture = false;  // record the baseline's app traffic for replay
};

using Factory = measure::SimBackend::WorkloadFactory;

/// Wraps a workload factory (mapping, communicator and rank agents of one
/// point) in an "apps.build" span under `parent`.
Factory timed_factory(Factory inner, Tracer& tr, const int& parent) {
  return [inner = std::move(inner), &tr, &parent](sim::Engine& engine) {
    const auto span = tr.span("apps.build", parent);
    return inner(engine);
  };
}

/// Wraps a store checkpoint in a "store.save" span under `parent`.
std::function<void(const measure::ResultStore&)> timed_checkpoint(
    std::function<void(const measure::ResultStore&)> inner, Tracer& tr,
    const int& parent) {
  return [inner = std::move(inner), &tr, &parent](
             const measure::ResultStore& store) {
    const auto span = tr.span("store.save", parent);
    if (inner) inner(store);
  };
}

/// Checks every record of the job's store (one per grid point), sums its
/// simulated counts and collects per-point host seconds.
void check_records(const measure::ResultStore& store, JobResult& r) {
  std::map<std::string, double> baseline;
  for (const auto* rec : store.records())
    if (rec->key.threads == 0)
      baseline[rec->key.workload] = rec->result.seconds;
  for (const auto* rec : store.records()) {
    const auto& res = rec->result;
    r.app += res.app;
    r.cycles += res.cycles;
    r.point_seconds.push_back(rec->run_seconds);
    std::string err = point_error(res);
    if (err.empty() && rec->key.threads > 0) {
      const auto it = baseline.find(rec->key.workload);
      const double slowdown = it == baseline.end()
                                  ? std::nan("")
                                  : res.seconds / it->second;
      if (!(std::isfinite(slowdown) && slowdown > 0.0))
        err = "slowdown not finite and positive";
    }
    if (!err.empty())
      r.fail(rec->key.workload + " threads=" +
                 std::to_string(rec->key.threads) + ": " + err,
             1);
  }
}

/// Re-runs the baseline of one workload with Engine::set_trace on its
/// primaries, returning their captured streams. Tracing must not perturb
/// simulated state: the result must equal the stored baseline exactly.
std::vector<perfbench::CapturedStream> capture_baseline(
    const sim::MachineConfig& machine, std::uint64_t seed,
    const am::interfere::CSThrConfig& cs, const Factory& factory,
    const std::string& name, const measure::ResultStore& store,
    JobResult& r) {
  std::vector<perfbench::CapturedStream> streams;
  const Factory traced = [&](sim::Engine& engine) {
    auto info = factory(engine);
    streams.resize(info.primary_agents.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      streams[i].core = engine.agent_core(info.primary_agents[i]);
      engine.set_trace(info.primary_agents[i], &streams[i].trace);
    }
    return info;
  };
  measure::SimBackend backend(machine, seed);
  const auto rerun =
      backend.run(traced, measure::InterferenceSpec::storage(0, cs));
  const measure::SimRunResult* stored = nullptr;
  for (const auto* rec : store.records())
    if (rec->key.workload == name && rec->key.threads == 0)
      stored = &rec->result;
  if (stored == nullptr || exact_counts(rerun) != exact_counts(*stored))
    r.fail_job("traced re-run of '" + name +
               "' baseline differs from the untraced sweep");
  return streams;
}

/// Everything a sweep job builds before its first engine run: machine
/// config, plan, store, runner and pool.
struct SweepSetup {
  sim::MachineConfig machine;
  am::interfere::CSThrConfig cs;
  am::interfere::BWThrConfig bw;
  measure::ExperimentPlan plan;
  Factory first_factory;  // unwrapped, for the trace capture
  std::unique_ptr<measure::ResultStoreFile> store;
  std::unique_ptr<measure::SweepRunner> runner;
  std::unique_ptr<am::ThreadPool> pool;
};

/// The fig9 (MCB) or fig11 (Lulesh) --quick grid. Factories and
/// checkpoints record spans under `sweep_span` once the sweep sets it.
SweepSetup sweep_setup(const JobEnv& env, const int& sweep_span) {
  const Size& s = env.size;
  Tracer& tr = *env.tracer;
  const bool lulesh = env.workload == Workload::kLuleshSweep;
  SweepSetup x;
  x.machine = machine_for(s);
  x.cs = cs_config(s.scale);
  x.bw = bw_config(s.scale);
  // Cells both sweeps visit (p = 1 at the base size) are one workload, as
  // in the drivers; the name is the workload's identity in the store.
  std::map<std::pair<std::uint32_t, std::uint32_t>, measure::WorkloadId> cells;
  auto cell = [&](std::uint32_t p, std::uint32_t size) {
    const auto key = std::make_pair(p, size);
    if (const auto it = cells.find(key); it != cells.end()) return it->second;
    std::string name;
    Factory factory;
    const std::string prefix =
        " r" + std::to_string(s.ranks) + " s" + std::to_string(s.steps) +
        " map p=" + std::to_string(p);
    if (lulesh) {
      auto cfg = am::apps::LuleshConfig::paper(size, s.scale);
      cfg.steps = s.steps;
      name = "lulesh" + prefix + " cube " + std::to_string(size) + "^3";
      factory = measure::make_lulesh_workload(s.ranks, p, cfg);
    } else {
      auto cfg = am::apps::McbConfig::paper(size, s.scale);
      cfg.steps = s.steps;
      name = "mcb" + prefix + " particles=" + std::to_string(size);
      factory = measure::make_mcb_workload(s.ranks, p, cfg);
    }
    if (!x.first_factory) x.first_factory = factory;
    const auto id = x.plan.add_workload(
        {name, timed_factory(std::move(factory), tr, sweep_span)});
    cells.emplace(key, id);
    return id;
  };
  for (const std::uint32_t p : s.mappings) {
    const std::uint32_t free_cores = x.machine.cores_per_socket - p;
    const auto id = cell(p, s.base);
    x.plan.add_sweep(id, measure::Resource::kCacheStorage, 0,
                     std::min(s.max_cs, free_cores));
    x.plan.add_sweep(id, measure::Resource::kBandwidth, 0,
                     std::min(s.max_bw, free_cores));
  }
  for (const std::uint32_t size : s.sizes) {
    const auto id = cell(1, size);
    x.plan.add_sweep(id, measure::Resource::kCacheStorage, 0, s.max_cs);
    x.plan.add_sweep(id, measure::Resource::kBandwidth, 0, s.max_bw);
  }
  x.store = std::make_unique<measure::ResultStoreFile>(env.dir.string(),
                                                       "perfbench");
  measure::SweepRunnerOptions opts;
  opts.seed = env.seed;
  opts.mix_seed_per_point = false;  // all levels share the workload seed
  opts.cs = x.cs;
  opts.bw = x.bw;
  opts.checkpoint =
      timed_checkpoint(x.store->checkpointer(), tr, sweep_span);
  x.runner = std::make_unique<measure::SweepRunner>(x.machine, opts);
  x.pool = std::make_unique<am::ThreadPool>(env.threads);
  return x;
}

/// fig9/fig11 --quick degradation grid over the pool.
JobResult sweep_job(const JobEnv& env) {
  JobResult r;
  Tracer& tr = *env.tracer;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  int sweep_span = -1;
  const int job = tr.open("job", -1);
  const int setup = tr.open("setup", job);
  SweepSetup x = sweep_setup(env, sweep_span);
  tr.close(setup);
  r.setup_s = seconds_since(t0);
  r.attempted = x.plan.size();

  {  // The sweeps calibrate nothing: empty stages, so that every workload
     // reports every layer (as span overhead here).
    const auto cal = tr.span("calibration", job);
    tr.close(tr.open("calibration.capacity", cal.id()));
    tr.close(tr.open("calibration.bandwidth", cal.id()));
  }
  measure::ResultTable table;
  std::vector<double> slowdowns;
  try {
    {
      const auto span = tr.span("sweep", job);
      sweep_span = span.id();
      table = x.runner->run(x.plan, x.pool.get(), x.store->store(), {});
    }
    {
      const auto span = tr.span("store.save", job);
      x.store->save();
    }
    tr.close(tr.open("model.bounds", job));  // the sweeps derive no bounds
    // Result assembly: the figure's slowdown table, as the driver builds it.
    const auto span = tr.span("assembly", job);
    for (const auto& pt : x.plan.points())
      if (pt.threads > 0)
        slowdowns.push_back(
            table.slowdown(pt.workload, pt.resource, pt.threads));
  } catch (const std::exception& e) {
    tr.close(job);
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    r.fail_job(std::string("sweep threw: ") + e.what());
    return r;
  }
  tr.close(job);
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;

  // Checks, outside the timed job.
  const auto check = tr.span("check", -1);
  measure::ResultStore loaded;
  {
    const auto span = tr.span("store.load", check.id());
    loaded = measure::ResultStore::load(x.store->path());
  }
  measure::ResultTable warm;
  {
    const auto span = tr.span("store.warm_sweep", check.id());
    warm = x.runner->run(x.plan, x.pool.get(), &loaded, {},
                         &r.warm_executed);
  }
  if (r.warm_executed != 0)
    r.fail_job("warm re-sweep executed " + std::to_string(r.warm_executed) +
               " engine run(s)");
  for (const auto& pt : x.plan.points())
    if (exact_counts(warm.at(pt.workload, pt.resource, pt.threads), true) !=
        exact_counts(table.at(pt.workload, pt.resource, pt.threads), true))
      r.fail_job("warm re-sweep differs from the cold sweep");
  check_records(*x.store->store(), r);
  r.digest = canonical_digest(*x.store->store(), env.dir, "");
  if (env.capture)
    r.app_streams = capture_baseline(x.machine, env.seed, x.cs,
                                     x.first_factory,
                                     x.plan.workloads().front().name,
                                     *x.store->store(), r);
  return r;
}

/// Everything the bounds job builds before its first engine run.
struct BoundsSetup {
  sim::MachineConfig machine;
  am::interfere::CSThrConfig cs;
  am::interfere::BWThrConfig bw;
  measure::CalibrationOptions copts;
  std::vector<measure::GridRequest> requests;
  Factory first_factory;  // unwrapped, for the trace capture
  std::unique_ptr<measure::ResultStoreFile> store;
  std::unique_ptr<measure::SimBackend> backend;
  std::unique_ptr<am::ThreadPool> pool;
};

/// The fig10 --quick job: calibration options and one grid request per
/// mapping.
BoundsSetup bounds_setup(const JobEnv& env, const int& sweep_span) {
  const Size& s = env.size;
  BoundsSetup x;
  x.machine = machine_for(s);
  x.cs = cs_config(s.scale);
  x.bw = bw_config(s.scale);
  x.copts.max_threads = s.calib_threads;
  x.copts.buffer_to_l3_ratios = {2.5};
  x.copts.probe_distributions = {9};
  x.copts.accesses_per_probe = s.calib_accesses;
  x.copts.seed = env.seed;
  auto cfg = am::apps::McbConfig::paper(s.base, s.scale);
  cfg.steps = s.steps;
  for (const std::uint32_t p : s.mappings) {
    Factory factory = measure::make_mcb_workload(s.ranks, p, cfg);
    if (!x.first_factory) x.first_factory = factory;
    x.requests.push_back(
        {timed_factory(std::move(factory), *env.tracer, sweep_span),
         "mcb r" + std::to_string(s.ranks) + " s" + std::to_string(s.steps) +
             " particles=" + std::to_string(s.base) + " p=" +
             std::to_string(p),
         std::min(s.max_cs, x.machine.cores_per_socket - p),
         std::min(s.max_bw, x.machine.cores_per_socket - p)});
  }
  x.store = std::make_unique<measure::ResultStoreFile>(env.dir.string(),
                                                       "perfbench");
  x.backend = std::make_unique<measure::SimBackend>(x.machine, env.seed);
  x.pool = std::make_unique<am::ThreadPool>(env.threads);
  return x;
}

/// fig10 --quick active-measurement job: calibrate both interference
/// kinds, sweep a small grid, derive per-process bounds.
JobResult bounds_job(const JobEnv& env) {
  JobResult r;
  Tracer& tr = *env.tracer;
  const Size& s = env.size;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  int sweep_span = -1;
  const int job = tr.open("job", -1);
  const int setup = tr.open("setup", job);
  BoundsSetup x = bounds_setup(env, sweep_span);
  tr.close(setup);
  r.setup_s = seconds_since(t0);

  const std::size_t per_level = x.copts.buffer_to_l3_ratios.size() *
                                x.copts.probe_distributions.size();
  const std::size_t cap_probes = (s.calib_threads + 1) * per_level;
  const std::size_t bw_probes = 1 + (s.calib_threads + 1);
  r.probes = cap_probes + bw_probes;
  r.attempted = r.probes;
  measure::CapacityCalibration cap;
  measure::BandwidthCalibration bwc;
  std::vector<measure::GridSweeps> sweeps;
  std::vector<measure::ResourceBounds> bounds;
  std::optional<measure::ActiveMeasurer> measurer;
  try {
    {
      const auto cal = tr.span("calibration", job);
      {
        const auto span = tr.span("calibration.capacity", cal.id());
        cap = measure::calibrate_capacity(x.machine, x.cs, x.copts);
      }
      const auto span = tr.span("calibration.bandwidth", cal.id());
      bwc = measure::calibrate_bandwidth(x.machine, x.bw, s.calib_threads,
                                         env.seed);
    }
    measurer.emplace(*x.backend, cap, bwc);
    measurer->set_pool(x.pool.get());
    measurer->set_store(x.store->store(),
                        timed_checkpoint(x.store->checkpointer(), tr,
                                         sweep_span));
    {
      const auto span = tr.span("sweep", job);
      sweep_span = span.id();
      sweeps = measurer->sweep_grid(x.requests, x.cs, x.bw);
    }
    r.attempted += measurer->last_planned();
    {
      const auto span = tr.span("store.save", job);
      x.store->save();
    }
    {
      const auto span = tr.span("model.bounds", job);
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        bounds.push_back(measure::ActiveMeasurer::bounds(
            sweeps[i].storage, s.mappings[i]));
        bounds.push_back(measure::ActiveMeasurer::bounds(
            sweeps[i].bandwidth, s.mappings[i]));
      }
    }
    // sweep_grid assembled the sweeps itself: an empty stage here.
    tr.close(tr.open("assembly", job));
  } catch (const std::exception& e) {
    tr.close(job);
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    r.fail_job(std::string("bounds job threw: ") + e.what());
    return r;
  }
  tr.close(job);
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;

  // Checks, outside the timed job.
  const auto check = tr.span("check", -1);
  std::string extra;
  for (std::size_t k = 0; k < cap.available_bytes.size(); ++k) {
    extra += hexfloat(cap.available_bytes[k]) + " ";
    if (!std::isfinite(cap.available_bytes[k]))
      r.fail("capacity calibration level " + std::to_string(k) +
                 " not finite",
             per_level);
  }
  extra += hexfloat(bwc.peak_bytes_per_sec) + " ";
  if (!(std::isfinite(bwc.peak_bytes_per_sec) && bwc.peak_bytes_per_sec > 0))
    r.fail("bandwidth peak not finite and positive", 1);
  for (std::size_t k = 0; k < bwc.used_bytes_per_sec.size(); ++k) {
    extra += hexfloat(bwc.used_bytes_per_sec[k]) + " ";
    if (!(std::isfinite(bwc.used_bytes_per_sec[k]) &&
          bwc.used_bytes_per_sec[k] >= 0))
      r.fail("bandwidth calibration level " + std::to_string(k) +
                 " not finite",
             1);
  }
  for (const auto& b : bounds) {
    extra += hexfloat(b.lower) + " " + hexfloat(b.upper) + " ";
    if (!(std::isfinite(b.lower) && std::isfinite(b.upper)))
      r.fail_job("resource bounds not finite");
  }
  measure::ResultStore loaded;
  {
    const auto span = tr.span("store.load", check.id());
    loaded = measure::ResultStore::load(x.store->path());
  }
  {
    const auto span = tr.span("store.warm_sweep", check.id());
    measurer->set_store(&loaded);
    const auto warm = measurer->sweep_grid(x.requests, x.cs, x.bw);
    r.warm_executed = measurer->last_executed();
    const auto seconds = [](const std::vector<measure::GridSweeps>& g) {
      std::vector<double> out;
      for (const auto& y : g)
        for (const auto* sw : {&y.storage, &y.bandwidth})
          for (const auto& pt : sw->points) out.push_back(pt.seconds);
      return out;
    };
    if (seconds(warm) != seconds(sweeps))
      r.fail_job("warm re-sweep differs from the cold sweep");
  }
  if (r.warm_executed != 0)
    r.fail_job("warm re-sweep executed " + std::to_string(r.warm_executed) +
               " engine run(s)");
  check_records(*x.store->store(), r);
  r.digest = canonical_digest(*x.store->store(), env.dir, extra);
  if (env.capture)
    r.app_streams = capture_baseline(x.machine, env.seed, x.cs,
                                     x.first_factory, x.requests.front().name,
                                     *x.store->store(), r);
  return r;
}

/// Set-up alone, `count` more times: build the job's set-up, record its
/// host seconds, tear it down. Set-up is sub-millisecond, so one sample
/// per job would leave setup_s at the mercy of a single scheduler hiccup.
void sample_setups(const JobEnv& env, int count, std::vector<double>& out) {
  const int no_span = -1;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    if (env.workload == Workload::kMcbBounds) {
      const auto x = bounds_setup(env, no_span);
      out.push_back(seconds_since(t0));
    } else {
      const auto x = sweep_setup(env, no_span);
      out.push_back(seconds_since(t0));
    }
  }
}

/// One job in a fresh scratch directory, followed by `setup_samples`
/// set-up-only repetitions.
JobResult run_job(const JobEnv& env, int setup_samples) {
  fs::remove_all(env.dir);
  fs::create_directories(env.dir);
  JobResult r = env.workload == Workload::kMcbBounds ? bounds_job(env)
                                                     : sweep_job(env);
  r.setup_samples.push_back(r.setup_s);
  fs::remove_all(env.dir);  // the job's own set-up opened an empty store
  fs::create_directories(env.dir);
  sample_setups(env, setup_samples, r.setup_samples);
  fs::remove_all(env.dir);
  return r;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The committed digest for (workload, size) at the default seed, or "".
std::string reference_digest(const std::string& path,
                             const std::string& workload,
                             const std::string& size) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, sz, digest;
    if (fields >> w >> sz >> digest && w == workload && sz == size)
      return digest;
  }
  return {};
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void add_layer_costs(std::vector<Metric>& m, const perfbench::LayerCosts& c,
                     const std::string& label) {
  m.push_back({"sim.hierarchy.ns_per_access" + label,
               c.hierarchy_ns_per_access, "ns"});
  m.push_back({"sim.engine.ns_per_access" + label, c.engine_ns_per_access,
               "ns"});
  m.push_back({"sim.cache.l1.ns_per_access" + label, c.l1_ns_per_access,
               "ns"});
  m.push_back({"sim.cache.l2.ns_per_access" + label, c.l2_ns_per_access,
               "ns"});
  m.push_back({"sim.cache.l3.ns_per_access" + label, c.l3_ns_per_access,
               "ns"});
  m.push_back({"sim.prefetcher.ns_per_miss" + label, c.prefetcher_ns_per_miss,
               "ns"});
  m.push_back({"sim.backend.ns_per_transfer" + label,
               c.backend_ns_per_transfer, "ns"});
}

void add_sim_counts(std::vector<Metric>& m, const JobResult& r) {
  const auto& c = r.app;
  const std::uint64_t acc = c.accesses();
  m.push_back({"sim.accesses", static_cast<double>(acc), "count"});
  m.push_back({"sim.cycles", static_cast<double>(r.cycles), "count"});
  m.push_back({"sim.l1.hit_ratio", ratio(c.l1_hits, acc), "ratio"});
  m.push_back({"sim.l2.hit_ratio", ratio(c.l2_hits, acc - c.l1_hits),
               "ratio"});
  m.push_back({"sim.l3.hit_ratio", ratio(c.l3_hits, c.l3_accesses()),
               "ratio"});
  m.push_back({"sim.mem_accesses", static_cast<double>(c.mem_accesses),
               "count"});
  m.push_back({"sim.prefetch.issued", static_cast<double>(c.prefetch_issued),
               "count"});
  m.push_back(
      {"sim.prefetch.drop_ratio",
       ratio(c.prefetch_dropped, c.prefetch_issued + c.prefetch_dropped),
       "ratio"});
  m.push_back({"sim.writebacks", static_cast<double>(c.writebacks), "count"});
  m.push_back({"sim.l1_filter.hit_ratio",
               ratio(c.l1_filter_hits,
                     c.l1_filter_hits + c.l1_filter_fallthroughs),
               "ratio"});
  m.push_back({"sim.l2_filter.hit_ratio",
               ratio(c.l2_filter_hits,
                     c.l2_filter_hits + c.l2_filter_fallthroughs),
               "ratio"});
}

std::string sig(const JobResult& r) {
  std::string s = r.digest;
  for (const auto v : exact_counts(r.app, r.cycles, 0.0, false))
    s += ' ' + std::to_string(v);
  return s;
}

int run(const am::Cli& cli) {
  const std::string workload_name = cli.get("workload", "");
  const auto workload = parse_workload(workload_name);
  if (!workload)
    throw std::invalid_argument("unknown --workload '" + workload_name +
                                "' (mcb_sweep, lulesh_sweep, mcb_bounds)");
  const std::string size_name = cli.get("size", "full");
  if (size_name != "full" && size_name != "tiny")
    throw std::invalid_argument("--size must be full or tiny");
  const std::string work_dir = cli.get("work-dir", "");
  if (work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  const std::string reference = cli.get("reference", "");
  const double budget = cli.get_double("seconds", 10.0);
  const bool traced = cli.get_int("trace", 0) != 0;

  JobEnv env;
  env.workload = *workload;
  env.size = size_for(*workload, size_name == "tiny");
  env.seed = static_cast<std::uint64_t>(cli.get_int("seed", kDefaultSeed));
  env.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                        1, 4);
  const std::string run_id = workload_name + "-seed" +
                             std::to_string(env.seed) + "-pid" +
                             std::to_string(getpid());
  env.dir = fs::path(work_dir) / run_id;

  const auto start = Clock::now();
  Tracer off(false);
  Tracer on(true);
  std::vector<JobResult> jobs;
  if (traced) {
    // Untraced, traced, untraced: the tracing overhead is the traced
    // job's wall time against the mean of its two untraced neighbours.
    for (Tracer* tracer : {&off, &on, &off}) {
      env.tracer = tracer;
      env.capture = tracer == &on;
      jobs.push_back(run_job(env, 0));
    }
  } else {
    // Closed batch: untraced jobs until the budget is spent, at least two
    // so that two runs at the same seed can be compared.
    double longest = 0.0;
    env.tracer = &off;
    while (jobs.size() < 2 || seconds_since(start) + longest <= budget) {
      const auto job_start = Clock::now();
      jobs.push_back(run_job(env, kSetupSamples));
      longest = std::max(longest, seconds_since(job_start));
    }
  }

  // Exact-count guard: every job of the run — untraced and traced — must
  // reproduce the first job's simulated counts and digest bit for bit.
  for (std::size_t i = 1; i < jobs.size(); ++i)
    if (sig(jobs[i]) != sig(jobs.front()))
      jobs[i].fail_job("job " + std::to_string(i) +
                       " disagrees with job 0 at the same seed");
  if (env.seed == kDefaultSeed) {
    const std::string want =
        reference.empty() ? ""
                          : reference_digest(reference, workload_name,
                                             size_name);
    for (auto& j : jobs)
      if (j.digest != want)
        j.fail_job("canonical digest " + j.digest + " != reference '" + want +
                   "'");
  }
  std::cerr << "perfbench: " << workload_name << " size=" << size_name
            << " seed=" << env.seed << " digest=" << jobs.front().digest
            << "\n";

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& j : jobs) {
    attempted += j.attempted;
    failed += j.failed;
    for (const auto& e : j.errors)
      std::cerr << "perfbench: FAILED " << e << "\n";
  }

  std::vector<Metric> metrics;
  if (!traced) {
    std::vector<double> wall, setup, cpu, rate;
    for (const auto& j : jobs) {
      wall.push_back(j.wall_s);
      setup.insert(setup.end(), j.setup_samples.begin(),
                   j.setup_samples.end());
      cpu.push_back(j.cpu_s);
      rate.push_back(static_cast<double>(j.app.accesses()) / j.wall_s);
    }
    metrics = {{"wall_s", median(wall), "s"},
               {"setup_s", median(setup), "s"},
               {"cpu_s", median(cpu), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"sim_accesses_per_s", median(rate), "1/s"}};
    std::cerr << "perfbench: medians over " << jobs.size() << " jobs\n";
    for (const auto& j : jobs)
      std::cerr << "perfbench:   job wall_s " << j.wall_s << " setup_s "
                << j.setup_s << " cpu_s " << j.cpu_s << "\n";
  } else {
    const JobResult& t = jobs[1];
    const Size& s = env.size;
    const auto machine = machine_for(s);
    const double sweep_s = on.total("sweep");
    double point_sum = 0.0;
    for (const double p : t.point_seconds) point_sum += p;
    metrics = {
        {"measure.sweep.s", sweep_s, "s"},
        {"measure.point.s", median(t.point_seconds), "s"},
        {"measure.point.count", static_cast<double>(t.point_seconds.size()),
         "count"},
        {"measure.pool.busy_ratio",
         point_sum / (sweep_s * static_cast<double>(env.threads)), "ratio"},
        {"measure.calibration.capacity.s", on.total("calibration.capacity"),
         "s"},
        {"measure.calibration.bandwidth.s", on.total("calibration.bandwidth"),
         "s"},
        {"measure.calibration.probes", static_cast<double>(t.probes),
         "count"},
        {"measure.store.save.s", on.total("store.save"), "s"},
        {"measure.store.load.s", on.total("store.load"), "s"},
        {"measure.store.warm_sweep.s", on.total("store.warm_sweep"), "s"},
        {"measure.store.warm_executed", static_cast<double>(t.warm_executed),
         "count"},
        {"apps.build.s", on.total("apps.build"), "s"},
        {"apps.build.count", static_cast<double>(on.count("apps.build")),
         "count"},
        {"model.bounds.s", on.total("model.bounds"), "s"},
        {"trace.overhead_s",
         t.wall_s - 0.5 * (jobs[0].wall_s + jobs[2].wall_s), "s"},
    };
    add_sim_counts(metrics, t);
    const auto cs = cs_config(s.scale);
    const auto bw = bw_config(s.scale);
    const auto replay = [&](const std::vector<perfbench::CapturedStream>& x) {
      return perfbench::replay_layers(
          machine, perfbench::cap_streams(x, s.replay_records), env.seed, 5);
    };
    add_layer_costs(metrics, replay(t.app_streams), "");
    add_layer_costs(metrics,
                    replay(perfbench::capture_interference(
                        machine, false, cs, bw, s.interference_window,
                        env.seed)),
                    ".csthr");
    add_layer_costs(metrics,
                    replay(perfbench::capture_interference(
                        machine, true, cs, bw, s.interference_window,
                        env.seed)),
                    ".bwthr");
    const auto spans = (fs::path(work_dir) / ("spans-" + run_id + ".tsv"));
    on.write(spans.string(), run_id);
    std::cerr << "perfbench: spans written to " << spans.string() << "\n";
  }

  bool correct = failed == 0;
  for (auto& m : metrics)
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: FAILED metric " << m.name << " not finite\n";
      m.value = 0.0;
      correct = false;
    }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const am::Cli cli(argc, argv);
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
