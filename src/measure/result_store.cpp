#include "measure/result_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/fingerprint.hpp"
#include "common/record.hpp"
#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

constexpr const char* kHeader = "#am-result-store v1";
// Run-time sidecar (`<path>.times`): "fp <tab> hexfloat-seconds" per
// line. Separate from the canonical TSV on purpose — wall-clocks differ
// run to run, and the canonical file's bytes must not.
constexpr const char* kTimesHeader = "#am-run-times v1";
// key-fp host machine workload resource threads spec seed max_cycles
// seconds cycles + 12 counters + miss-rate app-bw total-bw ithreads
// timed_out.
constexpr std::size_t kColumns = 28;

[[noreturn]] void fail(const std::string& path, std::size_t line,
                       const std::string& why) {
  throw std::runtime_error("ResultStore: " + path + ":" +
                           std::to_string(line) + ": " + why);
}

std::uint64_t u64_field(std::string_view s, const std::string& path,
                        std::size_t line) {
  if (const auto v = record::parse_u64(s)) return *v;
  fail(path, line, "bad integer field '" + std::string(s) +
                       "' (digits only, within 64 bits)");
}

double double_field(std::string_view s, const std::string& path,
                    std::size_t line) {
  if (const auto v = record::parse_double(s)) return *v;
  fail(path, line, "bad floating-point field '" + std::string(s) + "'");
}

Resource parse_resource(std::string_view s, const std::string& path,
                        std::size_t line) {
  for (const auto r : {Resource::kCacheStorage, Resource::kBandwidth})
    if (s == resource_name(r)) return r;
  fail(path, line, "unknown resource '" + std::string(s) + "'");
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Field-by-field bitwise equality (memcmp over the whole struct would
/// also compare padding bytes, which are unspecified).
bool bits_equal(const SimRunResult& a, const SimRunResult& b) {
  return bits_equal(a.seconds, b.seconds) && a.cycles == b.cycles &&
         a.app.loads == b.app.loads && a.app.stores == b.app.stores &&
         a.app.l1_hits == b.app.l1_hits && a.app.l2_hits == b.app.l2_hits &&
         a.app.l3_hits == b.app.l3_hits &&
         a.app.mem_accesses == b.app.mem_accesses &&
         a.app.prefetch_issued == b.app.prefetch_issued &&
         a.app.prefetch_dropped == b.app.prefetch_dropped &&
         a.app.writebacks == b.app.writebacks &&
         a.app.bytes_from_mem == b.app.bytes_from_mem &&
         a.app.compute_cycles == b.app.compute_cycles &&
         a.app.stall_cycles == b.app.stall_cycles &&
         bits_equal(a.app_l3_miss_rate, b.app_l3_miss_rate) &&
         bits_equal(a.app_mem_bandwidth, b.app_mem_bandwidth) &&
         bits_equal(a.total_mem_bandwidth, b.total_mem_bandwidth) &&
         a.interference_threads == b.interference_threads &&
         a.timed_out == b.timed_out;
}

}  // namespace

std::string machine_fingerprint(const sim::MachineConfig& m) {
  Fingerprint fp;
  fp.mix(kResultEpoch)
      .mix(m.name)
      .mix(m.nodes)
      .mix(m.sockets_per_node)
      .mix(m.cores_per_socket)
      .mix(m.frequency_ghz);
  for (const auto* c : {&m.l1, &m.l2, &m.l3})
    fp.mix(c->size_bytes)
        .mix(c->line_bytes)
        .mix(c->ways)
        .mix(c->insert_age)
        .mix(c->replacement);
  fp.mix(m.l1_latency)
      .mix(m.l2_latency)
      .mix(m.l3_latency)
      .mix(m.mem_latency)
      .mix(m.mem_bandwidth_bytes_per_sec)
      .mix(m.writeback_cost_factor)
      .mix(m.link_bandwidth_bytes_per_sec)
      .mix(m.link_latency)
      .mix(m.max_outstanding_misses)
      .mix(m.l3_hint_interval)
      .mix(m.prefetcher.num_streams)
      .mix(m.prefetcher.degree)
      .mix(m.prefetcher.confirm_threshold)
      .mix(m.prefetcher.max_stride_lines)
      .mix(m.prefetcher.page_lines)
      .mix(m.prefetcher.enabled);
  // The memory backend changes simulated results, so it must key results
  // — but only when it deviates from the default: mixing nothing for
  // kChannel keeps every pre-backend fingerprint (and the cached results
  // stored under it) valid.
  if (m.mem_backend != sim::MemBackendKind::kChannel) {
    fp.mix(static_cast<std::uint32_t>(m.mem_backend))
        .mix(m.dram.channels)
        .mix(m.dram.banks)
        .mix(m.dram.row_bytes)
        .mix(m.dram.t_rcd)
        .mix(m.dram.t_rp)
        .mix(m.dram.t_cas)
        .mix(m.dram.base_latency)
        .mix(m.dram.refresh_interval)
        .mix(m.dram.refresh_cycles);
  }
  // The set-index hash changes line placement (H3 reshuffles every set
  // mapping), so it keys results too — same default-elision as the
  // backend: kMask mixes nothing so pre-existing fingerprints stay valid.
  if (m.set_hash != sim::SetHash::kMask)
    fp.mix(static_cast<std::uint32_t>(m.set_hash));
  return fp.hex();
}

std::string store_path(const std::string& results_dir,
                       const std::string& driver, ShardRange shard) {
  std::string name = driver;
  if (shard.sharded())
    name += ".shard" + std::to_string(shard.index) + "of" +
            std::to_string(shard.count);
  return (std::filesystem::path(results_dir) / (name + ".tsv")).string();
}

std::string spec_signature(const InterferenceSpec& spec) {
  if (spec.count == 0) return "none";
  std::ostringstream out;
  if (spec.resource == Resource::kCacheStorage)
    out << "cs:b" << spec.cs.buffer_bytes << ":n" << spec.cs.batch_size;
  else
    out << "bw:b" << spec.bw.buffer_bytes << ":n" << spec.bw.num_buffers
        << ":s" << spec.bw.line_stride << ":i" << spec.bw.index_compute_cycles
        << ":g" << spec.bw.buffers_per_step;
  out << ":w" << spec.warmup_cycles;
  return out.str();
}

ScenarioKey ScenarioKey::make(std::string machine, std::string workload,
                              Resource resource, std::uint32_t threads,
                              std::string spec, std::uint64_t seed,
                              std::uint64_t max_cycles) {
  ScenarioKey key;
  key.machine = std::move(machine);
  key.workload = std::move(workload);
  // A baseline runs no interference agents, so its nominal resource and
  // interference configuration cannot affect the result; normalize them
  // away exactly like ResultTable keys do.
  key.resource = threads == 0 ? Resource::kCacheStorage : resource;
  key.threads = threads;
  key.spec = threads == 0 ? "none" : std::move(spec);
  key.seed = seed;
  key.max_cycles = max_cycles;
  return key;
}

std::string ScenarioKey::fingerprint() const {
  Fingerprint fp;
  fp.mix(machine)
      .mix(workload)
      .mix(resource)
      .mix(threads)
      .mix(spec)
      .mix(seed)
      .mix(max_cycles);
  return fp.hex();
}

ResultStore ResultStore::load(const std::string& path,
                              const StoreLoadOptions& opts) {
  const auto text = record::read_file(path);
  if (!text) throw std::runtime_error("ResultStore: cannot open " + path);

  std::string_view rest = *text, line;
  std::size_t lineno = 1;
  // Tolerated on top of the record rules: CRLF line ends.
  const auto strip_cr = [](std::string_view& s) {
    if (!s.empty() && s.back() == '\r') s.remove_suffix(1);
  };
  if (!record::next_line(rest, line))
    fail(path, lineno, "empty file (no header)");
  strip_cr(line);
  if (line != kHeader) {
    if (line.rfind("#am-result-store", 0) == 0)
      fail(path, lineno,
           "format version mismatch: file says '" + std::string(line) +
               "', this build reads v" + std::to_string(kFormatVersion) +
               " — re-run the sweep or convert the store");
    fail(path, lineno, "not a result store (missing '" +
                           std::string(kHeader) + "' header)");
  }

  ResultStore store;
  while (record::next_line(rest, line)) {
    ++lineno;
    strip_cr(line);
    if (line.empty() || line[0] == '#') continue;  // comments permitted
    const auto cols = record::split_tabs(line);
    if (cols.size() != kColumns)
      fail(path, lineno,
           "expected " + std::to_string(kColumns) + " fields, got " +
               std::to_string(cols.size()));

    ResultRecord rec;
    rec.host = cols[1];
    rec.key.machine = cols[2];
    rec.key.workload = cols[3];
    rec.key.resource = parse_resource(cols[4], path, lineno);
    rec.key.threads =
        static_cast<std::uint32_t>(u64_field(cols[5], path, lineno));
    rec.key.spec = cols[6];
    rec.key.seed = u64_field(cols[7], path, lineno);
    rec.key.max_cycles = u64_field(cols[8], path, lineno);

    auto& r = rec.result;
    r.seconds = double_field(cols[9], path, lineno);
    r.cycles = u64_field(cols[10], path, lineno);
    auto& c = r.app;
    c.loads = u64_field(cols[11], path, lineno);
    c.stores = u64_field(cols[12], path, lineno);
    c.l1_hits = u64_field(cols[13], path, lineno);
    c.l2_hits = u64_field(cols[14], path, lineno);
    c.l3_hits = u64_field(cols[15], path, lineno);
    c.mem_accesses = u64_field(cols[16], path, lineno);
    c.prefetch_issued = u64_field(cols[17], path, lineno);
    c.prefetch_dropped = u64_field(cols[18], path, lineno);
    c.writebacks = u64_field(cols[19], path, lineno);
    c.bytes_from_mem = u64_field(cols[20], path, lineno);
    c.compute_cycles = u64_field(cols[21], path, lineno);
    c.stall_cycles = u64_field(cols[22], path, lineno);
    r.app_l3_miss_rate = double_field(cols[23], path, lineno);
    r.app_mem_bandwidth = double_field(cols[24], path, lineno);
    r.total_mem_bandwidth = double_field(cols[25], path, lineno);
    r.interference_threads = u64_field(cols[26], path, lineno);
    const auto timed_out = u64_field(cols[27], path, lineno);
    if (timed_out > 1) fail(path, lineno, "timed_out must be 0 or 1");
    r.timed_out = timed_out != 0;

    if (rec.key.fingerprint() != cols[0])
      fail(path, lineno,
           "fingerprint mismatch (stored " + std::string(cols[0]) +
               ", fields hash to " +
               rec.key.fingerprint() + ") — record was edited or corrupted");
    if (!opts.expect_host.empty() && rec.host != opts.expect_host)
      fail(path, lineno,
           "host fingerprint mismatch: record was measured on host " +
               rec.host + ", expected " + opts.expect_host +
               " — refusing to mix machines' numbers");
    if (!opts.expect_machine.empty() && rec.key.machine != opts.expect_machine)
      fail(path, lineno,
           "simulated-machine fingerprint mismatch: record is for machine " +
               rec.key.machine + ", expected " + opts.expect_machine);

    const auto [it, inserted] =
        store.records_.emplace(std::string(cols[0]), rec);
    if (!inserted && !(it->second.key == rec.key))
      fail(path, lineno, "fingerprint collision between two distinct keys");
    if (!inserted && !bits_equal(it->second.result, rec.result))
      // Hand-concatenated shard files, not `amresult merge`: the same
      // scenario appears twice with different numbers. Refuse to pick.
      fail(path, lineno,
           "duplicate record for scenario '" + rec.key.workload + "' × " +
               resource_name(rec.key.resource) + " × " +
               std::to_string(rec.key.threads) +
               " threads with conflicting results — one of them is stale");
  }

  // Run-time sidecar: best effort. A missing, stale, or malformed sidecar
  // only costs scheduling accuracy, so unlike the canonical file it is
  // never a load error; entries for unknown fingerprints are ignored.
  if (const auto times = record::read_file(path + ".times")) {
    rest = *times;
    if (record::take_header(rest, kTimesHeader))
      while (record::next_line(rest, line)) {
        strip_cr(line);
        const auto cols = record::split_tabs(line);
        if (cols.size() != 2) continue;
        const auto it = store.records_.find(std::string(cols[0]));
        if (it == store.records_.end()) continue;
        const auto v = record::parse_double(cols[1]);
        if (v && *v >= 0.0) it->second.run_seconds = *v;
      }
  }
  return store;
}

ResultStore ResultStore::load_or_empty(const std::string& path,
                                       const StoreLoadOptions& opts) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return {};
  return load(path, opts);
}

bool ResultStore::has(const ScenarioKey& key) const {
  return find(key) != nullptr;
}

const SimRunResult* ResultStore::find(const ScenarioKey& key) const {
  const auto it = records_.find(key.fingerprint());
  if (it == records_.end() || !(it->second.key == key)) return nullptr;
  return &it->second.result;
}

void ResultStore::put(const ScenarioKey& key, const SimRunResult& result,
                      std::string host, double run_seconds) {
  for (const auto* field : {&key.workload, &key.machine, &key.spec})
    if (field->find_first_of("\t\n\r") != std::string::npos)
      throw std::invalid_argument(
          "ResultStore: key field contains tab/newline: '" + *field + "'");
  if (host.empty())
    host = interfere::HostIdentity::detect().fingerprint();
  const auto fp = key.fingerprint();
  const auto it = records_.find(fp);
  if (it != records_.end() && !(it->second.key == key))
    throw std::runtime_error(
        "ResultStore: fingerprint collision between distinct keys (" +
        it->second.key.workload + " vs " + key.workload + ")");
  records_[fp] = ResultRecord{key, std::move(host), result, run_seconds};
}

double ResultStore::run_seconds(const ScenarioKey& key) const {
  const auto it = records_.find(key.fingerprint());
  if (it == records_.end() || !(it->second.key == key)) return 0.0;
  return it->second.run_seconds;
}

void ResultStore::merge(const ResultStore& other) {
  for (const auto& [fp, rec] : other.records_) {
    const auto it = records_.find(fp);
    if (it == records_.end()) {
      records_.emplace(fp, rec);
      continue;
    }
    // Run times are hints, not payload: keep ours when known, otherwise
    // adopt the other store's (merge order is fixed by the caller, so
    // this stays deterministic).
    if (it->second.run_seconds <= 0.0 && rec.run_seconds > 0.0)
      it->second.run_seconds = rec.run_seconds;
    if (!(it->second.key == rec.key))
      throw std::runtime_error(
          "ResultStore::merge: fingerprint collision between distinct keys");
    // Bitwise payload agreement: sim runs are deterministic, so two stores
    // holding the same key must hold the same numbers. Disagreement means
    // a stale store or a mislabeled workload — refuse to pick a winner.
    if (!bits_equal(it->second.result, rec.result))
      throw std::runtime_error(
          "ResultStore::merge: conflicting results for scenario '" +
          rec.key.workload + "' × " + resource_name(rec.key.resource) +
          " × " + std::to_string(rec.key.threads) +
          " threads — stores disagree; one of them is stale");
  }
}

void ResultStore::save(const std::string& path) const {
  std::ostringstream out;
  out << kHeader << '\n';
  for (const auto& [fp, rec] : records_) {
    const auto& r = rec.result;
    const auto& c = r.app;
    out << fp << '\t' << rec.host << '\t' << rec.key.machine << '\t'
        << rec.key.workload << '\t' << resource_name(rec.key.resource)
        << '\t' << rec.key.threads << '\t' << rec.key.spec << '\t'
        << rec.key.seed << '\t' << rec.key.max_cycles << '\t'
        << record::hexfloat(r.seconds) << '\t' << r.cycles
        << '\t' << c.loads << '\t' << c.stores << '\t' << c.l1_hits << '\t'
        << c.l2_hits << '\t' << c.l3_hits << '\t' << c.mem_accesses << '\t'
        << c.prefetch_issued << '\t' << c.prefetch_dropped << '\t'
        << c.writebacks << '\t' << c.bytes_from_mem << '\t'
        << c.compute_cycles << '\t' << c.stall_cycles << '\t'
        << record::hexfloat(r.app_l3_miss_rate) << '\t'
        << record::hexfloat(r.app_mem_bandwidth) << '\t'
        << record::hexfloat(r.total_mem_bandwidth) << '\t'
        << r.interference_threads << '\t' << (r.timed_out ? 1 : 0) << '\n';
  }
  // Atomic: a worker killed mid-save must not leave a torn store file for
  // the next (cached or merging) reader to choke on.
  atomic_write_file(path, out.str(), "ResultStore");

  // Sidecar with the known run times, best effort: losing it costs the
  // scheduler its measured costs (it falls back to the heuristic), never
  // a result.
  std::ostringstream times;
  times << kTimesHeader << '\n';
  bool any = false;
  for (const auto& [fp, rec] : records_)
    if (rec.run_seconds > 0.0) {
      times << fp << '\t' << record::hexfloat(rec.run_seconds) << '\n';
      any = true;
    }
  if (any) try_atomic_write_file(path + ".times", times.str());
}

std::vector<const ResultRecord*> ResultStore::records() const {
  std::vector<const ResultRecord*> out;
  out.reserve(records_.size());
  for (const auto& [fp, rec] : records_) out.push_back(&rec);
  return out;
}

std::vector<std::string> ResultStore::hosts() const {
  std::vector<std::string> out;
  for (const auto& [fp, rec] : records_)
    if (std::find(out.begin(), out.end(), rec.host) == out.end())
      out.push_back(rec.host);
  return out;
}

std::function<void(const ResultStore&)> checkpoint_to(
    std::string path, double min_interval_seconds) {
  using Clock = std::chrono::steady_clock;
  // Shared across std::function copies so every copy honors one throttle.
  // `nullopt` = never saved: the first completed point always reaches disk.
  // (An epoch-initialized time_point would not do — steady_clock counts
  // from boot, so on a host up for less than the interval the first save
  // would be wrongly throttled away.)
  auto last = std::make_shared<std::optional<Clock::time_point>>();
  return [path = std::move(path), min_interval_seconds,
          last](const ResultStore& store) {
    const auto now = Clock::now();
    if (*last &&
        now - **last < std::chrono::duration<double>(min_interval_seconds))
      return;
    *last = now;
    store.save(path);
  };
}

ResultStoreFile::ResultStoreFile(const std::string& results_dir,
                                 const std::string& driver, ShardRange shard)
    : shard_(shard), driver_(driver), results_dir_(results_dir) {
  if (results_dir.empty()) {
    if (shard.sharded())
      throw std::invalid_argument(
          "--shard requires --results-dir: a shard's only output is its "
          "store file");
    return;
  }
  std::filesystem::create_directories(results_dir);
  path_ = store_path(results_dir, driver, shard);
  store_ = ResultStore::load_or_empty(path_);
}

ResultStoreFile ResultStoreFile::for_lease(const std::string& results_dir,
                                           const std::string& driver,
                                           const std::string& lease_path) {
  if (lease_path.empty())
    throw std::invalid_argument(
        "ResultStoreFile: a lease worker needs a --lease path");
  ResultStoreFile file(results_dir, driver);
  file.path_ = lease_store_path(lease_path);
  ResultStore mine = ResultStore::load_or_empty(file.path_);
  // Seed order matters for determinism of run-time hints: this lease's
  // own records win over the canonical cache already loaded by the
  // delegated constructor (file.store_ may be empty when results_dir is
  // unset — a standalone lease worker has no canonical cache).
  mine.merge(file.store_);
  file.store_ = std::move(mine);
  return file;
}

void ResultStoreFile::save() {
  if (path_.empty()) return;
  store_.save(path_);
}

std::function<void(const ResultStore&)> ResultStoreFile::checkpointer(
    double min_interval_seconds) const {
  if (path_.empty()) return nullptr;
  return checkpoint_to(path_, min_interval_seconds);
}

bool ResultStoreFile::finish(std::size_t executed, std::size_t planned,
                             std::ostream& out) {
  if (path_.empty()) return false;
  store_.save(path_);
  // `reused` counts this invocation's cache hits only — the store may
  // also hold records of other machines/grids, which were neither.
  const std::size_t reused = planned > executed ? planned - executed : 0;
  out << "results: " << store_.size() << " records in " << path_ << " ("
      << executed << " executed, " << reused << " reused)\n";
  if (!shard_.sharded()) return false;
  out << "shard " << shard_.index << "/" << shard_.count
      << " complete; merge all shards with\n  amresult merge --out "
      << store_path(results_dir_, driver_) << " "
      << store_path(results_dir_, driver_, {0, shard_.count})
      << " ...\nthen re-run without --shard to print the figure from "
         "cache.\n";
  return true;
}

}  // namespace am::measure
