// Domain scenario 3: the host-native deployment path. Runs a real
// workload on *this* machine under the paper's actual interference
// threads (Fig. 2 / Fig. 3 code), timing it with and without them — the
// same measurement a user would make on a dedicated Xeon node. Hardware
// counters are used when the kernel permits (perf_event_open), and
// skipped gracefully otherwise.
//
// Build & run:  ./build/examples/host_probe [buffer-mb] [threads]
// (digits only; anything else exits 2).
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/record.hpp"
#include "measure/host_backend.hpp"
#include "measure/lease.hpp"

namespace {

/// A cache-sensitive workload: repeated random-ish walks over a buffer.
double run_walk(std::vector<std::uint32_t>& buf, int passes) {
  std::uint64_t acc = 0;
  const std::size_t n = buf.size();
  std::size_t idx = 0;
  for (int p = 0; p < passes; ++p)
    for (std::size_t i = 0; i < n; ++i) {
      idx = (idx * 1103515245 + 12345) % n;
      acc += buf[idx];
    }
  return static_cast<double>(acc);
}

/// Positional argument `i` by the record codec's unsigned rule, or `def`
/// when absent. Throws std::invalid_argument (exit 2) on anything else:
/// "abc" must not quietly become a 0-MB buffer or 0 threads.
std::uint64_t count_arg(int argc, char** argv, int i, const char* what,
                        std::uint64_t def, std::uint64_t max) {
  if (argc <= i) return def;
  const auto v = am::record::parse_u64(argv[i]);
  if (!v || *v > max)
    throw std::invalid_argument(std::string(what) +
                                ": expected an integer in [0, " +
                                std::to_string(max) + "], got '" + argv[i] +
                                "'");
  return *v;
}

int probe(int argc, char** argv) {
  const std::uint64_t buffer_mb =
      count_arg(argc, argv, 1, "buffer-mb", 8, UINT64_MAX / (1024 * 1024));
  const auto max_threads = static_cast<std::uint32_t>(
      count_arg(argc, argv, 2, "threads", 3, UINT32_MAX));

  std::vector<std::uint32_t> buf(buffer_mb * 1024 * 1024 / 4);
  std::iota(buf.begin(), buf.end(), 0u);

  am::measure::HostBackend backend;
  volatile double sink = 0.0;

  std::printf("Host probe: %llu MB random walk vs CSThr interference\n",
              static_cast<unsigned long long>(buffer_mb));
  double baseline = 0.0;
  for (std::uint32_t k = 0; k <= max_threads; ++k) {
    am::measure::HostRunOptions opts;
    opts.resource = am::measure::Resource::kCacheStorage;
    opts.count = k;
    const auto result =
        backend.run([&] { sink = run_walk(buf, 3); }, opts);
    if (k == 0) baseline = result.seconds;
    std::printf("  %u CSThr(s): %7.1f ms (%.1f%% slowdown)", k,
                result.seconds * 1e3,
                (result.seconds / baseline - 1.0) * 100.0);
    if (result.counters)
      std::printf("  [LLC miss rate %.3f]",
                  result.counters->cache_miss_rate());
    else if (k == 0)
      std::printf("  [perf counters unavailable here]");
    std::printf("\n");
  }
  std::printf(
      "\nNote: in a container or on a busy machine these numbers are\n"
      "noisy; on a quiet multi-core host the slowdown onset marks the\n"
      "walk's shared-cache footprint, as in the paper's Fig. 1.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::measure::run_worker_main("host_probe",
                                      [&] { return probe(argc, argv); });
}
