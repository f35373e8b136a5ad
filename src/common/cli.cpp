#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "common/record.hpp"

namespace am {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const auto s = get(name, "");
  if (s.empty()) return def;
  // Full-string validation: "abc", "12abc" and out-of-range values must
  // throw, not quietly become 0 — a typo'd --reps must never run a 0-rep
  // sweep. (A value-less "--reps" parses as "true" and lands here too.)
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0')
    throw std::invalid_argument("--" + name + ": expected an integer, got '" +
                                s + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("--" + name + ": integer out of range: '" +
                                s + "'");
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  const auto s = get(name, "");
  if (s.empty()) return def;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                s + "'");
  // Only overflow is an error: ERANGE also fires for underflow to a
  // subnormal (e.g. 1e-320), which strtod still parses to a usable value.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
    throw std::invalid_argument("--" + name + ": number out of range: '" + s +
                                "'");
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto s = get(name, "");
  if (s.empty()) return def;
  return s == "true" || s == "1" || s == "yes" || s == "on";
}

ShardRange Cli::get_shard(const std::string& name) const {
  const auto s = get(name, "");
  if (s.empty()) return {};
  // Exactly <digits>/<digits> by the record codec's unsigned rule: no
  // sign characters, which strtoull would otherwise accept and wrap
  // around (a typo like 1/-4 must not silently become shard 1 of
  // 2^64-4), and no overflow.
  const std::string_view v = s;
  const auto slash = v.find('/');
  const auto index = record::parse_u64(v.substr(0, slash));
  const auto count = slash == std::string_view::npos
                         ? std::nullopt
                         : record::parse_u64(v.substr(slash + 1));
  if (!index || !count)
    throw std::invalid_argument("--" + name + ": expected i/n, got '" + s +
                                "'");
  if (*count == 0)
    throw std::invalid_argument("--" + name + ": bad shard count in '" + s +
                                "'");
  if (*index >= *count)
    throw std::invalid_argument("--" + name + ": index " +
                                std::to_string(*index) + " out of range for " +
                                std::to_string(*count) + " shards");
  return {static_cast<std::size_t>(*index), static_cast<std::size_t>(*count)};
}

double Cli::get_seconds(const std::string& name, double def) const {
  const double v = get_double(name, def);
  if (!std::isfinite(v) || v < 0.0)
    throw std::invalid_argument("--" + name +
                                " must be a finite value >= 0");
  return v;
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_)
    if (!queried_.count(name)) out.push_back(name);
  return out;
}

void Cli::reject_unused() const {
  if (const auto unknown = unused(); !unknown.empty())
    throw std::invalid_argument("unknown flag --" + unknown.front());
}

}  // namespace am
