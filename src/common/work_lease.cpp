#include "common/work_lease.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/record.hpp"

namespace am {

namespace {

constexpr const char* kLeaseHeader = "#am-work-lease v1";
constexpr const char* kAckHeader = "#am-lease-ack v1";
constexpr const char* kPlanHeader = "#am-plan-info v1";

/// Field `i` of a split line; empty (which no value parser accepts) when
/// the line is shorter.
std::string_view field(const std::vector<std::string_view>& f,
                       std::size_t i) {
  return i < f.size() ? f[i] : std::string_view{};
}

}  // namespace

std::vector<WorkLease> make_batches(std::size_t points, std::size_t count,
                                    const std::vector<double>& costs) {
  if (count == 0)
    throw std::invalid_argument("make_batches: count must be >= 1");
  if (!costs.empty() && costs.size() != points)
    throw std::invalid_argument(
        "make_batches: cost model has " + std::to_string(costs.size()) +
        " entries for " + std::to_string(points) + " points");
  for (const double c : costs)
    if (!(c >= 0.0) || c > std::numeric_limits<double>::max())
      throw std::invalid_argument(
          "make_batches: cost entries must be finite and >= 0");

  // Greedy LPT; every ordering is stable (ties by plan index, then by
  // batch index), so the assignment is a pure function of its inputs —
  // and the uniform-cost case collapses to round-robin exactly.
  std::vector<std::size_t> order(points);
  for (std::size_t i = 0; i < points; ++i) order[i] = i;
  if (!costs.empty())
    std::stable_sort(
        order.begin(), order.end(),
        [&](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });

  std::vector<WorkLease> out(count);
  for (std::size_t b = 0; b < count; ++b) out[b].id = b;
  for (const std::size_t i : order) {
    std::size_t lightest = 0;
    for (std::size_t b = 1; b < count; ++b)
      if (out[b].cost < out[lightest].cost) lightest = b;
    out[lightest].points.push_back(i);
    out[lightest].cost += costs.empty() ? 1.0 : costs[i];
  }
  // Ascending plan indices within a batch: results are order-independent,
  // but readable leases and cheap coverage checks are not.
  for (auto& lease : out) std::sort(lease.points.begin(), lease.points.end());
  return out;
}

std::string lease_ack_path(const std::string& lease_path) {
  return lease_path + ".ack";
}

std::string lease_store_path(const std::string& lease_path) {
  return lease_path + ".tsv";
}

std::string lease_heartbeat_path(const std::string& lease_path) {
  return lease_path + ".hb";
}

void write_lease_offer(const std::string& path, const LeaseOffer& offer) {
  std::ostringstream out;
  out << kLeaseHeader << '\n';
  out << "lease\t" << offer.lease.id << '\n';
  out << "done\t" << (offer.done ? 1 : 0) << '\n';
  out << "cost\t" << record::hexfloat(offer.lease.cost) << '\n';
  // Daemon-only fields, omitted when empty so single-plan lease files
  // stay byte-identical to what PR-5 workers expect. Paths may not
  // contain tabs or newlines — the format has no escaping.
  if (!offer.plan_path.empty()) out << "plan\t" << offer.plan_path << '\n';
  if (!offer.store_path.empty()) out << "store\t" << offer.store_path << '\n';
  if (!offer.seed_store_path.empty())
    out << "seed_store\t" << offer.seed_store_path << '\n';
  out << "points";
  for (const auto p : offer.lease.points) out << '\t' << p;
  out << '\n';
  atomic_write_file(path, out.str(), "work-lease");
}

std::optional<LeaseOffer> read_lease_offer(const std::string& path) {
  const auto text = record::read_file(path);
  if (!text) return std::nullopt;
  std::string_view rest = *text, line;
  if (!record::take_header(rest, kLeaseHeader)) return std::nullopt;
  LeaseOffer offer;
  bool saw_lease = false, saw_done = false, saw_points = false;
  while (record::next_line(rest, line)) {
    if (line.empty()) continue;
    const auto f = record::split_tabs(line);
    const std::string_view key = f[0];
    if (key == "lease") {
      const auto id = record::parse_u64(field(f, 1));
      if (!id) return std::nullopt;
      offer.lease.id = *id;
      saw_lease = true;
    } else if (key == "done") {
      const std::string_view v = field(f, 1);
      if (v != "0" && v != "1") return std::nullopt;
      offer.done = v == "1";
      saw_done = true;
    } else if (key == "cost") {
      const auto cost = record::parse_double(field(f, 1));
      if (!cost) return std::nullopt;
      offer.lease.cost = *cost;
    } else if (key == "plan" || key == "store" || key == "seed_store") {
      // Path values run to end of line (spaces are legal in paths; tabs
      // and newlines are not — the writer has no escaping).
      const std::string value(record::split_key(line).second);
      if (value.empty()) return std::nullopt;
      if (key == "plan")
        offer.plan_path = value;
      else if (key == "store")
        offer.store_path = value;
      else
        offer.seed_store_path = value;
    } else if (key == "points") {
      for (std::size_t i = 1; i < f.size(); ++i) {
        const auto p = record::parse_u64(f[i]);
        if (!p) return std::nullopt;
        offer.lease.points.push_back(static_cast<std::size_t>(*p));
      }
      saw_points = true;
    }
  }
  if (!saw_lease || !saw_done || !saw_points) return std::nullopt;
  return offer;
}

void write_lease_ack(const std::string& path, const LeaseAck& ack) {
  std::ostringstream out;
  out << kAckHeader << '\n';
  out << "lease\t" << ack.lease_id << '\n';
  out << "points\t" << ack.points << '\n';
  out << "executed\t" << ack.executed << '\n';
  out << "wall\t" << record::hexfloat(ack.wall_seconds) << '\n';
  atomic_write_file(path, out.str(), "lease-ack");
}

std::optional<LeaseAck> read_lease_ack(const std::string& path) {
  const auto text = record::read_file(path);
  if (!text) return std::nullopt;
  std::string_view rest = *text, line;
  if (!record::take_header(rest, kAckHeader)) return std::nullopt;
  LeaseAck ack;
  bool saw_lease = false;
  while (record::next_line(rest, line)) {
    if (line.empty()) continue;
    const auto f = record::split_tabs(line);
    if (f.size() < 2) return std::nullopt;  // every line is key + value
    const std::string_view key = f[0];
    if (key == "wall") {
      const auto wall = record::parse_double(f[1]);
      if (!wall) return std::nullopt;
      ack.wall_seconds = *wall;
    } else if (key == "lease" || key == "points" || key == "executed") {
      const auto u = record::parse_u64(f[1]);
      if (!u) return std::nullopt;
      if (key == "lease") {
        ack.lease_id = *u;
        saw_lease = true;
      } else if (key == "points") {
        ack.points = static_cast<std::size_t>(*u);
      } else {
        ack.executed = static_cast<std::size_t>(*u);
      }
    }
  }
  if (!saw_lease) return std::nullopt;
  return ack;
}

void write_plan_info(const std::string& path, const PlanInfo& info) {
  std::ostringstream out;
  out << kPlanHeader << '\n';
  out << "points\t" << info.points << '\n';
  for (std::size_t i = 0; i < info.costs.size(); ++i)
    out << "cost\t" << i << '\t' << record::hexfloat(info.costs[i]) << '\n';
  atomic_write_file(path, out.str(), "plan-info");
}

std::optional<PlanInfo> read_plan_info(const std::string& path) {
  const auto text = record::read_file(path);
  if (!text) return std::nullopt;
  std::string_view rest = *text, line;
  if (!record::take_header(rest, kPlanHeader)) return std::nullopt;
  PlanInfo info;
  bool saw_points = false;
  std::vector<std::pair<std::uint64_t, double>> costs;
  while (record::next_line(rest, line)) {
    if (line.empty()) continue;
    const auto f = record::split_tabs(line);
    if (f[0] == "points") {
      const auto n = record::parse_u64(field(f, 1));
      if (!n) return std::nullopt;
      info.points = static_cast<std::size_t>(*n);
      saw_points = true;
    } else if (f[0] == "cost") {
      const auto i = record::parse_u64(field(f, 1));
      const auto c = record::parse_double(field(f, 2));
      if (!i || !c) return std::nullopt;
      costs.emplace_back(*i, *c);
    }
  }
  if (!saw_points) return std::nullopt;
  // Costs are optional as a block but must cover the plan exactly once
  // per point when present. Sizing anything from the unverified `points`
  // count alone would let one hostile line demand an allocation of any
  // size; the cost lines themselves are bounded by the file.
  if (!costs.empty()) {
    if (costs.size() != info.points) return std::nullopt;
    std::stable_sort(costs.begin(), costs.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    info.costs.reserve(costs.size());
    for (std::size_t i = 0; i < costs.size(); ++i) {
      if (costs[i].first != i) return std::nullopt;  // gap or duplicate
      info.costs.push_back(costs[i].second);
    }
  }
  return info;
}

}  // namespace am
