// The three lease-handoff formats of common/work_lease — offers, acks and
// plan-info probes — read and written directly: round trips (offers with
// and without the daemon's path fields), the committed fixtures in
// tests/golden/formats re-serialized byte for byte, and a rejection
// catalogue of truncated, hostile and near-miss files. The readers are
// polled by schedulers and workers, so each must answer nullopt, never
// throw, whatever the bytes.
#include "common/work_lease.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/record.hpp"

namespace am {
namespace {

namespace fs = std::filesystem;

std::string fixture(const std::string& name) {
  return std::string(AM_FORMATS_DIR) + "/" + name;
}

class WorkLeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("am_work_lease_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string write(const std::string& name, const std::string& bytes) {
    std::ofstream(path(name), std::ios::binary) << bytes;
    return path(name);
  }
  static std::string bytes_of(const std::string& p) {
    const auto text = record::read_file(p);
    return text ? *text : std::string("<unreadable>");
  }

  fs::path dir_;
};

TEST_F(WorkLeaseTest, OfferRoundTripsWithoutDaemonFields) {
  LeaseOffer offer;
  offer.lease.id = 7;
  offer.lease.points = {0, 2, 5};
  offer.lease.cost = 0.1;  // not a dyadic fraction: only hexfloat keeps it
  write_lease_offer(path("lease"), offer);
  const auto back = read_lease_offer(path("lease"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lease.id, 7u);
  EXPECT_EQ(back->lease.points, offer.lease.points);
  EXPECT_EQ(back->lease.cost, 0.1);
  EXPECT_FALSE(back->done);
  EXPECT_TRUE(back->plan_path.empty());
  EXPECT_TRUE(back->store_path.empty());
  EXPECT_TRUE(back->seed_store_path.empty());
  EXPECT_EQ(bytes_of(path("lease")).find("plan"), std::string::npos)
      << "empty daemon fields must be omitted";
}

TEST_F(WorkLeaseTest, OfferRoundTripsDaemonPathsWithSpaces) {
  LeaseOffer offer;
  offer.lease.id = 1;
  offer.lease.points = {3};
  offer.plan_path = "daemon dir/job 1.plan";
  offer.store_path = "ns-alice.tsv";
  offer.seed_store_path = " leading and trailing ";
  write_lease_offer(path("lease"), offer);
  const auto back = read_lease_offer(path("lease"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->plan_path, offer.plan_path);
  EXPECT_EQ(back->store_path, offer.store_path);
  EXPECT_EQ(back->seed_store_path, offer.seed_store_path);
  EXPECT_EQ(back->lease.points, offer.lease.points);
}

TEST_F(WorkLeaseTest, DoneOfferRoundTripsWithNoPoints) {
  LeaseOffer offer;
  offer.lease.id = 9;
  offer.done = true;
  write_lease_offer(path("lease"), offer);
  const auto back = read_lease_offer(path("lease"));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->done);
  EXPECT_TRUE(back->lease.points.empty());
}

TEST_F(WorkLeaseTest, AckAndPlanInfoRoundTrip) {
  write_lease_ack(path("ack"), {UINT64_MAX, 4, 3, 1.0 / 3.0});
  const auto ack = read_lease_ack(path("ack"));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->lease_id, UINT64_MAX);
  EXPECT_EQ(ack->points, 4u);
  EXPECT_EQ(ack->executed, 3u);
  EXPECT_EQ(ack->wall_seconds, 1.0 / 3.0);

  write_plan_info(path("info"), {3, {0.5, 1e-300, 7.25}});
  const auto info = read_plan_info(path("info"));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->points, 3u);
  EXPECT_EQ(info->costs, (std::vector<double>{0.5, 1e-300, 7.25}));

  write_plan_info(path("uniform"), {5, {}});
  const auto uniform = read_plan_info(path("uniform"));
  ASSERT_TRUE(uniform.has_value());
  EXPECT_EQ(uniform->points, 5u);
  EXPECT_TRUE(uniform->costs.empty());
}

TEST_F(WorkLeaseTest, GoldenFilesReserializeByteIdentically) {
  for (const char* name :
       {"lease_offer.txt", "lease_offer_daemon.txt", "lease_offer_done.txt"}) {
    const auto offer = read_lease_offer(fixture(name));
    ASSERT_TRUE(offer.has_value()) << name;
    write_lease_offer(path(name), *offer);
    EXPECT_EQ(bytes_of(path(name)), bytes_of(fixture(name))) << name;
  }
  const auto ack = read_lease_ack(fixture("lease_ack.txt"));
  ASSERT_TRUE(ack.has_value());
  write_lease_ack(path("ack"), *ack);
  EXPECT_EQ(bytes_of(path("ack")), bytes_of(fixture("lease_ack.txt")));

  const auto info = read_plan_info(fixture("plan_info.txt"));
  ASSERT_TRUE(info.has_value());
  write_plan_info(path("info"), *info);
  EXPECT_EQ(bytes_of(path("info")), bytes_of(fixture("plan_info.txt")));
}

TEST_F(WorkLeaseTest, MissingFilesReadAsAbsent) {
  EXPECT_FALSE(read_lease_offer(path("none")).has_value());
  EXPECT_FALSE(read_lease_ack(path("none")).has_value());
  EXPECT_FALSE(read_plan_info(path("none")).has_value());
  // A directory opens but cannot be read: absent too, never a throw.
  EXPECT_FALSE(read_lease_offer(dir_.string()).has_value());
}

/// One hostile file per entry: each reader must return nullopt on it,
/// and none may throw.
struct Reject {
  const char* what;
  std::string bytes;
};

const std::string kOffer = "#am-work-lease v1\n";
const std::string kAck = "#am-lease-ack v1\n";
const std::string kInfo = "#am-plan-info v1\n";
const std::string kOfferBody = "done\t0\npoints\t1\n";
const std::string kAckBody = "points\t1\nexecuted\t1\nwall\t0x1p-2\n";

TEST_F(WorkLeaseTest, OfferRejectionCatalogue) {
  using namespace std::string_literals;
  const std::vector<Reject> cases = {
      {"empty file", ""},
      {"header only", kOffer},
      {"wrong header", "#am-lease-ack v1\nlease\t1\n" + kOfferBody},
      {"newer version", "#am-work-lease v2\nlease\t1\n" + kOfferBody},
      {"header with CR", "#am-work-lease v1\r\nlease\t1\n" + kOfferBody},
      {"header with blank", "#am-work-lease v1 \nlease\t1\n" + kOfferBody},
      {"no lease line", kOffer + kOfferBody},
      {"no done line", kOffer + "lease\t1\npoints\t1\n"},
      {"no points line", kOffer + "lease\t1\ndone\t0\n"},
      {"lease without value", kOffer + "lease\n" + kOfferBody},
      {"empty lease value", kOffer + "lease\t\n" + kOfferBody},
      {"signed lease id", kOffer + "lease\t-5\n" + kOfferBody},
      {"plus-signed lease id", kOffer + "lease\t+5\n" + kOfferBody},
      {"hex lease id", kOffer + "lease\t0x5\n" + kOfferBody},
      {"lease id overflow",
       kOffer + "lease\t18446744073709551616\n" + kOfferBody},
      {"lease id with blank", kOffer + "lease\t 5\n" + kOfferBody},
      {"space-separated lease", kOffer + "lease 5\n" + kOfferBody},
      {"CRLF lease line", kOffer + "lease\t5\r\n" + kOfferBody},
      {"done is 2", kOffer + "lease\t1\ndone\t2\npoints\t1\n"},
      {"done is yes", kOffer + "lease\t1\ndone\tyes\npoints\t1\n"},
      {"bad cost", kOffer + "lease\t1\ncost\tcheap\n" + kOfferBody},
      {"cost overflow", kOffer + "lease\t1\ncost\t1e999\n" + kOfferBody},
      {"cost with junk after a NUL",
       kOffer + "lease\t1\ncost\t0x1p+0\0junk\n"s + kOfferBody},
      {"empty plan path", kOffer + "lease\t1\nplan\t\n" + kOfferBody},
      {"plan without tab", kOffer + "lease\t1\nplan\n" + kOfferBody},
      {"negative point", kOffer + "lease\t1\ndone\t0\npoints\t1\t-2\n"},
      {"point overflow",
       kOffer + "lease\t1\ndone\t0\npoints\t99999999999999999999\n"},
      {"empty point field", kOffer + "lease\t1\ndone\t0\npoints\t1\t\t2\n"},
      {"space-separated points", kOffer + "lease\t1\ndone\t0\npoints\t1 2\n"},
      {"binary junk", "\x7f" "ELF\0\x01\x02"s},
  };
  for (const auto& c : cases) {
    const std::string p = write("offer", c.bytes);
    std::optional<LeaseOffer> got;
    EXPECT_NO_THROW(got = read_lease_offer(p)) << c.what;
    EXPECT_FALSE(got.has_value()) << c.what;
  }
  // The catalogue's base is itself a valid offer.
  const auto base = read_lease_offer(write("offer", kOffer + "lease\t1\n" +
                                                        kOfferBody));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->lease.points, std::vector<std::size_t>{1});
}

TEST_F(WorkLeaseTest, AckRejectionCatalogue) {
  using namespace std::string_literals;
  const std::vector<Reject> cases = {
      {"empty file", ""},
      {"header only", kAck},
      {"wrong header", kOffer + "lease\t1\n"},
      {"no lease line", kAck + kAckBody},
      {"key without value", kAck + "lease\t1\npoints\n"},
      {"unknown key without value", kAck + "lease\t1\nnote\n"},
      {"signed lease", kAck + "lease\t-1\n"},
      {"signed points", kAck + "lease\t1\npoints\t-1\n"},
      {"signed executed", kAck + "lease\t1\nexecuted\t-3\n"},
      {"points overflow", kAck + "lease\t1\npoints\t18446744073709551616\n"},
      {"bad wall", kAck + "lease\t1\nwall\tslow\n"},
      {"wall overflow", kAck + "lease\t1\nwall\t-1e400\n"},
      {"wall with junk after a NUL", kAck + "lease\t1\nwall\t0.5\0x\n"s},
      {"space-separated lease", kAck + "lease 1\n"},
      {"blank-only line", kAck + "lease\t1\n \n"},
  };
  for (const auto& c : cases) {
    const std::string p = write("ack", c.bytes);
    std::optional<LeaseAck> got;
    EXPECT_NO_THROW(got = read_lease_ack(p)) << c.what;
    EXPECT_FALSE(got.has_value()) << c.what;
  }
  EXPECT_TRUE(read_lease_ack(write("ack", kAck + "lease\t1\n" + kAckBody))
                  .has_value());
}

TEST_F(WorkLeaseTest, PlanInfoRejectionCatalogue) {
  using namespace std::string_literals;
  const std::vector<Reject> cases = {
      {"empty file", ""},
      {"header only", kInfo},
      {"wrong header", kAck + "points\t2\n"},
      {"points without value", kInfo + "points\n"},
      {"signed points", kInfo + "points\t-2\n"},
      {"points overflow", kInfo + "points\t18446744073709551616\n"},
      {"space-separated points", kInfo + "points 2\n"},
      {"cost index out of range",
       kInfo + "points\t1\ncost\t0\t1\ncost\t1\t1\n"},
      {"cost lines missing a point", kInfo + "points\t3\ncost\t0\t1\n"},
      {"duplicate cost line",
       kInfo + "points\t2\ncost\t0\t1\ncost\t0\t2\n"},
      {"cost without value", kInfo + "points\t1\ncost\t0\n"},
      {"bad cost value", kInfo + "points\t1\ncost\t0\tfree\n"},
      {"signed cost index", kInfo + "points\t1\ncost\t-0\t1\n"},
      {"cost with junk after a NUL", kInfo + "points\t1\ncost\t0\t2\0x\n"s},
      // Regression: the reader used to size its cost vector from this
      // count and threw std::length_error.
      {"huge point count with one cost",
       kInfo + "points\t4611686018427387904\ncost\t0\t1\n"},
      {"max point count with one cost",
       kInfo + "points\t18446744073709551615\ncost\t0\t1\n"},
  };
  for (const auto& c : cases) {
    const std::string p = write("info", c.bytes);
    std::optional<PlanInfo> got;
    EXPECT_NO_THROW(got = read_plan_info(p)) << c.what;
    EXPECT_FALSE(got.has_value()) << c.what;
  }
  // Costs in any line order are fine as long as each point has one.
  const auto shuffled = read_plan_info(
      write("info", kInfo + "cost\t1\t0x1p+1\npoints\t2\ncost\t0\t0.5\n"));
  ASSERT_TRUE(shuffled.has_value());
  EXPECT_EQ(shuffled->costs, (std::vector<double>{0.5, 2.0}));
  // A huge count without cost lines allocates nothing here; the
  // scheduler reports it (orchestrator_test).
  const auto huge =
      read_plan_info(write("info", kInfo + "points\t4611686018427387904\n"));
  ASSERT_TRUE(huge.has_value());
  EXPECT_TRUE(huge->costs.empty());
}

}  // namespace
}  // namespace am
