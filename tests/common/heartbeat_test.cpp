#include "common/heartbeat.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/record.hpp"

namespace am {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("am_heartbeat_test_" + name))
      .string();
}

TEST(Heartbeat, WriterBeatsAndCleansUp) {
  const auto path = temp_path("beats.hb");
  fs::remove(path);
  {
    HeartbeatWriter writer(path, /*interval_seconds=*/0.01);
    // The first beat is synchronous: visible before the constructor
    // returns, so a supervisor polling right after spawn sees the file.
    const auto first = read_heartbeat(path);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->pid, static_cast<std::uint64_t>(::getpid()));
    EXPECT_GE(first->beats, 1u);

    // The counter advances on its own.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::uint64_t beats = first->beats;
    while (beats <= first->beats &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (const auto hb = read_heartbeat(path)) beats = hb->beats;
    }
    // The sequence number is the liveness signal: supervisors judge a
    // worker stalled when it stops advancing, never by file timestamps
    // (which an NTP step could fake).
    EXPECT_GT(beats, first->beats);
  }
  // Clean shutdown removes the file — a leftover heartbeat means a crash.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(read_heartbeat(path).has_value());
}

TEST(Heartbeat, StopIsIdempotent) {
  const auto path = temp_path("stop.hb");
  HeartbeatWriter writer(path, 0.01);
  writer.stop();
  writer.stop();  // second stop must be a no-op, not a crash/deadlock
  EXPECT_FALSE(fs::exists(path));
}

// Start/stop/restart churn with a concurrent reader and racing stop()
// callers. Primarily a TSan workload (run under `cmake --preset tsan`):
// it exercises the stop-flag handoff, the lost-wakeup fence in stop(),
// and the join serialization that concurrent stop() relies on. The
// regression it pins down: two threads calling stop() at once used to
// both reach thread_.join().
TEST(Heartbeat, StartStopRestartStress) {
  const auto path = temp_path("stress.hb");
  fs::remove(path);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // read_heartbeat races with writer rewrites and removal by design;
    // the atomic rename means it sees a whole beat or no file at all.
    while (!done.load(std::memory_order_acquire)) {
      if (const auto hb = read_heartbeat(path)) {
        EXPECT_EQ(hb->pid, static_cast<std::uint64_t>(::getpid()));
      }
    }
  });
  std::uint64_t last_beats = 0;
  for (int round = 0; round < 25; ++round) {
    HeartbeatWriter writer(path, /*interval_seconds=*/0.001);
    EXPECT_GE(writer.beats(), 1u);  // constructor wrote the first beat
    std::thread s1([&] { writer.stop(); });
    std::thread s2([&] { writer.stop(); });
    s1.join();
    s2.join();
    last_beats = writer.beats();
    // ~writer runs a third stop() here, after the racing pair.
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GE(last_beats, 1u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(Heartbeat, RejectsMalformedFiles) {
  const auto path = temp_path("malformed.hb");
  std::ofstream(path) << "not a heartbeat\n";
  EXPECT_FALSE(read_heartbeat(path).has_value());
  std::ofstream(path, std::ios::trunc) << "123 456\n";  // space, not tab
  EXPECT_FALSE(read_heartbeat(path).has_value());
  std::ofstream(path, std::ios::trunc) << "123\t456\n";
  const auto hb = read_heartbeat(path);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->pid, 123u);
  EXPECT_EQ(hb->beats, 456u);
  fs::remove(path);
}

TEST(Heartbeat, RejectsSignsBlanksAndTrailingBytes) {
  // `istream >> uint64_t` used to read "-5" as 2^64-5, and skipped
  // blanks and ignored whatever followed the beat count.
  using namespace std::string_literals;
  const auto path = temp_path("hostile.hb");
  for (const std::string& bad :
       {"123\t-5\n"s, "-123\t5\n"s, "+123\t5\n"s, "123\t+5\n"s,
        " 123\t5\n"s, "123\t 5\n"s, "123\t\t5\n"s, "123\t5\t6\n"s,
        "123\t5 junk\n"s, "123\t5\r\n"s, "123\n"s, "\t5\n"s, "123\t\n"s,
        "123\t18446744073709551616\n"s, "0x7b\t5\n"s, "123\t5\0\n"s, ""s}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    std::optional<Heartbeat> hb;
    EXPECT_NO_THROW(hb = read_heartbeat(path));
    EXPECT_FALSE(hb.has_value()) << '"' << bad << '"';
  }
  // Without a final newline, and at the 64-bit limit, it still reads.
  std::ofstream(path, std::ios::trunc) << "7\t18446744073709551615";
  const auto hb = read_heartbeat(path);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->pid, 7u);
  EXPECT_EQ(hb->beats, UINT64_MAX);
  fs::remove(path);
}

TEST(Heartbeat, GoldenFileReserializesByteIdentically) {
  const std::string golden = std::string(AM_FORMATS_DIR) + "/heartbeat.txt";
  const auto hb = read_heartbeat(golden);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(encode_heartbeat(*hb), *record::read_file(golden));
}

TEST(Heartbeat, WriterFileIsTheEncodedBeat) {
  const auto path = temp_path("encoded.hb");
  HeartbeatWriter writer(path, 3600.0);  // only the constructor's beat
  EXPECT_EQ(*record::read_file(path),
            encode_heartbeat({static_cast<std::uint64_t>(::getpid()), 1}));
  writer.stop();
}

}  // namespace
}  // namespace am
