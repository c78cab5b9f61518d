#include "nand/array.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace pas::nand {
namespace {

NandConfig small_config() {
  NandConfig c;
  c.channels = 2;
  c.dies_per_channel = 2;
  c.planes_per_die = 4;
  c.page_bytes = 16 * KiB;
  c.channel_mib_s = 1024.0;  // 16 KiB -> ~15.26 us
  c.p_die_sigma = 0.0;       // deterministic power for exact assertions
  return c;
}

TEST(NandArray, ReadLatencyIsSensePlusTransfer) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs done_at = -1;
  array.submit({OpKind::kRead, 0, 16 * KiB, false, [&] { done_at = sim.now(); }});
  sim.run_to_completion();
  const TimeNs expect = small_config().t_read + seconds(16.0 * KiB / (1024.0 * MiB));
  EXPECT_NEAR(static_cast<double>(done_at), static_cast<double>(expect), 1000.0);
}

TEST(NandArray, ProgramLatencyIsTransferPlusProgram) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs done_at = -1;
  array.submit({OpKind::kProgram, 0, 64 * KiB, false, [&] { done_at = sim.now(); }});
  sim.run_to_completion();
  const TimeNs expect = small_config().t_program + seconds(64.0 * KiB / (1024.0 * MiB));
  EXPECT_NEAR(static_cast<double>(done_at), static_cast<double>(expect), 1000.0);
}

TEST(NandArray, EraseLatency) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs done_at = -1;
  array.submit({OpKind::kErase, 1, 0, false, [&] { done_at = sim.now(); }});
  sim.run_to_completion();
  EXPECT_EQ(done_at, small_config().t_erase);
}

TEST(NandArray, SameDieOpsSerialize) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  std::vector<TimeNs> completions;
  for (int i = 0; i < 3; ++i) {
    array.submit({OpKind::kErase, 0, 0, false, [&] { completions.push_back(sim.now()); }});
  }
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 1 * small_config().t_erase);
  EXPECT_EQ(completions[1], 2 * small_config().t_erase);
  EXPECT_EQ(completions[2], 3 * small_config().t_erase);
}

TEST(NandArray, DifferentDiesRunInParallel) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  std::vector<TimeNs> completions;
  for (int die = 0; die < 4; ++die) {
    array.submit({OpKind::kErase, die, 0, false, [&] { completions.push_back(sim.now()); }});
  }
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 4u);
  for (TimeNs t : completions) EXPECT_EQ(t, small_config().t_erase);
}

TEST(NandArray, ChannelSerializesTransfers) {
  // Two programs on different dies of the same channel: the second transfer
  // waits for the first, but programs overlap after their transfers.
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  std::vector<TimeNs> completions;
  const std::uint32_t bytes = 64 * KiB;
  const TimeNs xfer = seconds(static_cast<double>(bytes) / (cfg.channel_mib_s * MiB));
  array.submit({OpKind::kProgram, 0, bytes, false, [&] { completions.push_back(sim.now()); }});
  array.submit({OpKind::kProgram, 1, bytes, false, [&] { completions.push_back(sim.now()); }});
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(static_cast<double>(completions[0]), static_cast<double>(xfer + cfg.t_program), 2000.0);
  EXPECT_NEAR(static_cast<double>(completions[1]), static_cast<double>(2 * xfer + cfg.t_program),
              2000.0);
}

TEST(NandArray, DiesOnDifferentChannelsDoNotContend) {
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  std::vector<TimeNs> completions;
  const std::uint32_t bytes = 64 * KiB;
  array.submit({OpKind::kProgram, 0, bytes, false, [&] { completions.push_back(sim.now()); }});
  array.submit({OpKind::kProgram, 2, bytes, false, [&] { completions.push_back(sim.now()); }});
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], completions[1]);
}

TEST(NandArray, PowerReflectsActiveOps) {
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 0.0);
  bool a_done = false;
  bool b_done = false;
  array.submit({OpKind::kErase, 0, 0, false, [&] { a_done = true; }});
  array.submit({OpKind::kErase, 2, 0, false, [&] { b_done = true; }});
  // Mid-erase: two dies busy erasing.
  sim.run_until(cfg.t_erase / 2);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 2 * cfg.p_die_erase_w);
  EXPECT_EQ(array.busy_dies(), 2);
  sim.run_to_completion();
  EXPECT_TRUE(a_done);
  EXPECT_TRUE(b_done);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 0.0);
  EXPECT_EQ(array.busy_dies(), 0);
}

TEST(NandArray, PowerDuringProgramPhases) {
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  array.submit({OpKind::kProgram, 0, 64 * KiB, false, [] {}});
  // During the transfer phase, only the channel draws power.
  sim.run_until(microseconds(10));
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), cfg.p_channel_xfer_w);
  // After the transfer (62.5us), the die programs.
  sim.run_until(microseconds(200));
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), cfg.p_die_program_w);
  sim.run_to_completion();
}

TEST(NandArray, PowerListenerFires) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  int notifications = 0;
  array.set_power_listener([&] { ++notifications; });
  array.submit({OpKind::kErase, 0, 0, false, [] {}});
  sim.run_to_completion();
  EXPECT_GE(notifications, 2);  // at least erase start + end
}

TEST(NandArray, CountsAndOutstanding) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  for (int i = 0; i < 5; ++i) array.submit({OpKind::kErase, 0, 0, false, [] {}});
  EXPECT_EQ(array.outstanding(), 5u);
  EXPECT_EQ(array.queued_ops(0), 5u);
  sim.run_to_completion();
  EXPECT_EQ(array.outstanding(), 0u);
  EXPECT_EQ(array.completed_ops(), 5u);
}

TEST(NandArray, TransferredBytesAccumulate) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  array.submit({OpKind::kRead, 0, 4 * KiB, false, [] {}});
  array.submit({OpKind::kProgram, 1, 64 * KiB, false, [] {}});
  sim.run_to_completion();
  EXPECT_EQ(array.transferred_bytes(), 68 * KiB);
}

TEST(NandArray, ThroughputSaturatesAtChannelRate) {
  // Saturate one channel with programs on both of its dies; aggregate data
  // rate cannot exceed the channel rate, and program time overlaps transfers.
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.t_program = microseconds(60);  // comparable to the 62.5us transfer
  NandArray array(sim, cfg);
  const std::uint32_t bytes = 64 * KiB;
  int completed = 0;
  // Keep both dies of channel 0 loaded with 100 programs each.
  for (int i = 0; i < 100; ++i) {
    array.submit({OpKind::kProgram, 0, bytes, false, [&] { ++completed; }});
    array.submit({OpKind::kProgram, 1, bytes, false, [&] { ++completed; }});
  }
  sim.run_to_completion();
  EXPECT_EQ(completed, 200);
  const double elapsed_s = to_seconds(sim.now());
  const double mib_moved = 200.0 * bytes / static_cast<double>(MiB);
  const double rate = mib_moved / elapsed_s;
  EXPECT_LE(rate, cfg.channel_mib_s * 1.01);
  // With transfers pipelined against programs, we should get close to it.
  EXPECT_GE(rate, cfg.channel_mib_s * 0.8);
}

// Transfer times below are exact: at 1024 MiB/s a 4/16/32/64 KiB transfer
// takes 2^-18/2^-16/2^-15/2^-14 s, which the array truncates to 3 814,
// 15 258, 30 517 and 61 035 ns.

TEST(NandArray, PriorityOpRunsBehindTheInFlightOpAheadOfQueuedOnes) {
  sim::Simulator sim;
  const auto cfg = small_config();
  NandArray array(sim, cfg);
  std::vector<std::pair<int, TimeNs>> done;
  auto erase = [&](int id, bool priority) {
    array.submit({OpKind::kErase, 0, 0, priority, [&done, &sim, id] {
                    done.emplace_back(id, sim.now());
                  }});
  };
  erase(0, false);  // in flight from t = 0
  erase(1, false);
  erase(2, false);
  erase(3, true);
  sim.run_to_completion();
  const TimeNs e = cfg.t_erase;
  const std::vector<std::pair<int, TimeNs>> expect{{0, e}, {3, 2 * e}, {1, 3 * e}, {2, 4 * e}};
  EXPECT_EQ(done, expect);
}

TEST(NandArray, ReleasedChannelStartsItsWaiterBeforeTheReleasingDieMovesOn) {
  // Dies 0 and 1 share channel 0. Die 1's program waits for die 0's
  // transfer; when it gets the channel, its transfer ends at the same
  // instant as die 0's program. The waiter's transfer was scheduled first,
  // so its event fires first: by the time die 0's op completes, the channel
  // is free and die 1 is programming.
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.t_program = 15258;  // one 16 KiB transfer
  NandArray array(sim, cfg);
  TimeNs first_done = -1;
  int channels_at_first = -1;
  Watts power_at_first = -1.0;
  TimeNs second_done = -1;
  array.submit({OpKind::kProgram, 0, 64 * KiB, false, [&] {
                  first_done = sim.now();
                  channels_at_first = array.busy_channels();
                  power_at_first = array.instantaneous_power();
                }});
  array.submit({OpKind::kProgram, 1, 16 * KiB, false, [&] { second_done = sim.now(); }});
  sim.run_to_completion();
  EXPECT_EQ(first_done, 61035 + 15258);
  EXPECT_EQ(channels_at_first, 0);
  EXPECT_DOUBLE_EQ(power_at_first, cfg.p_die_program_w);
  EXPECT_EQ(second_done, 61035 + 2 * 15258);
}

TEST(NandArray, ReleasedChannelStartsItsWaiterBeforeAReadCompletes) {
  // Die 1 asks for the channel during die 0's read transfer [70000, 85258).
  // The read hands the channel on before its completion runs.
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs read_done = -1;
  std::uint64_t bytes_at_read_done = 0;
  array.submit({OpKind::kRead, 0, 16 * KiB, false, [&] {
                  read_done = sim.now();
                  bytes_at_read_done = array.transferred_bytes();
                }});
  sim.schedule_at(75000, [&] { array.submit({OpKind::kProgram, 1, 64 * KiB, false, [] {}}); });
  sim.run_to_completion();
  EXPECT_EQ(read_done, 70000 + 15258);
  EXPECT_EQ(bytes_at_read_done, 80 * KiB);
}

TEST(NandArray, CompletionResubmittingToItsOwnDieRunsBackToBack) {
  // Each completion submits the next program to the die it just freed, into
  // the slot it just vacated; the die and the channel are idle by then, so
  // op k completes at exactly k * (transfer + program).
  sim::Simulator sim;
  const auto cfg = small_config();
  NandArray array(sim, cfg);
  constexpr std::size_t kOps = 64;
  std::vector<TimeNs> done;
  std::function<void()> complete;
  auto submit = [&] { array.submit({OpKind::kProgram, 0, 16 * KiB, false, [&] { complete(); }}); };
  complete = [&] {
    done.push_back(sim.now());
    EXPECT_EQ(array.outstanding(), 0u);
    if (done.size() < kOps) submit();
  };
  submit();
  sim.run_to_completion();
  ASSERT_EQ(done.size(), kOps);
  for (std::size_t k = 0; k < kOps; ++k) {
    EXPECT_EQ(done[k], static_cast<TimeNs>(k + 1) * (15258 + cfg.t_program)) << "op " << k;
  }
  EXPECT_EQ(array.completed_ops(), kOps);
}

TEST(NandArray, MixedOpsOnOneChannelCompleteAtPinnedTimes) {
  // All six ops are submitted at t = 0 to the two dies of channel 0:
  //   die 1: program 64 KiB, transfer [0, 61035), program to 661035.
  //   die 0: read 16 KiB, sense to 50000, then waits for the channel, and
  //          transfers [61035, 76293) once die 1 releases it.
  //   die 0: program 32 KiB, transfer [76293, 106810), program to 706810.
  //   die 1: read 4 KiB, sense [661035, 711035), transfer to 714849.
  //   die 0: erase [706810, 3706810).
  //   die 1: program 16 KiB, transfer [714849, 730107), program to 1330107.
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.t_read = microseconds(50);
  NandArray array(sim, cfg);
  std::vector<std::pair<int, TimeNs>> done;
  auto op = [&](int id, OpKind kind, int die, std::uint32_t bytes) {
    array.submit({kind, die, bytes, false, [&done, &sim, id] {
                    done.emplace_back(id, sim.now());
                  }});
  };
  op(1, OpKind::kProgram, 1, 64 * KiB);
  op(2, OpKind::kRead, 0, 16 * KiB);
  op(3, OpKind::kProgram, 0, 32 * KiB);
  op(4, OpKind::kRead, 1, 4 * KiB);
  op(5, OpKind::kErase, 0, 0);
  op(6, OpKind::kProgram, 1, 16 * KiB);
  sim.run_to_completion();
  const std::vector<std::pair<int, TimeNs>> expect{
      {2, 76293}, {1, 661035}, {3, 706810}, {4, 714849}, {6, 1330107}, {5, 3706810}};
  EXPECT_EQ(done, expect);
  EXPECT_EQ(array.transferred_bytes(), 132 * KiB);
  EXPECT_EQ(array.busy_channels(), 0);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 0.0);
}

TEST(NandArray, InvalidOpsAbort) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  EXPECT_DEATH(array.submit({OpKind::kRead, 99, 4096, false, [] {}}), "");
  EXPECT_DEATH(array.submit({OpKind::kRead, 0, 0, false, [] {}}), "");
  EXPECT_DEATH(array.submit({OpKind::kErase, 0, 4096, false, [] {}}), "");
}

}  // namespace
}  // namespace pas::nand
