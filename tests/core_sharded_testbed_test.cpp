// The sharded fleet host's contract (DESIGN.md section 11):
//   * one shard is byte-identical to a plain Testbed;
//   * K-shard results are deterministic — independent of repeats and of the
//     worker-pool size;
//   * the epoch barrier never lets a shard run past the coordinator by more
//     than the cap window, and every barrier leaves the shard clocks synced;
//   * streaming-sum trace mode is bit-identical to full-trace retention;
//   * per-device results do not depend on the shard count.
#include "core/sharded_testbed.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/testbed.h"
#include "power/trace.h"

namespace pas::core {
namespace {

iogen::JobSpec small_randwrite(std::uint32_t block_bytes, int iodepth) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = block_bytes;
  spec.iodepth = iodepth;
  spec.io_limit_bytes = 16 * MiB;
  return spec;
}

constexpr devices::DeviceId kTypes[] = {devices::DeviceId::kSsd1, devices::DeviceId::kSsd2,
                                        devices::DeviceId::kHdd};

// Adds an N-device fleet (cycling the paper's device types) and queues one
// size-limited write job per device. Returns the job indices.
std::vector<std::size_t> add_fleet(FleetHost& host, std::size_t devices) {
  for (std::size_t i = 0; i < devices; ++i) {
    host.add_device(kTypes[i % 3], 100 + i);
  }
  std::vector<std::size_t> jobs;
  for (std::size_t i = 0; i < devices; ++i) {
    iogen::JobSpec spec = small_randwrite(256 * 1024, 8);
    if (kTypes[i % 3] == devices::DeviceId::kHdd) spec.io_limit_bytes = 4 * MiB;
    spec.seed = 1000 + i;
    jobs.push_back(host.add_job(spec, i));
  }
  return jobs;
}

// Runs add_fleet's jobs and returns the fleet trace plus per-job byte
// counts. A positive `advance_first` calls advance() while the jobs are
// still queued, before run_jobs().
struct FleetRun {
  power::PowerTrace trace;
  std::vector<std::uint64_t> bytes;
  TimeNs end = 0;
};

FleetRun run_fleet(FleetHost& host, std::size_t devices, TimeNs advance_first = 0) {
  const std::vector<std::size_t> jobs = add_fleet(host, devices);
  host.start_rigs();
  if (advance_first > 0) host.advance(advance_first);
  host.run_jobs();
  host.stop_rigs();
  FleetRun out;
  out.trace = host.take_fleet_trace();
  for (const std::size_t j : jobs) out.bytes.push_back(host.job_result(j).bytes);
  out.end = host.now();
  return out;
}

void expect_bit_identical(const power::PowerTrace& a, const power::PowerTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.time_at(i), b.time_at(i)) << "sample " << i;
    // Doubles compared exactly on purpose: the contract is bit-identity,
    // not approximate equivalence.
    ASSERT_EQ(a.watts()[i], b.watts()[i]) << "sample " << i;
  }
}

// One shard IS a Testbed: same devices, same jobs, byte-identical trace and
// results, regardless of the worker-pool size. The second input calls
// advance() with the jobs still queued: advance is run_epoch on both hosts,
// so it starts them on both.
TEST(ShardedTestbed, OneShardIsByteIdenticalToTestbed) {
  for (const TimeNs advance_first : {TimeNs{0}, milliseconds(50)}) {
    Testbed plain;
    const FleetRun expected = run_fleet(plain, 4, advance_first);
    for (const int workers : {1, 4}) {
      ShardedTestbed sharded(1, workers);
      const FleetRun actual = run_fleet(sharded, 4, advance_first);
      EXPECT_EQ(actual.bytes, expected.bytes) << "advance_first=" << advance_first;
      EXPECT_EQ(actual.end, expected.end) << "advance_first=" << advance_first;
      expect_bit_identical(actual.trace, expected.trace);
    }
  }
}

// Four shards: repeat runs and different worker-pool sizes produce the same
// bytes — the fan-out is deterministic because shards never share state and
// every merge happens in shard order on the coordinator.
TEST(ShardedTestbed, FourShardsDeterministicAcrossRepeatsAndWorkers) {
  ShardedTestbed first(4, 1);
  const FleetRun expected = run_fleet(first, 8);
  ASSERT_GT(expected.trace.size(), 0u);
  for (const int workers : {1, 2, 4}) {
    ShardedTestbed again(4, workers);
    const FleetRun actual = run_fleet(again, 8);
    EXPECT_EQ(actual.bytes, expected.bytes);
    EXPECT_EQ(actual.end, expected.end);
    expect_bit_identical(actual.trace, expected.trace);
  }
}

// The shard count is an execution knob: every device runs on its own
// timeline at any K, so each device's rig trace is bit-identical across
// K and worker counts, and job bytes, the clock and the event count are
// equal. Compared per device: the fleet sum is summed shard-major and may
// differ across K in its last bits.
TEST(ShardedTestbed, PerDeviceResultsIgnoreShardCount) {
  constexpr std::size_t kDevices = 8;
  struct Run {
    std::vector<power::PowerTrace> traces;
    std::vector<std::uint64_t> bytes;
    TimeNs end = 0;
    std::uint64_t events = 0;
  };
  const auto run = [](std::size_t shards, int workers) {
    ShardedTestbed host(shards, workers);
    const std::vector<std::size_t> jobs = add_fleet(host, kDevices);
    host.start_rigs();
    host.advance(milliseconds(20));
    host.run_jobs();
    host.advance(milliseconds(30));
    host.stop_rigs();
    Run out;
    for (std::size_t i = 0; i < kDevices; ++i) {
      out.traces.push_back(host.device(i).rig->trace());
    }
    for (const std::size_t j : jobs) out.bytes.push_back(host.job_result(j).bytes);
    out.end = host.now();
    out.events = host.executed_events();
    return out;
  };
  const Run expected = run(1, 1);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, " << workers << " workers");
      const Run actual = run(shards, workers);
      EXPECT_EQ(actual.bytes, expected.bytes);
      EXPECT_EQ(actual.end, expected.end);
      EXPECT_EQ(actual.events, expected.events);
      for (std::size_t i = 0; i < kDevices; ++i) {
        expect_bit_identical(actual.traces[i], expected.traces[i]);
      }
    }
  }
}

// Global indexing: devices deal round-robin over shards, jobs follow their
// device, and index_of maps a routing pointer back to the global slot.
TEST(ShardedTestbed, GlobalIndicesSpanShards) {
  ShardedTestbed host(3, 1);
  for (std::size_t i = 0; i < 7; ++i) host.add_device(kTypes[i % 3], 50 + i);
  EXPECT_EQ(host.device_count(), 7u);
  EXPECT_EQ(host.shard(0).device_count(), 3u);  // devices 0, 3, 6
  EXPECT_EQ(host.shard(1).device_count(), 2u);
  EXPECT_EQ(host.shard(2).device_count(), 2u);
  EXPECT_EQ(host.shard_of_device(5), 2u);
  EXPECT_EQ(host.local_device_index(5), 1u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(host.index_of(host.device(i).device.get()), i);
  }
  // Jobs take global indices in add_job order and land on their device's
  // shard: devices 6 down to 0, then 6 and 5 again.
  const iogen::JobSpec spec = small_randwrite(256 * 1024, 4);
  for (std::size_t j = 0; j < 9; ++j) {
    const std::size_t d = 6 - j % 7;
    EXPECT_EQ(host.add_job(spec, d), j);
    EXPECT_EQ(host.job_device(j), d);
  }
  EXPECT_EQ(host.shard(0).job_count(), 4u);  // devices 6, 3, 0, 6
  EXPECT_EQ(host.shard(1).job_count(), 2u);  // devices 4, 1
  EXPECT_EQ(host.shard(2).job_count(), 3u);  // devices 5, 2, 5
}

// An out-of-range shard, device or job index fails a named check rather than
// reading past the end of a vector.
TEST(ShardedTestbedDeathTest, IndexAccessorsCheckTheirRange) {
  ShardedTestbed host(2, 1);
  for (std::size_t i = 0; i < 3; ++i) host.add_device(kTypes[i], 50 + i);
  host.add_job(small_randwrite(256 * 1024, 4), 0);
  EXPECT_DEATH(host.shard(2), "PAS_CHECK failed");
  EXPECT_DEATH(host.shard_of_device(3), "PAS_CHECK failed");
  EXPECT_DEATH(host.local_device_index(3), "PAS_CHECK failed");
  EXPECT_DEATH(host.job_device(1), "PAS_CHECK failed");
}

// The epoch barrier: run_until never advances more than max_epoch per epoch,
// every barrier observes synchronized shard clocks, and the fleet lands
// exactly on the target.
TEST(ShardedTestbed, EpochBarrierHonorsTheCapWindow) {
  constexpr TimeNs kCap = seconds(10);
  ShardedTestbed host(4, 4);
  for (std::size_t i = 0; i < 4; ++i) host.add_device(kTypes[i % 3], 80 + i);
  for (std::size_t i = 0; i < 4; ++i) {
    iogen::JobSpec spec = small_randwrite(256 * 1024, 4);
    spec.io_limit_bytes = 0;
    spec.time_limit = seconds(24);  // stops issuing 1 s before the target,
    spec.seed = 2000 + i;           // so in-flight IO drains inside it
    host.add_job(spec, i);
  }
  host.start_rigs();
  std::vector<TimeNs> barriers;
  const TimeNs target = seconds(25);
  const bool done = host.run_until(target, kCap, [&](TimeNs at) {
    barriers.push_back(at);
    // At a barrier every shard clock equals the fleet clock.
    EXPECT_EQ(at, host.now());
    for (std::size_t k = 0; k < host.shard_count(); ++k) {
      EXPECT_EQ(host.shard(k).now(), at);
    }
  });
  host.stop_rigs();
  EXPECT_TRUE(done);  // the jobs' time limit is inside the target
  EXPECT_EQ(host.now(), target);
  ASSERT_EQ(barriers.size(), 3u);  // 25 s at a 10 s cap: 10, 20, 25
  TimeNs prev = 0;
  for (const TimeNs at : barriers) {
    EXPECT_LE(at - prev, kCap);
    prev = at;
  }
  EXPECT_EQ(barriers.back(), target);
}

// Streaming-sum trace mode: same fleet, same jobs — the one retained
// per-shard sum is bit-identical to the full-trace device-major merge.
TEST(ShardedTestbed, StreamingSumModeMatchesFullTracesBitExactly) {
  auto run_mode = [](TraceMode mode) {
    ShardedTestbed host(2, 1);
    host.set_trace_mode(mode);
    return run_fleet(host, 4).trace;
  };
  const power::PowerTrace full = run_mode(TraceMode::kFullTraces);
  const power::PowerTrace streaming = run_mode(TraceMode::kStreamingSum);
  ASSERT_GT(full.size(), 0u);
  expect_bit_identical(streaming, full);
}

// run_epoch reports completion honestly: false while a time-limited job
// still runs, true at (or past) its limit; the clock lands on each epoch.
TEST(ShardedTestbed, RunEpochReportsJobCompletion) {
  ShardedTestbed host(2, 1);
  host.add_device(devices::DeviceId::kSsd2, 9);
  host.add_device(devices::DeviceId::kSsd1, 10);
  iogen::JobSpec spec = small_randwrite(256 * 1024, 4);
  spec.io_limit_bytes = 0;
  spec.time_limit = seconds(3);
  host.add_job(spec, 0);
  EXPECT_FALSE(host.run_epoch(seconds(1)));
  EXPECT_EQ(host.now(), seconds(1));
  EXPECT_TRUE(host.run_epoch(seconds(4)));
  EXPECT_EQ(host.now(), seconds(4));
  // advance() on an idle fleet lands exactly dt later.
  host.advance(milliseconds(250));
  EXPECT_EQ(host.now(), seconds(4) + milliseconds(250));
}

}  // namespace
}  // namespace pas::core
