#include "core/testbed.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/campaign.h"
#include "devmgmt/admin.h"
#include "power/rig.h"
#include "sim/simulator.h"

namespace pas::core {
namespace {

iogen::JobSpec small_randwrite(std::uint32_t block_bytes, int iodepth) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = block_bytes;
  spec.iodepth = iodepth;
  spec.io_limit_bytes = 64 * MiB;
  return spec;
}

// The pre-testbed harness: hand-wired simulator + device + admin + rig, the
// wiring run_cell (and the benches) used to duplicate. Kept here verbatim as
// the parity reference: run_cell on a single-device Testbed must reproduce
// it bit-for-bit.
ExperimentOutput hand_wired_cell(devices::DeviceId id, int power_state,
                                 const iogen::JobSpec& spec, std::uint64_t seed) {
  sim::Simulator sim;
  std::unique_ptr<sim::BlockDevice> device;
  sim::PowerManageable* pm = nullptr;
  if (id == devices::DeviceId::kHdd) {
    auto hdd = devices::make_hdd(sim, seed);
    pm = hdd.get();
    device = std::move(hdd);
  } else {
    auto ssd = devices::make_ssd(id, sim, seed);
    pm = ssd.get();
    device = std::move(ssd);
  }
  devmgmt::NvmeAdmin admin(*pm);
  if (power_state != 0) {
    EXPECT_EQ(admin.set_power_state(power_state), devmgmt::AdminStatus::kSuccess);
  }
  power::MeasurementRig rig(sim, *device, devices::rig_for(id),
                            seed ^ devices::kRigNoiseSeedMix);
  rig.start();
  ExperimentOutput out;
  out.job = iogen::run_job(sim, *device, spec);
  rig.stop();
  const power::PowerTrace& trace = rig.trace();
  out.min_power_w = trace.min_power();
  out.max_power_w = trace.max_power();
  out.max_window10s_w = trace.max_window_average(seconds(10));
  out.point.avg_power_w = trace.mean_power();
  out.point.throughput_mib_s = out.job.throughput_mib_s();
  return out;
}

// Tentpole acceptance: run_cell is now the single-device instantiation of
// the Testbed, and its outputs — IO counts, wall clock, and every measured
// power statistic including the rig's noise stream — are EXACTLY the
// hand-wired harness's, for each paper device and a non-default power state.
TEST(Testbed, RunCellMatchesHandWiredHarnessExactly) {
  struct Case {
    devices::DeviceId id;
    int power_state;
    std::uint32_t block_bytes;
    int iodepth;
  };
  const Case cases[] = {
      {devices::DeviceId::kSsd1, 0, 256 * 1024, 16},
      {devices::DeviceId::kSsd2, 1, 256 * 1024, 32},
      {devices::DeviceId::kSsd2, 2, 64 * 1024, 4},
      {devices::DeviceId::kHdd, 0, 2 * 1024 * 1024, 8},
  };
  for (const Case& c : cases) {
    iogen::JobSpec spec = small_randwrite(c.block_bytes, c.iodepth);
    if (c.id == devices::DeviceId::kHdd) spec.io_limit_bytes = 16 * MiB;
    const std::uint64_t seed = 7;
    const ExperimentOutput expected = hand_wired_cell(c.id, c.power_state, spec, seed);
    ExperimentOptions options;
    options.seed = seed;
    const ExperimentOutput actual = run_cell(c.id, c.power_state, spec, options);
    SCOPED_TRACE(devices::label(c.id));
    EXPECT_EQ(actual.job.ios, expected.job.ios);
    EXPECT_EQ(actual.job.bytes, expected.job.bytes);
    EXPECT_EQ(actual.job.elapsed, expected.job.elapsed);
    EXPECT_EQ(actual.job.latency.p50_ns(), expected.job.latency.p50_ns());
    EXPECT_EQ(actual.job.latency.p99_ns(), expected.job.latency.p99_ns());
    // Doubles compared exactly on purpose: "equivalent" is not the contract,
    // bit-identical is.
    EXPECT_EQ(actual.point.avg_power_w, expected.point.avg_power_w);
    EXPECT_EQ(actual.point.throughput_mib_s, expected.point.throughput_mib_s);
    EXPECT_EQ(actual.min_power_w, expected.min_power_w);
    EXPECT_EQ(actual.max_power_w, expected.max_power_w);
    EXPECT_EQ(actual.max_window10s_w, expected.max_window10s_w);
  }
}

// An out-of-range device, timeline or job index fails a named check rather
// than reading past the end of a vector.
TEST(TestbedDeathTest, IndexAccessorsCheckTheirRange) {
  Testbed testbed;
  testbed.add_device(devices::DeviceId::kSsd2, 1);
  testbed.add_job(small_randwrite(256 * 1024, 4), 0);
  EXPECT_DEATH(testbed.device(1), "PAS_CHECK failed");
  EXPECT_DEATH(testbed.sim(1), "PAS_CHECK failed");
  EXPECT_DEATH(testbed.job_device(1), "PAS_CHECK failed");
}

TEST(Testbed, ManyDevicesRunUnderOneFleetClock) {
  Testbed testbed;
  const std::size_t a = testbed.add_device(devices::DeviceId::kSsd1, 1);
  const std::size_t b = testbed.add_device(devices::DeviceId::kSsd2, 2);
  iogen::JobSpec spec = small_randwrite(256 * 1024, 16);
  spec.io_limit_bytes = 32 * MiB;
  const std::size_t ja = testbed.add_job(spec, a);
  const std::size_t jb = testbed.add_job(spec, b);
  testbed.start_rigs();
  testbed.run_jobs();
  testbed.stop_rigs();
  // Both jobs completed, and both timelines stand at the fleet clock.
  EXPECT_EQ(testbed.job_result(ja).bytes, 32 * MiB);
  EXPECT_EQ(testbed.job_result(jb).bytes, 32 * MiB);
  EXPECT_GT(testbed.now(), 0);
  EXPECT_EQ(testbed.sim(a).now(), testbed.now());
  EXPECT_EQ(testbed.sim(b).now(), testbed.now());
  // The fleet trace is the pointwise sum of the aligned per-device rigs.
  const power::PowerTrace ta = testbed.device(a).rig->trace();
  const power::PowerTrace tb = testbed.device(b).rig->trace();
  const power::PowerTrace fleet = testbed.take_fleet_trace();
  ASSERT_EQ(fleet.size(), ta.size());
  ASSERT_EQ(fleet.size(), tb.size());
  for (std::size_t i = 0; i < fleet.size(); i += 97) {
    EXPECT_EQ(fleet.time_at(i), ta.time_at(i));
    EXPECT_DOUBLE_EQ(fleet.watts()[i], ta.watts()[i] + tb.watts()[i]);
  }
  // index_of maps routing decisions back to testbed slots.
  EXPECT_EQ(testbed.index_of(testbed.device(b).device.get()), b);
  // measured_power is the ground-truth sum.
  EXPECT_NEAR(testbed.measured_power(),
              testbed.device(a).device->instantaneous_power() +
                  testbed.device(b).device->instantaneous_power(),
              1e-12);
}

void expect_same_result(const iogen::JobResult& a, const iogen::JobResult& b) {
  EXPECT_EQ(a.ios, b.ios);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.slo_ios, b.slo_ios);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean_ns(), b.latency.mean_ns());
  EXPECT_EQ(a.latency.min_ns(), b.latency.min_ns());
  EXPECT_EQ(a.latency.max_ns(), b.latency.max_ns());
  EXPECT_EQ(a.latency.p99_ns(), b.latency.p99_ns());
}

void expect_same_trace(const power::PowerTrace& a, const power::PowerTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.time_at(i), b.time_at(i)) << "sample " << i;
    ASSERT_EQ(a.watts()[i], b.watts()[i]) << "sample " << i;  // bit-identity
  }
}

// What one timeline per device relies on: devices never touch each other.
// Each device's job result, energy and rig trace equal, bit for bit, those
// of the same device and job alone on a one-device Testbed run to the same
// end time. The jobs end at different times, so the early finishers coast
// to the last one's finish inside run_jobs().
TEST(Testbed, DevicesMatchTheirSoloRuns) {
  const devices::DeviceId ids[] = {devices::DeviceId::kSsd1, devices::DeviceId::kSsd2,
                                   devices::DeviceId::kHdd};
  const auto job_for = [](std::size_t i) {
    iogen::JobSpec spec = small_randwrite(256 * 1024, 8);
    spec.io_limit_bytes = (i == 2 ? 4 : 16 * (i + 1)) * MiB;
    spec.seed = 60 + i;
    return spec;
  };
  Testbed fleet;
  for (std::size_t i = 0; i < 3; ++i) {
    fleet.add_device(ids[i], 50 + i);
    fleet.add_job(job_for(i), i);
  }
  fleet.start_rigs();
  fleet.run_jobs();
  fleet.advance(milliseconds(50));
  const TimeNs end = fleet.now();
  std::set<TimeNs> finishes;
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(devices::label(ids[i]));
    Testbed solo;
    solo.add_device(ids[i], 50 + i);
    const std::size_t j = solo.add_job(job_for(i), 0);
    solo.start_rigs();
    solo.run_jobs();
    finishes.insert(solo.now());
    solo.run_epoch(end);
    expect_same_result(fleet.job_result(i), solo.job_result(j));
    EXPECT_EQ(fleet.device(i).device->consumed_energy(),
              solo.device(0).device->consumed_energy());
    const power::PowerTrace& trace = fleet.device(i).rig->trace();
    ASSERT_GT(trace.size(), 50u);
    expect_same_trace(trace, solo.device(0).rig->trace());
  }
  EXPECT_EQ(finishes.size(), 3u);  // every device but the last one coasted
}

TEST(Testbed, RunJobsIsRepeatableForPhasedScenarios) {
  Testbed testbed;
  const std::size_t d = testbed.add_device(devices::DeviceId::kSsd2, 1);
  iogen::JobSpec spec = small_randwrite(256 * 1024, 8);
  spec.io_limit_bytes = 16 * MiB;
  const std::size_t j1 = testbed.add_job(spec, d);
  testbed.run_jobs();
  const std::uint64_t first_bytes = testbed.job_result(j1).bytes;
  const TimeNs t1 = testbed.now();
  // Phase two: a new job on the SAME timeline; the first result survives.
  const std::size_t j2 = testbed.add_job(spec, d);
  testbed.run_jobs();
  EXPECT_EQ(testbed.job_result(j1).bytes, first_bytes);
  EXPECT_EQ(testbed.job_result(j2).bytes, 16 * MiB);
  EXPECT_GT(testbed.now(), t1);
}

// A single-device Testbed and a fresh standalone run with the same seed are
// event-for-event identical — the determinism contract the header promises.
TEST(Testbed, SingleDeviceRunIsReproducible) {
  auto run_once = [] {
    Testbed testbed;
    const std::size_t d = testbed.add_device(devices::DeviceId::kSsd2, 5);
    iogen::JobSpec spec = small_randwrite(64 * 1024, 32);
    spec.io_limit_bytes = 32 * MiB;
    const std::size_t j = testbed.add_job(spec, d);
    testbed.start_rigs();
    testbed.run_jobs();
    testbed.stop_rigs();
    return std::pair{testbed.job_result(j).elapsed,
                     testbed.device(d).rig->trace().mean_power()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Open-loop arrivals are kernel events, so where the epochs fall cannot
// change what a job sees: arrivals due during an advance() are issued on
// time, not in one burst when the next epoch starts.
TEST(Testbed, OpenLoopResultsIgnoreEpochBoundaries) {
  auto run = [](bool split) {
    Testbed testbed;
    const std::size_t d = testbed.add_device(devices::DeviceId::kSsd2, 7);
    iogen::JobSpec spec;
    spec.pattern = iogen::Pattern::kRandom;
    spec.op = iogen::OpKind::kRead;
    spec.block_bytes = 4096;
    spec.io_limit_bytes = 0;
    spec.time_limit = seconds(1);
    spec.arrival.kind = iogen::ArrivalKind::kPoisson;
    spec.arrival.rate_iops = 2000.0;
    spec.slo_latency = microseconds(200);
    const std::size_t j = testbed.add_job(spec, d);
    if (split) {
      EXPECT_FALSE(testbed.run_epoch(milliseconds(300)));
      testbed.advance(milliseconds(400));
    }
    EXPECT_TRUE(testbed.run_epoch(seconds(2)));
    return testbed.job_result(j);
  };
  const iogen::JobResult straight = run(false);
  const iogen::JobResult split = run(true);
  ASSERT_GT(straight.ios, 1800u);
  EXPECT_EQ(split.ios, straight.ios);
  EXPECT_EQ(split.latency.mean_ns(), straight.latency.mean_ns());
  EXPECT_EQ(split.latency.p99_ns(), straight.latency.p99_ns());
  EXPECT_EQ(split.slo_violations, straight.slo_violations);
}

// Regression: take_fleet_trace() must leave the testbed in a valid,
// reusable state (every rig holds a fresh empty trace after the move), so a
// phased scenario can take, run another phase, and take again — and a
// second take with no intervening samples yields an empty trace instead of
// tripping over moved-from rigs.
TEST(Testbed, TakeFleetTraceLeavesReusableStateAndDoubleTakeIsEmpty) {
  Testbed testbed;
  const std::size_t d = testbed.add_device(devices::DeviceId::kSsd2, 11);
  testbed.add_device(devices::DeviceId::kSsd1, 12);
  iogen::JobSpec spec = small_randwrite(256 * 1024, 8);
  spec.io_limit_bytes = 8 * MiB;

  testbed.add_job(spec, d);
  testbed.start_rigs();
  testbed.run_jobs();
  testbed.stop_rigs();
  const power::PowerTrace first = testbed.take_fleet_trace();
  EXPECT_GT(first.size(), 0u);

  // Double take, no new samples: empty, not an abort or stale data.
  const power::PowerTrace empty_again = testbed.take_fleet_trace();
  EXPECT_EQ(empty_again.size(), 0u);

  // Phase two on the same testbed: rigs restart cleanly and the next take
  // sees only the new phase's samples (it starts after phase one ended).
  testbed.add_job(spec, d);
  testbed.start_rigs();
  testbed.run_jobs();
  testbed.stop_rigs();
  const power::PowerTrace second = testbed.take_fleet_trace();
  ASSERT_GT(second.size(), 0u);
  EXPECT_GT(second.start_time(), first.end_time());
}

// The fleet sum depends only on the samples. A simulator callback that
// reads a non-first rig's trace mid-run (materializing that rig ahead of the
// others) must leave the streaming-sum fleet trace bit-identical to the
// full-trace merge. Three devices: a sum of two doubles commutes, so only a
// third operand exposes a sum order that follows flush order.
TEST(Testbed, StreamingSumUnchangedByMidRunRigRead) {
  auto run_mode = [](TraceMode mode) {
    Testbed testbed;
    testbed.set_trace_mode(mode);
    const devices::DeviceId ids[] = {devices::DeviceId::kSsd1, devices::DeviceId::kSsd2,
                                     devices::DeviceId::kHdd};
    for (std::size_t i = 0; i < 3; ++i) {
      testbed.add_device(ids[i], 30 + i);
      iogen::JobSpec spec = small_randwrite(256 * 1024, 8);
      spec.io_limit_bytes = 0;
      spec.time_limit = milliseconds(200);
      spec.seed = 40 + i;
      testbed.add_job(spec, i);
    }
    // Each read runs on the timeline of the rig it reads: on another
    // device's timeline the rig's clock would not have moved.
    testbed.sim(2).schedule_at(milliseconds(77), [&testbed] { testbed.device(2).rig->trace(); });
    testbed.sim(1).schedule_at(milliseconds(131), [&testbed] { testbed.device(1).rig->trace(); });
    testbed.start_rigs();
    testbed.run_jobs();
    testbed.stop_rigs();
    return testbed.take_fleet_trace();
  };
  const power::PowerTrace full = run_mode(TraceMode::kFullTraces);
  const power::PowerTrace streaming = run_mode(TraceMode::kStreamingSum);
  ASSERT_GT(full.size(), 150u);
  ASSERT_EQ(streaming.size(), full.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(streaming.time_at(i), full.time_at(i)) << "sample " << i;
    // Exact comparison: the contract is bit-identity.
    if (streaming.watts()[i] != full.watts()[i]) ++differing;
  }
  EXPECT_EQ(differing, 0u) << "of " << full.size() << " fleet samples";
}

model::ExperimentPoint fleet_option(int ps, double watts, double mib_s) {
  model::ExperimentPoint p;
  p.power_state = ps;
  p.workload = "randwrite";
  p.chunk_bytes = 256 * 1024;
  p.queue_depth = 64;
  p.avg_power_w = watts;
  p.throughput_mib_s = mib_s;
  return p;
}

// ISSUE acceptance: the section 4 controller driving a LIVE fleet — two
// SSD2-class drives plus the HDD on one Testbed timeline, budget stepped
// down and back up, real write jobs routed by the adapter each phase — keeps
// the MEASURED 10 s-window fleet power at or under every budget step.
TEST(FleetAdapter, MeasuredFleetPowerRespectsEveryBudgetStep) {
  Testbed testbed;
  std::vector<FleetDeviceOptions> opts;
  for (int i = 0; i < 2; ++i) {
    testbed.add_device(devices::DeviceId::kSsd2, 1 + static_cast<std::uint64_t>(i));
    FleetDeviceOptions d;
    d.name = "ssd" + std::to_string(i);
    // Conservative measured options: planned power slightly above what the
    // device actually draws in that configuration, so plan >= measurement.
    d.options = {fleet_option(0, 15.3, 3100.0), fleet_option(1, 12.2, 2300.0),
                 fleet_option(2, 10.2, 1650.0)};
    opts.push_back(std::move(d));
  }
  testbed.add_device(devices::DeviceId::kHdd, 3);
  {
    FleetDeviceOptions d;
    d.name = "hdd";
    d.options = {fleet_option(0, 5.4, 150.0)};
    d.supports_standby = true;
    d.standby_power_w = 1.05;
    opts.push_back(std::move(d));
  }
  FleetAdapter adapter(testbed, std::move(opts));

  // 36.0 full tilt -> 27.5 (power states) -> 21.5 (parks the HDD) -> back.
  const Watts budgets[] = {36.0, 27.5, 21.5, 36.0};
  int phase = 0;
  for (const Watts budget : budgets) {
    ++phase;
    const auto plan = adapter.set_power_budget(budget);
    ASSERT_TRUE(plan.has_value()) << "budget " << budget;
    EXPECT_LE(adapter.controller().planned_power(), budget + 1e-9);
    int writers = 0;
    for (const auto& cfg : *plan) {
      if (!cfg.standby && cfg.planned_throughput_mib_s > 0.0) ++writers;
    }
    ASSERT_GT(writers, 0) << "budget " << budget;
    // Live, time-limited write jobs routed through the adapter; 11 s phases
    // so the NVMe-style 10 s power window is fully inside the measurement.
    std::set<std::size_t> targets;
    for (int w = 0; w < writers; ++w) {
      iogen::JobSpec spec;
      spec.pattern = iogen::Pattern::kRandom;
      spec.op = iogen::OpKind::kWrite;
      spec.block_bytes = 256 * KiB;
      spec.iodepth = 64;
      spec.io_limit_bytes = 0;  // purely time-limited
      spec.time_limit = seconds(11);
      spec.seed = static_cast<std::uint64_t>(phase) * 100 + static_cast<std::uint64_t>(w);
      targets.insert(testbed.job_device(adapter.submit(spec, /*shape_to_plan=*/true)));
    }
    // The redirection policy spreads the writers over distinct plan targets.
    EXPECT_EQ(targets.size(), static_cast<std::size_t>(writers));
    testbed.start_rigs();
    testbed.run_jobs();
    testbed.stop_rigs();
    const power::PowerTrace fleet = testbed.take_fleet_trace();
    ASSERT_GE(fleet.duration(), seconds(10));
    EXPECT_LE(fleet.max_window_average(seconds(10)), budget)
        << "phase " << phase << " budget " << budget;
  }
  // The 21.5 W phase parked the HDD; the restore phase woke it again.
  EXPECT_EQ(testbed.device(2).pm->ata_power_mode(), sim::AtaPowerMode::kActiveIdle);
}

TEST(FleetAdapter, ParksAndWakesTheHddAcrossBudgetSteps) {
  Testbed testbed;
  std::vector<FleetDeviceOptions> opts;
  testbed.add_device(devices::DeviceId::kSsd2, 1);
  {
    FleetDeviceOptions d;
    d.name = "ssd";
    d.options = {fleet_option(0, 15.3, 3100.0), fleet_option(2, 10.2, 1650.0)};
    opts.push_back(std::move(d));
  }
  testbed.add_device(devices::DeviceId::kHdd, 2);
  {
    FleetDeviceOptions d;
    d.name = "hdd";
    d.options = {fleet_option(0, 5.4, 150.0)};
    d.supports_standby = true;
    d.standby_power_w = 1.05;
    opts.push_back(std::move(d));
  }
  FleetAdapter adapter(testbed, std::move(opts));
  // 11.5 W: only ssd@ps2 (10.2) + hdd standby (1.05) fits.
  ASSERT_TRUE(adapter.set_power_budget(11.5).has_value());
  testbed.advance(seconds(10));
  EXPECT_EQ(testbed.device(1).pm->ata_power_mode(), sim::AtaPowerMode::kStandby);
  EXPECT_NEAR(testbed.device(1).device->instantaneous_power(), 1.05, 1e-9);
  // While parked, writes must never route to the HDD.
  for (int i = 0; i < 6; ++i) {
    iogen::JobSpec spec;
    spec.op = iogen::OpKind::kWrite;
    spec.io_limit_bytes = 4 * MiB;
    EXPECT_EQ(testbed.job_device(adapter.submit(spec)), 0u);
  }
  // Restore: the HDD spins back up.
  ASSERT_TRUE(adapter.set_power_budget(36.0).has_value());
  testbed.advance(seconds(30));
  EXPECT_EQ(testbed.device(1).pm->ata_power_mode(), sim::AtaPowerMode::kActiveIdle);
}

}  // namespace
}  // namespace pas::core
