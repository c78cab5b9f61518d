// Bit-identity matrix for segment-lazy rig sampling (DESIGN.md section 13):
// a lazy rig and a per-tick reference sampler observe the SAME power
// schedule from twin simulators and must emit byte-identical traces,
// integrating and instantaneous, calibrated and not, at 1 kHz and the
// decimated 100 Hz — including when the lazy trace is read mid-run.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/units.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "fake_device.h"
#include "power/rig.h"
#include "sim/simulator.h"

namespace pas::power {
namespace {

using testing::FakePowerDevice;

// One rig over one fake device on its own timeline, fed an irregular power
// schedule. Change times are deliberately off the ADC tick grid (odd
// microsecond offsets) — on-grid changes tie with the reference sampler's
// tick events, where the instantaneous convention is allowed to differ (a
// measure-zero case; integrating mode is immune and covered by the
// *_OnGridChanges cases below).
struct Column {
  sim::Simulator sim;
  FakePowerDevice dev;
  MeasurementRig rig;

  Column(RigConfig rc, std::uint64_t seed) : dev(sim, 1.5), rig(sim, dev, rc, seed) {}

  void schedule(const std::vector<std::pair<TimeNs, Watts>>& plan) {
    for (const auto& [t, w] : plan) {
      sim.schedule_at(t, [this, w = w] { dev.set_power(w); });
    }
  }
};

// The per-tick reference sampler, built from public API: one kernel event
// per ADC tick reads the device's exact energy counter (integrating) or its
// instantaneous power, and measure_once on the column's rig — a twin that is
// never started — converts the reading. The twin shares the lazy rig's
// seed, so it draws the same chain constants and then the same noise stream,
// one sample per tick. Every sample lands in `sunk`, in tick order.
struct ReferenceColumn : Column {
  sim::PeriodicTask task;
  std::vector<std::pair<TimeNs, Watts>> sunk;
  Joules last_energy = 0.0;
  TimeNs last_t = 0;

  ReferenceColumn(RigConfig rc, std::uint64_t seed)
      : Column(rc, seed), task(sim, rc.sample_period, [this] { tick(); }) {}

  void start() {
    last_energy = dev.consumed_energy();
    last_t = sim.now();
    task.start();
  }
  void stop() { task.stop(); }

  void tick() {
    const TimeNs now = sim.now();
    Watts true_power;
    if (rig.config().integrating) {
      const Joules energy = dev.consumed_energy();
      true_power = (energy - last_energy) / to_seconds(now - last_t);
      last_energy = energy;
      last_t = now;
    } else {
      true_power = dev.instantaneous_power();
    }
    sunk.emplace_back(now, rig.measure_once(true_power));
  }

  PowerTrace trace() const {
    PowerTrace t;
    for (const auto& [at, w] : sunk) t.add(at, w);
    return t;
  }
};

std::vector<std::pair<TimeNs, Watts>> off_grid_plan() {
  return {
      {microseconds(137), 5.25},     {microseconds(1803), 0.17},
      {milliseconds(7), 3.5},        // on the 1 kHz grid but not the 100 Hz one
      {microseconds(12345), 8.19},   {microseconds(12345), 8.19},  // same-t rewrite
      {microseconds(33333), 0.0},    {microseconds(51007), 13.5},
      {microseconds(88889), 13.5},   // same-value change at a new time
      {microseconds(140411), 2.75},
  };
}

void expect_identical_traces(const PowerTrace& lazy, const PowerTrace& ref) {
  ASSERT_EQ(lazy.size(), ref.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    ASSERT_EQ(lazy.time_at(i), ref.time_at(i)) << "sample " << i;
    // Exact double equality: the contract is bit-identity, not closeness.
    ASSERT_EQ(lazy.watts()[i], ref.watts()[i]) << "sample " << i;
  }
}

void run_matrix_case(bool integrating, bool calibrated, TimeNs period, bool read_mid_run) {
  RigConfig rc;
  rc.integrating = integrating;
  rc.calibrated = calibrated;
  rc.sample_period = period;

  const std::uint64_t seed = 42;
  Column lazy(rc, seed);
  ReferenceColumn ref(rc, seed);
  const auto plan = off_grid_plan();
  lazy.schedule(plan);
  ref.schedule(plan);
  lazy.rig.start();
  ref.start();

  lazy.sim.run_until(milliseconds(60));
  ref.sim.run_until(milliseconds(60));
  if (read_mid_run) {
    // Mid-run reads materialize; they must not perturb later samples.
    ASSERT_EQ(lazy.rig.trace().size(), ref.sunk.size());
  }
  lazy.sim.run_until(milliseconds(150));
  ref.sim.run_until(milliseconds(150));
  lazy.rig.stop();
  ref.stop();

  expect_identical_traces(lazy.rig.trace(), ref.trace());
  ASSERT_GT(lazy.rig.trace().size(), 0u);
}

TEST(SegmentLazyMatrix, AllModesBitIdentical) {
  for (bool integrating : {true, false}) {
    for (bool calibrated : {true, false}) {
      for (TimeNs period : {milliseconds(1), milliseconds(10)}) {
        for (bool read_mid_run : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "integrating=" << integrating << " calibrated=" << calibrated
                       << " period_ns=" << period << " mid_read=" << read_mid_run);
          run_matrix_case(integrating, calibrated, period, read_mid_run);
        }
      }
    }
  }
}

// Integrating mode is immune to power changes landing exactly on ADC ticks:
// the meter advanced its energy accumulator with the closing segment's exact
// arithmetic, so the tick's energy expression is bit-identical whether the
// tick is taken under the closing or the opening segment.
TEST(SegmentLazyMatrix, IntegratingImmuneToOnGridChanges) {
  RigConfig rc;  // integrating by default
  Column lazy(rc, 7);
  ReferenceColumn ref(rc, 7);
  const std::vector<std::pair<TimeNs, Watts>> plan = {
      {milliseconds(3), 4.0},   // exactly on a tick
      {milliseconds(10), 9.0},  // exactly on a tick
      {milliseconds(10), 9.0},  // and rewritten at the same instant
      {milliseconds(17), 0.5},
  };
  lazy.schedule(plan);
  ref.schedule(plan);
  lazy.rig.start();
  ref.start();
  lazy.sim.run_until(milliseconds(25));
  ref.sim.run_until(milliseconds(25));
  lazy.rig.stop();
  ref.stop();
  expect_identical_traces(lazy.rig.trace(), ref.trace());
}

// A tick landing exactly on the stop instant belongs to the run — exactly as
// the reference sampler's tick event fires before control returns.
TEST(SegmentLazyMatrix, TickAtStopInstantIncluded) {
  Column lazy(RigConfig{}, 3);
  lazy.rig.start();
  lazy.sim.run_until(milliseconds(5));
  lazy.rig.stop();
  ASSERT_EQ(lazy.rig.trace().size(), 5u);
  ASSERT_EQ(lazy.rig.trace().time_at(4), milliseconds(5));
}

// Restarting after a stop must not re-deliver or skip ticks.
TEST(SegmentLazyMatrix, StopRestartMatchesReference) {
  RigConfig rc;
  Column lazy(rc, 11);
  ReferenceColumn ref(rc, 11);
  const auto plan = off_grid_plan();
  lazy.schedule(plan);
  ref.schedule(plan);
  lazy.rig.start();
  lazy.sim.run_until(microseconds(20500));
  lazy.rig.stop();
  lazy.sim.run_until(microseconds(70300));
  lazy.rig.start();
  lazy.sim.run_until(milliseconds(150));
  lazy.rig.stop();
  ref.start();
  ref.sim.run_until(microseconds(20500));
  ref.stop();
  ref.sim.run_until(microseconds(70300));
  ref.start();
  ref.sim.run_until(milliseconds(150));
  ref.stop();
  expect_identical_traces(lazy.rig.trace(), ref.trace());
  ASSERT_GT(ref.sunk.size(), 0u);
}

// The set_sample_period lifetime precondition outlives the trace: once
// samples have been dispatched out of the rig with take_trace() (as the
// fleet hosts drain rigs into the fleet sum), the rig again holds an empty
// trace, yet re-timing still aborts with an error naming the rig.
TEST(SegmentLazyMatrixDeathTest, RetimeAfterSinkDispatchAborts) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 2.0);
  MeasurementRig rig(sim, dev, RigConfig{}, 1);
  rig.start();
  sim.run_until(milliseconds(3));
  rig.stop();
  ASSERT_EQ(rig.take_trace().size(), 3u);
  ASSERT_TRUE(rig.trace().empty());
  EXPECT_DEATH(rig.set_sample_period(milliseconds(10)), "fake.*before any sample");
}

TEST(SegmentLazyMatrixDeathTest, RetimeWhileRunningAborts) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 2.0);
  MeasurementRig rig(sim, dev, RigConfig{}, 1);
  rig.start();
  EXPECT_DEATH(rig.set_sample_period(milliseconds(10)), "stopped");
}

// Sharded streaming-sum fleet: rigs materialize inside the shard workers
// (run under TSan via the tsan preset), and the fleet trace is
// byte-identical between 1 worker and K workers.
TEST(SegmentLazyMatrix, ShardedStreamingSumWorkerCountInvariant) {
  auto run = [](int workers) {
    core::ShardedTestbed host(2, workers);
    host.set_trace_mode(core::TraceMode::kStreamingSum);
    for (std::size_t i = 0; i < 4; ++i) {
      host.add_device(devices::DeviceId::kSsd1, 100 + i);
    }
    iogen::JobSpec spec;
    spec.op = iogen::OpKind::kRead;
    spec.pattern = iogen::Pattern::kRandom;
    spec.block_bytes = 4096;
    spec.iodepth = 4;
    spec.io_limit_bytes = 200 * 4096;
    spec.time_limit = milliseconds(80);
    for (std::size_t i = 0; i < 4; ++i) {
      spec.seed = 7 + i;
      host.add_job(spec, i);
    }
    host.start_rigs();
    host.run_epoch(host.now() + milliseconds(40));
    host.run_jobs();
    host.stop_rigs();
    return host.take_fleet_trace();
  };
  const PowerTrace serial = run(1);
  const PowerTrace parallel = run(2);
  expect_identical_traces(parallel, serial);
  ASSERT_GT(serial.size(), 0u);
}

}  // namespace
}  // namespace pas::power
