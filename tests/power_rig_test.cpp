#include "power/rig.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"
#include "fake_device.h"

namespace pas::power {
namespace {

using testing::FakePowerDevice;

RigConfig default_rig() { return RigConfig{}; }

TEST(MeasurementRig, SamplesAtConfiguredRate) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 5.0);
  MeasurementRig rig(sim, dev, default_rig(), 1);
  rig.start();
  sim.run_until(seconds(1));
  rig.stop();
  EXPECT_EQ(rig.trace().size(), 1000u);
}

TEST(MeasurementRig, StopHaltsSampling) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 5.0);
  MeasurementRig rig(sim, dev, default_rig(), 1);
  rig.start();
  sim.run_until(milliseconds(100));
  rig.stop();
  sim.run_until(seconds(1));
  EXPECT_EQ(rig.trace().size(), 100u);
}

// The paper claims < 1% relative error for the calibrated rig. Characterize
// measure_once across the operating range of every device in Table 1.
class RigAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(RigAccuracyTest, CalibratedErrorBelowOnePercent) {
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  // Average over repeated conversions to separate systematic error from
  // noise, as the paper's per-experiment averages do.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    MeasurementRig rig(sim, dev, default_rig(), seed);
    const double truth = GetParam();
    double sum = 0.0;
    const int n = 1000;
    for (int i = 0; i < n; ++i) sum += rig.measure_once(truth);
    const double measured = sum / n;
    EXPECT_NEAR(measured, truth, truth * 0.01) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(PowerRange, RigAccuracyTest,
                         ::testing::Values(0.17, 0.35, 1.0, 3.5, 5.0, 8.19, 13.5, 15.1, 25.0));

TEST(MeasurementRig, UncalibratedHasLargerSpread) {
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  double worst_cal = 0.0;
  double worst_uncal = 0.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RigConfig cal = default_rig();
    RigConfig uncal = default_rig();
    uncal.calibrated = false;
    // Give the uncalibrated rig a visible offset to recover (it cannot).
    uncal.amp_offset_v = 0.005;
    cal.amp_offset_v = 0.005;
    MeasurementRig rig_cal(sim, dev, cal, seed);
    MeasurementRig rig_uncal(sim, dev, uncal, seed);
    const double truth = 5.0;
    double sum_cal = 0.0;
    double sum_uncal = 0.0;
    for (int i = 0; i < 200; ++i) {
      sum_cal += rig_cal.measure_once(truth);
      sum_uncal += rig_uncal.measure_once(truth);
    }
    worst_cal = std::max(worst_cal, std::abs(sum_cal / 200 - truth) / truth);
    worst_uncal = std::max(worst_uncal, std::abs(sum_uncal / 200 - truth) / truth);
  }
  EXPECT_LT(worst_cal, 0.01);
  EXPECT_GT(worst_uncal, worst_cal);
}

TEST(MeasurementRig, IntegratingModeCapturesSubSampleBursts) {
  // A burst much shorter than the sample period must still contribute its
  // energy when the rig integrates (delta-sigma behaviour).
  sim::Simulator sim;
  FakePowerDevice dev(sim, 1.0);
  RigConfig cfg = default_rig();
  cfg.sample_period = milliseconds(10);
  MeasurementRig rig(sim, dev, cfg, 7);
  rig.start();
  // 1 ms burst at 101 W in the middle of a 10 ms sampling interval.
  sim.schedule_at(milliseconds(12), [&] { dev.set_power(101.0); });
  sim.schedule_at(milliseconds(13), [&] { dev.set_power(1.0); });
  sim.run_until(milliseconds(100));
  rig.stop();
  // Average over [10ms, 20ms) = (9*1 + 1*101)/10 = 11 W.
  const PowerTrace& trace = rig.trace();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_NEAR(trace.watts()[1], 11.0, 0.5);
}

TEST(MeasurementRig, InstantaneousModeMissesSubSampleBursts) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 1.0);
  RigConfig cfg = default_rig();
  cfg.sample_period = milliseconds(10);
  cfg.integrating = false;
  MeasurementRig rig(sim, dev, cfg, 7);
  rig.start();
  sim.schedule_at(milliseconds(12), [&] { dev.set_power(101.0); });
  sim.schedule_at(milliseconds(13), [&] { dev.set_power(1.0); });
  sim.run_until(milliseconds(100));
  rig.stop();
  // Every sample lands outside the burst: the point sampler reports ~1 W.
  for (const double w : rig.trace().watts()) EXPECT_LT(w, 2.0);
}

TEST(MeasurementRig, EnergyConservationAgainstGroundTruth) {
  // Trace-derived energy must match the device's exact energy counter.
  sim::Simulator sim;
  FakePowerDevice dev(sim, 2.0);
  MeasurementRig rig(sim, dev, default_rig(), 3);
  rig.start();
  // Step the device through a power staircase.
  for (int i = 1; i <= 9; ++i) {
    sim.schedule_at(seconds(i), [&dev, i] { dev.set_power(2.0 + i); });
  }
  sim.run_until(seconds(10));
  rig.stop();
  const double truth = dev.consumed_energy();
  const double measured = rig.trace().energy();
  // First sample interval is excluded by the rectangle rule; tolerate 1%.
  EXPECT_NEAR(measured, truth, truth * 0.01);
}

TEST(MeasurementRig, TakeTraceResets) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 5.0);
  MeasurementRig rig(sim, dev, default_rig(), 1);
  rig.start();
  sim.run_until(milliseconds(50));
  const PowerTrace t = rig.take_trace();
  EXPECT_EQ(t.size(), 50u);
  EXPECT_TRUE(rig.trace().empty());
  sim.run_until(milliseconds(100));
  EXPECT_EQ(rig.trace().size(), 50u);
}

// Rack rigs (the streaming-sum fleets) run decimated to 100 Hz.
TEST(MeasurementRigStreaming, DecimatedRigSamplesAtTheNewRate) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 4.0);
  MeasurementRig rig(sim, dev, RigConfig{}, 7);
  rig.set_sample_period(milliseconds(10));  // 1 kHz -> 100 Hz
  rig.start();
  sim.run_until(seconds(2));
  rig.stop();
  EXPECT_EQ(rig.trace().size(), 200u);
}

TEST(MeasurementRig, ZeroPowerReadsNearZero) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 0.0);
  MeasurementRig rig(sim, dev, default_rig(), 9);
  rig.start();
  sim.run_until(milliseconds(100));
  EXPECT_LT(rig.trace().mean_power(), 0.05);
}

}  // namespace
}  // namespace pas::power
