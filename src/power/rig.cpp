#include "power/rig.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"

namespace pas::power {

MeasurementRig::MeasurementRig(sim::Simulator& sim, sim::BlockDevice& device,
                               RigConfig config, std::uint64_t noise_seed)
    : sim_(sim),
      device_(device),
      config_(config),
      rng_(noise_seed) {
  PAS_CHECK(config_.rail_voltage_v > 0.0);
  PAS_CHECK(config_.shunt_ohms > 0.0);
  PAS_CHECK(config_.amp_gain > 0.0);
  PAS_CHECK(config_.adc_bits >= 8 && config_.adc_bits <= 32);
  PAS_CHECK(config_.sample_period > 0);

  adc_full_scale_ = static_cast<double>(1LL << (config_.adc_bits - 1));
  adc_code_min_ = -adc_full_scale_;
  adc_code_max_ = adc_full_scale_ - 1.0;

  auto uniform_pm = [this](double mag) { return (2.0 * rng_.next_double() - 1.0) * mag; };

  // The physical parts deviate from their nominal values within tolerance.
  actual_shunt_ohms_ = config_.shunt_ohms * (1.0 + uniform_pm(config_.shunt_tolerance));
  actual_gain_ = config_.amp_gain * (1.0 + uniform_pm(config_.amp_gain_error));
  actual_offset_v_ = uniform_pm(config_.amp_offset_v);

  if (config_.calibrated) {
    // Two-point calibration recovers the chain constants up to the accuracy
    // of the reference loads (~0.2% gain, ~20 uV offset).
    recon_gain_ = actual_gain_ * actual_shunt_ohms_ / config_.shunt_ohms *
                  (1.0 + uniform_pm(0.002));
    recon_offset_v_ = actual_offset_v_ + uniform_pm(0.00002);
  } else {
    recon_gain_ = config_.amp_gain;
    recon_offset_v_ = 0.0;
  }
}

MeasurementRig::~MeasurementRig() {
  // Detach without materializing: pending samples die with the trace they
  // would have landed in.
  if (started_) device_.set_power_observer(nullptr);
}

void MeasurementRig::fail(const char* what) const {
  const std::string msg = "rig on device '" + device_.name() + "': " + what;
  PAS_CHECK_MSG(false, msg.c_str());
}

void MeasurementRig::start() {
  if (started_) return;
  started_ = true;
  last_energy_ = device_.consumed_energy();
  last_sample_time_ = sim_.now();
  // Snapshot the meter's exact open segment, then mirror every update from
  // here on. The first tick is one period out.
  seg_ = device_.power_segment();
  next_tick_ = sim_.now() + config_.sample_period;
  device_.set_power_observer(this);
}

void MeasurementRig::stop() {
  if (!started_) return;
  // A tick landing exactly on now() belongs to this run, as a per-tick
  // sampler's tick event fires before the caller regains control.
  materialize();
  device_.set_power_observer(nullptr);
  started_ = false;
}

void MeasurementRig::on_power_update(const sim::PowerSegment& seg) {
  // Ticks strictly before the update were taken under the closing segment.
  // A tick exactly at seg.since stays pending: the energy expression is
  // bit-identical under either segment (the meter advanced its accumulator
  // with exactly the closing segment's arithmetic), and the instantaneous
  // convention is "last level set at or before the tick".
  while (next_tick_ < seg.since) push_tick();
  seg_ = seg;
}

void MeasurementRig::push_tick() {
  const TimeNs now = next_tick_;
  double true_power;
  if (config_.integrating) {
    // Same operands the live tick's device_.consumed_energy() produced:
    // the meter's post-update state is mirrored in seg_.
    const Joules energy = seg_.energy_before + seg_.power * to_seconds(now - seg_.since);
    const TimeNs dt = now - last_sample_time_;
    PAS_CHECK(dt > 0);
    true_power = (energy - last_energy_) / to_seconds(dt);
    last_energy_ = energy;
    last_sample_time_ = now;
  } else {
    true_power = seg_.power;
  }
  if (pending_raw_.empty()) pending_first_t_ = now;
  pending_raw_.push_back(true_power);
  next_tick_ += config_.sample_period;
}

void MeasurementRig::materialize() {
  if (started_) {
    const TimeNs now = sim_.now();
    while (next_tick_ <= now) push_tick();
  }
  flush_pending();
}

void MeasurementRig::flush_pending() {
  if (pending_raw_.empty()) return;
  const TimeNs period = config_.sample_period;
  const std::size_t n = pending_raw_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Exact integer grid arithmetic: the i-th pending tick's timestamp.
    const TimeNs t = pending_first_t_ + static_cast<TimeNs>(i) * period;
    trace_.add(t, measure_once(pending_raw_[i]));
  }
  samples_emitted_ += n;
  pending_raw_.clear();
}

const PowerTrace& MeasurementRig::trace() const {
  // Logically const: which samples exist depends only on now() and the
  // segment history, not on when the batch loop runs.
  const_cast<MeasurementRig*>(this)->materialize();
  return trace_;
}

PowerTrace MeasurementRig::take_trace() {
  materialize();
  PowerTrace out = std::move(trace_);
  trace_ = PowerTrace{};
  return out;
}

void MeasurementRig::set_sample_period(TimeNs period) {
  PAS_CHECK(period > 0);
  // Lifetime precondition: a sample already moved out by take_trace() is as
  // immutable as one still retained, so re-timing after either would
  // silently bend the grid under the fleet sum. A stopped rig has no
  // pending ticks (stop() materializes), so the lifetime count covers all.
  if (started_) fail("re-time the ADC while the rig is stopped");
  if (samples_emitted_ != 0) fail("re-time the ADC before any sample is taken");
  config_.sample_period = period;
}

Watts MeasurementRig::measure_once(Watts true_power) {
  PAS_CHECK(true_power >= 0.0);
  // Forward path: power -> rail current -> shunt differential voltage ->
  // amplifier (gain error, offset, input noise) -> ADC code.
  const double current_a = true_power / config_.rail_voltage_v;
  const double shunt_v = current_a * actual_shunt_ohms_;
  const double noise_v = rng_.next_gaussian(0.0, config_.amp_noise_v_rms);
  const double amp_v = (shunt_v + actual_offset_v_ + noise_v) * actual_gain_;

  double code = std::round(amp_v / config_.adc_vref_v * adc_full_scale_);
  code += std::round(rng_.next_gaussian(0.0, config_.adc_noise_lsb_rms));
  code = std::clamp(code, adc_code_min_, adc_code_max_);
  const double adc_v = code / adc_full_scale_ * config_.adc_vref_v;

  // Reconstruction with the calibrated chain constants.
  const double est_shunt_v = adc_v / recon_gain_ - recon_offset_v_;
  const double est_current_a = est_shunt_v / config_.shunt_ohms;
  return std::max(0.0, est_current_a * config_.rail_voltage_v);
}

}  // namespace pas::power
