// Model of the paper's power measurement infrastructure (Figure 1):
//
//   device power rail -> 0.1 ohm shunt resistor -> differential amplifier
//   -> 24-bit ADC (TI ADS1256, 1 kHz) -> Arduino UNO -> data logger
//
// The rig samples a device's ground-truth power through the full analog
// chain: the shunt converts current to a differential voltage (dV = I*R),
// the amplifier adds gain error, offset and input-referred noise, and the
// ADC quantizes at finite resolution and sample rate. Reconstruction uses
// the *nominal* chain constants plus a calibration pass, as the physical
// rig does; residual systematic error stays below 1% (validated in tests).
//
// Sampling is SEGMENT-LAZY (DESIGN.md section 13): the rig schedules no
// simulator events. It mirrors the device's piecewise-constant power signal
// through the PowerObserver hook (sim/power_signal.h) — each mirror update
// first converts any ADC ticks that elapsed under the closing segment into
// raw true-power values (exact per-segment energy arithmetic, identical to
// what a live tick would have read) — and defers the expensive measurement
// chain (two gaussian draws, quantization) to materialize(), which replays
// the pending ticks into the trace in one batch loop in exact per-sample
// order. Because the noise RNG is drawn in the same order and the energy
// expressions use the same operands, the trace is bit-identical to a
// per-tick sampler that reads the device at every ADC tick;
// power_rig_lazy_test builds that reference from the public API and asserts
// exact equality.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "power/trace.h"
#include "sim/block_device.h"
#include "sim/power_signal.h"
#include "sim/simulator.h"

namespace pas::power {

struct RigConfig {
  // Electrical chain.
  double rail_voltage_v = 12.0;      // supply rail being instrumented
  double shunt_ohms = 0.1;           // nominal shunt resistance
  double shunt_tolerance = 0.001;    // actual = nominal * (1 + U(-tol, tol))
  // Gain sized so the largest device in the study (25 W cap at 12 V ->
  // 0.21 V across the shunt) stays inside the ADC's +/-2.5 V full scale.
  double amp_gain = 8.0;             // nominal differential amplifier gain
  double amp_gain_error = 0.002;     // actual = nominal * (1 + U(-err, err))
  double amp_offset_v = 0.0005;      // worst-case input offset before cal
  double amp_noise_v_rms = 0.00002;  // input-referred noise, V RMS
  // ADC (ADS1256-like defaults).
  int adc_bits = 24;
  double adc_vref_v = 2.5;           // full scale = +/- vref
  double adc_noise_lsb_rms = 2.0;    // effective noise in LSBs at this rate
  TimeNs sample_period = milliseconds(1);  // 1 kHz
  // Delta-sigma ADCs integrate over the conversion period. When true, each
  // sample reports the average power since the previous tick (computed from
  // the device's exact energy counter); when false, it reports the
  // instantaneous value at the tick (ideal point sampler, for ablation A2).
  bool integrating = true;
  // Two-point calibration against known loads removes offset and most gain
  // error, as performed on the physical rig before each experiment.
  bool calibrated = true;
};

// Samples one device. Construct, then start(); samples accumulate in trace().
class MeasurementRig : private sim::PowerObserver {
 public:
  MeasurementRig(sim::Simulator& sim, sim::BlockDevice& device, RigConfig config,
                 std::uint64_t noise_seed);
  ~MeasurementRig() override;

  void start();
  void stop();

  // Converts every ADC tick elapsed up to now() into finished samples
  // appended to the trace, in one batch loop. Called implicitly by stop()
  // and by every read accessor; the fleet hosts also call it at epoch
  // boundaries so pending work is bounded by one epoch and runs on the
  // shard's worker thread. No-op when stopped or already caught up.
  void materialize();

  // The rig's only retention: every measured sample is appended to the
  // trace. Reads materialize first (logically const: the samples exist as of
  // now() regardless of when the batch loop runs — see DESIGN.md section
  // 13). take_trace() moves the samples out and leaves an empty trace; the
  // fleet hosts sum the taken traces into the fleet trace.
  const PowerTrace& trace() const;
  PowerTrace take_trace();

  // Re-times the ADC tick (rack scenarios decimate 1 kHz -> 100 Hz to keep a
  // 1 000-rig fleet tractable; the window-average math is rate-independent).
  // Only while stopped and before any sample has been taken — a sample
  // already moved out by take_trace() counts; the error names the rig.
  void set_sample_period(TimeNs period);

  const RigConfig& config() const { return config_; }

  // Converts one true-power value through the analog chain and back —
  // exposed for the accuracy characterization tests and the per-tick
  // reference in power_rig_lazy_test. Each call draws the chain's noise.
  Watts measure_once(Watts true_power);

 private:
  // --- segment-lazy internals ---
  // Mirror update: converts ticks strictly before seg.since under the
  // closing segment, then adopts seg. A tick exactly at seg.since is left
  // for a later update or materialize() — the energy expression is
  // bit-identical under either segment (the meter's accumulator was updated
  // with exactly the closing segment's arithmetic), and an instantaneous
  // sample takes the LAST level set at or before the tick.
  void on_power_update(const sim::PowerSegment& seg) override;
  // Converts the tick at next_tick_ into a raw pending value under seg_.
  void push_tick();
  // Runs the measurement chain over pending ticks into the trace.
  void flush_pending();
  [[noreturn]] void fail(const char* what) const;

  sim::Simulator& sim_;
  sim::BlockDevice& device_;
  RigConfig config_;
  Rng rng_;
  PowerTrace trace_;

  // Actual (imperfect) chain constants, drawn once at construction.
  double actual_shunt_ohms_;
  double actual_gain_;
  double actual_offset_v_;
  // Reconstruction constants (nominal, refined by calibration).
  double recon_gain_;
  double recon_offset_v_;
  // Derived ADC constants, hoisted out of measure_once (it runs once per
  // sample, 1 kHz per device): the 2^(bits-1) full-scale code and the clamp
  // bounds. Only bit-preserving hoists are taken — folding the divisions by
  // vref/gain/shunt into reciprocal multiplies would perturb the least
  // significant bits and break the trace bit-identity contract.
  double adc_full_scale_;
  double adc_code_min_;
  double adc_code_max_;

  Joules last_energy_ = 0.0;
  TimeNs last_sample_time_ = 0;
  bool started_ = false;

  // Segment-lazy state: the mirrored open segment, the next tick to convert,
  // and the raw true-power values of ticks converted but not yet measured
  // (pending_raw_[i] belongs to pending_first_t_ + i * sample_period).
  sim::PowerSegment seg_;
  TimeNs next_tick_ = 0;
  TimeNs pending_first_t_ = 0;
  std::vector<double> pending_raw_;
  std::uint64_t samples_emitted_ = 0;  // lifetime, including taken traces
};

}  // namespace pas::power
