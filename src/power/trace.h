// A power trace: timestamped power samples produced by the measurement rig,
// with the analyses the paper performs on them (distribution summaries for
// the Figure 2b violins, sliding-window averages for cap validation,
// time-slicing for transition plots like Figure 7).
//
// Storage is structure-of-arrays with a uniform-grid fast path: the rig
// samples at a fixed period, so the overwhelmingly common trace is fully
// described by (start_t, period) plus one contiguous vector<double> of watt
// values — half the memory of an array of (t, w) pairs, and every
// reduction becomes a contiguous, auto-vectorizable loop over doubles. A
// trace whose timestamps leave the grid degrades transparently to an
// explicit-timestamps fallback (times_ parallel to watts_) with identical
// semantics.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "common/units.h"

namespace pas::power {

// All per-trace reductions from one fused pass (see PowerTrace::analyze).
// Each field is bit-identical to the corresponding single-purpose method:
// the fused loop keeps one independent accumulator per quantity, updated in
// the same left-to-right order the separate passes used.
struct TraceSummary {
  std::size_t count = 0;
  Watts min_w = 0.0;
  Watts max_w = 0.0;
  Watts mean_w = 0.0;
  // Maximum average over any sliding window of the requested length (the
  // quantity an NVMe power state caps); the overall mean when the trace is
  // shorter than one window.
  Watts max_window_w = 0.0;
};

class TraceView;

class PowerTrace {
 public:
  PowerTrace() = default;

  // Wraps an existing uniform-grid value array without copying: sample i is
  // at start_t + i * period. `period` must be positive when there is more
  // than one sample.
  static PowerTrace uniform(TimeNs start_t, TimeNs period, std::vector<double> watts);

  void reserve(std::size_t n) { watts_.reserve(n); }
  void add(TimeNs t, Watts w);

  bool empty() const { return watts_.empty(); }
  std::size_t size() const { return watts_.size(); }

  TimeNs time_at(std::size_t i) const {
    return times_.empty() ? start_t_ + static_cast<TimeNs>(i) * period_ : times_[i];
  }
  // The contiguous value array — the hot side of the SoA layout.
  const std::vector<double>& watts() const { return watts_; }
  // Explicit timestamp array (fallback representation only; empty — and the
  // pointer meaningless — while is_uniform()).
  const TimeNs* times_data() const { return times_.data(); }
  // True while timestamps sit on the grid start_time() + i * period().
  bool is_uniform() const { return times_.empty(); }
  // Grid spacing; 0 until a uniform trace has at least two samples.
  TimeNs period() const { return period_; }

  TimeNs start_time() const;
  TimeNs end_time() const;
  TimeNs duration() const;

  // Time-weighted is unnecessary: the rig samples at a fixed period, so the
  // arithmetic mean of samples is the average power.
  Watts mean_power() const;
  Watts min_power() const;
  Watts max_power() const;

  // Energy estimate from the samples (sample value x sample spacing).
  Joules energy() const;

  // Maximum average power over any sliding window of length `window`.
  // This is the quantity an NVMe power state caps (window = 10 s).
  Watts max_window_average(TimeNs window) const;

  // min/max/mean/max-window in ONE pass over the value array, bit-identical
  // to calling the four methods above separately.
  TraceSummary analyze(TimeNs window) const;

  // Zero-copy view of the samples with t in [from, to); bounds located by
  // binary search (O(1) arithmetic on the uniform grid). The view borrows
  // this trace and must not outlive it.
  TraceView slice(TimeNs from, TimeNs to) const;
  TraceView view() const;

  // Adds `other`'s values into this trace's values in place. Timestamps must
  // align exactly; alignment is validated once per call (O(1) on two uniform
  // traces), not per sample. Used for fleet summation.
  void accumulate_aligned(const PowerTrace& other);

  // Full distribution of sample values (violin plot input).
  SampleSet to_sample_set() const;
  DistributionSummary distribution() const;

 private:
  // Uniform grid: times_ empty, sample i at start_t_ + i * period_.
  // Fallback: times_ holds every timestamp, parallel to watts_.
  TimeNs start_t_ = 0;
  TimeNs period_ = 0;
  std::vector<TimeNs> times_;
  std::vector<double> watts_;
};

// A non-owning, zero-copy window into a PowerTrace: the index range
// [begin, end). Supports the same reductions as the trace itself, so the
// slice-then-summarize pattern (Figure 7's before/after means, Figure 2a's
// plot window) runs without materializing a sub-trace. Valid only while the
// underlying trace is alive and unmodified.
class TraceView {
 public:
  TraceView() = default;

  bool empty() const { return begin_ == end_; }
  std::size_t size() const { return end_ - begin_; }
  TimeNs time_at(std::size_t i) const { return trace_->time_at(begin_ + i); }

  TimeNs start_time() const;
  TimeNs end_time() const;
  TimeNs duration() const;

  Watts mean_power() const;
  Watts min_power() const;
  Watts max_power() const;
  Joules energy() const;
  Watts max_window_average(TimeNs window) const;
  TraceSummary analyze(TimeNs window) const;

 private:
  friend class PowerTrace;
  TraceView(const PowerTrace* trace, std::size_t begin, std::size_t end)
      : trace_(trace), begin_(begin), end_(end) {}

  const PowerTrace* trace_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace pas::power
