// Arrival layer of the workload engine: WHEN IOs are issued.
//
// Closed-loop jobs (the paper's fio semantics) have no arrival process —
// completions trigger the next issue, so the device's speed throttles the
// workload and queueing delay is invisible. Open-loop jobs issue on a
// simulated arrival clock instead: ArrivalProcess generates the absolute
// times of successive arrivals, the engine issues each one whether or not
// earlier IOs have completed, and response time therefore includes the
// queueing delay a power-capped device inflicts on real users.
//
// The process is pull-based: next_at() is the absolute simulation time of
// the upcoming arrival, pop() consumes it and computes the one after. The
// engine keeps one kernel event armed at next_at() (capped by its deadline),
// so an idle gap between sparse arrivals is an ordinary wait on the event
// queue, not a drained-queue abort.
#pragma once

#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "common/units.h"
#include "iogen/job.h"

namespace pas::iogen {

// "No arrival pending": a dry trace reports this, and the engine then arms
// no further wake.
inline constexpr TimeNs kNoArrival = std::numeric_limits<TimeNs>::max();

// Stochastic arrival-time generator for kPoisson / kBursty / kDiurnal.
// (kClosedLoop has no process; kTrace takes its times from the replay
// records, see ReplayPattern::peek_at().) Draws come from a dedicated RNG
// stream derived from the job seed, so adding an arrival process never
// perturbs the pattern layer's offset/op draws.
class ArrivalProcess {
 public:
  // `start` is the absolute time of job start; the first arrival is drawn
  // relative to it.
  ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed, TimeNs start);

  // Absolute time of the next arrival (never kNoArrival: the stochastic
  // kinds generate forever; the engine's byte/time limits end the job).
  TimeNs next_at() const { return next_; }

  // Consume the current arrival and schedule the following one.
  void pop();

 private:
  void schedule_next();
  // Exponential inter-arrival at `rate` IOs/sec, in (fractional) ns.
  double draw_exp_ns(double rate);

  ArrivalSpec spec_;
  Rng rng_;
  TimeNs start_ = 0;
  TimeNs next_ = 0;
  // kBursty: cumulative active (burst-phase) time; kDiurnal: cumulative
  // candidate time for thinning. Fractional ns so rounding never drifts.
  double clock_ns_ = 0.0;
};

}  // namespace pas::iogen
