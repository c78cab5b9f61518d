// Asynchronous IO engine, the moral equivalent of fio's libaio engine with
// direct=1, rebuilt as the composition of two layers (DESIGN.md section 12):
//
//   arrival layer (WHEN)  — closed-loop: keep `iodepth` requests outstanding,
//                           completions trigger issues (the historical
//                           engine, byte-identical);
//                           open-loop: issue at ArrivalProcess / trace times
//                           regardless of completions, so latency includes
//                           queueing delay. The arrival clock is one kernel
//                           event per engine, so any way of advancing the
//                           simulator issues the arrivals that fall due;
//   pattern layer (WHAT)  — AccessPattern generates each (op, offset, bytes):
//                           seq/rand/zipf, trace replay, or keyspace.
//
// The engine records per-IO completion latency (and SLO violations when the
// job carries a latency target) and stops at the byte or time limit — or,
// for finite patterns, when the trace runs dry.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "iogen/arrival.h"
#include "iogen/job.h"
#include "iogen/pattern.h"
#include "sim/block_device.h"
#include "sim/simulator.h"

namespace pas::iogen {

class IoEngine {
 public:
  IoEngine(sim::Simulator& sim, sim::BlockDevice& device, JobSpec spec);
  // Cancels the armed arrival wake, so the simulator may run on without the
  // engine. IOs still in flight would complete into the destroyed engine:
  // destroy an unfinished engine only with an empty pipe, or together with
  // its simulator.
  ~IoEngine();
  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Starts issuing; `on_done` fires once all in-flight IOs have completed
  // after a stop condition is reached.
  void start(std::function<void()> on_done);

  // Never reverts to false once true.
  bool finished() const { return finished_; }
  const JobResult& result() const { return result_; }
  int in_flight() const { return in_flight_; }
  const JobSpec& spec() const { return spec_; }

  // Bytes handed to the device so far (diagnostics for stuck-job reports).
  std::uint64_t issued_bytes() const { return issued_bytes_; }

 private:
  bool open_loop() const { return spec_.arrival.kind != ArrivalKind::kClosedLoop; }
  // Open loop only: the wake event. Issues every arrival due at or before
  // now(), then re-arms at the next arrival, capped by the deadline, unless
  // no arrival is left.
  void pump();
  bool limits_reached() const;
  TimeNs next_arrival() const;
  void issue(const PatternIo& io);
  bool issue_next();  // pattern -> device; false when the pattern is dry
  void fill_pipe();
  void maybe_finish();
  void on_complete(const sim::IoCompletion& c, bool rmw);

  sim::Simulator& sim_;
  sim::BlockDevice& device_;
  JobSpec spec_;
  std::unique_ptr<AccessPattern> pattern_;
  std::unique_ptr<ArrivalProcess> arrival_;
  JobResult result_;
  std::function<void()> on_done_;

  // The armed pump() event of an open-loop engine; kInvalidEvent when none.
  sim::Simulator::EventId wake_ = sim::Simulator::kInvalidEvent;
  TimeNs start_time_ = 0;
  TimeNs deadline_ = 0;
  std::uint64_t issued_bytes_ = 0;
  int in_flight_ = 0;
  bool started_ = false;
  bool finished_ = false;
  // No further arrivals will be issued (limits hit or pattern dry); the job
  // finishes when the pipe drains.
  bool exhausted_ = false;
};

// THE "advance the simulator until the jobs finish" loop: steps `sim` until
// every engine reports finished(), closed and open loop alike. There is
// exactly one such loop in the repo — run_job and core::Testbed::run_jobs
// both drive through it — so the stop/drain semantics cannot diverge between
// the single-device and fleet paths. Open-loop arrivals are ordinary kernel
// events, so an idle gap between sparse arrivals is just a wait. Aborts —
// naming each unfinished engine, its in-flight count, and its issued bytes —
// only when the event queue drains first (a genuinely stuck job).
void drive(sim::Simulator& sim, std::span<IoEngine* const> engines);

// Convenience: run one job to completion on a fresh simulator timeline,
// returning the result. The simulator is advanced until the job finishes.
JobResult run_job(sim::Simulator& sim, sim::BlockDevice& device, const JobSpec& spec);

}  // namespace pas::iogen
