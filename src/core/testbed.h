// The testbed (DESIGN.md section 3.2): N devices and M iogen jobs under ONE
// fleet clock — the layer between "a cell" (one device, one job, one fresh
// simulator) and the paper's section 4 fleet scenarios (many live devices
// sharing a wall clock while budgets step). It is the one-shard special case
// of the FleetHost contract (fleet_host.h); ShardedTestbed composes K of these
// for rack scale.
//
// Timelines: every device has its own sim::Simulator, which carries every
// event of that device's model and of its jobs' engines. run_epoch(t) runs
// each timeline to t, one device after another in device order; run_jobs()
// drives each device's jobs to completion on its own timeline, then runs
// every timeline to the latest finish time. Between calls every timeline
// reads now(). An event touches only its own device: devices share no queued
// resources, rigs schedule nothing, and the control plane (admin calls,
// routing, rig start/stop, new jobs) acts only between calls. So each device
// sees its own events in the order one shared kernel would fire them, while
// its hot state stays in cache for a whole run instead of being evicted by
// every other device's next event.
//
// Ownership: the Testbed owns the timelines, and one devices::DeviceBundle
// per device (device model + NVMe/ALPM admin handles + measurement rig, all
// built by devices::make_device). Jobs are owned too; their IoEngines are
// constructed lazily by run_jobs()/run_epoch() (advance() is run_epoch) so
// engine construction order — and hence RNG-free event order — matches the
// historical single-device wiring.
//
// Determinism contract: everything on a timeline is a pure function of
// (device seed, the device's job specs, admin-call sequence). Timestamp ties
// fire FIFO in the kernel and the rigs' noise streams are derived per device
// (seed ^ devices::kRigNoiseSeedMix), so a single-device Testbed reproduces
// core::run_cell byte-for-byte, a device's results do not depend on the other
// devices it shares a Testbed with, and an N-device Testbed is reproducible
// run-to-run. Open-loop arrivals are kernel events too, so results do not
// depend on where epochs end.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/fleet_host.h"
#include "devices/specs.h"
#include "iogen/engine.h"
#include "iogen/job.h"
#include "power/trace.h"
#include "sim/simulator.h"

namespace pas::core {

class Testbed final : public FleetHost {
 public:
  Testbed() = default;
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Device `i`'s own timeline. Only that device's events may go on it.
  sim::Simulator& sim(std::size_t i);
  const sim::Simulator& sim(std::size_t i) const;

  // Constructs the device (with admin handles and a configured-but-stopped
  // rig) on a new timeline set to now(). Returns its device index.
  std::size_t add_device(devices::DeviceId id, std::uint64_t seed) override;

  std::size_t device_count() const override { return devices_.size(); }
  devices::DeviceBundle& device(std::size_t i) override;
  const devices::DeviceBundle& device(std::size_t i) const override;
  std::size_t index_of(const sim::BlockDevice* dev) const override;

  // Selects when the rigs are drained into the fleet sum (fleet_host.h).
  void set_trace_mode(TraceMode mode) override { trace_mode_ = mode; }

  // Queues a job for the given device. Returns the job index. The job's
  // IoEngine is created on the next run_jobs()/run_epoch() call.
  std::size_t add_job(const iogen::JobSpec& spec, std::size_t device_index) override;

  std::size_t job_count() const override { return jobs_.size(); }
  std::size_t job_device(std::size_t job) const override;
  // Valid once the job has been started by run_jobs()/run_epoch().
  const iogen::JobResult& job_result(std::size_t job) const override;

  // Aggregates every started job in job order (fleet_host.h contract).
  std::vector<TenantSummary> tenant_summaries() const override;

  // Starts every not-yet-started job (engine construction + start, in job
  // order), drives each device's jobs to completion on its own timeline
  // through iogen::drive — the repo's single drive-loop implementation — and
  // then runs every timeline to the latest finish time, so nothing is left
  // due at now() on any device. Callable repeatedly: phased scenarios add
  // jobs, run, add more, run.
  void run_jobs() override;
  // Epoch-bounded variant: starts pending jobs, then runs every timeline to
  // exactly `until` (sim::Simulator::run_until; open-loop arrivals are among
  // its events). Returns true when every job finished.
  bool run_epoch(TimeNs until) override;
  TimeNs now() const override { return now_; }
  // Summed over the device timelines.
  std::uint64_t executed_events() const override;

  // --- measurement ---
  void start_rigs() override;
  void stop_rigs() override;
  // Ground-truth fleet draw right now (sum over devices).
  Watts measured_power() const override;
  // The fleet's measured power trace since the last take: drains every rig
  // (drain_rigs) and hands over the fleet sum, leaving every rig and the sum
  // empty. Requires all rigs started together (one shared ADC clock), so
  // samples align; aborts on mismatched traces. The testbed stays fully
  // usable: a phased scenario can restart the rigs, run the next phase, and
  // take again. A second take with no intervening samples is empty.
  power::PowerTrace take_fleet_trace() override;

 private:
  struct Job {
    iogen::JobSpec spec;
    std::size_t device = 0;
    std::unique_ptr<iogen::IoEngine> engine;  // null until run_jobs() starts it
  };

  // Engine construction + start for every pending job, in job order, each on
  // its device's timeline.
  void start_pending_jobs();
  // Runs every timeline to `t` in device order; `t` becomes the fleet clock.
  void run_timelines(TimeNs t);
  // Epoch-boundary hook, called at the end of run_jobs/run_epoch:
  // kStreamingSum drains the rigs (drain_rigs); kFullTraces has every rig
  // convert its elapsed ADC ticks. Either way per-rig pending work is
  // bounded by one epoch and, on a sharded host, runs inside the shard's
  // worker thread (all state is shard-local).
  void materialize_rigs();
  // The one place where device samples meet the fleet sum: takes every rig's
  // trace, sums them device-major with accumulate_aligned (device 0 + 1 +
  // 2 + ..., by construction rather than by when a rig happened to flush),
  // and appends the result to fleet_sum_. So a mid-run read of any rig's
  // trace() cannot change the fleet trace, and both trace modes yield
  // bit-identical sums.
  void drain_rigs();

  // One timeline per device, declared before the devices and jobs so it
  // outlives them: both keep a sim::Simulator&, and an engine cancels its
  // armed wake when it is destroyed.
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::vector<std::unique_ptr<devices::DeviceBundle>> devices_;
  std::vector<Job> jobs_;

  TimeNs now_ = 0;  // the fleet clock: every timeline reads it between calls
  TraceMode trace_mode_ = TraceMode::kFullTraces;
  power::PowerTrace fleet_sum_;  // drained rig sums since the last take
};

// Per-device planning inputs for a live fleet: the measured configuration
// options (typically a Pareto frontier from the section 3 campaign) plus
// standby capability, in host device order.
struct FleetDeviceOptions {
  std::string name;
  std::vector<model::ExperimentPoint> options;
  bool supports_standby = false;
  Watts standby_power_w = 0.0;
};

// Live-fleet adapter: binds a PowerAdaptiveController to a FleetHost's
// devices, closing the section 4 loop — budget steps reach the real
// NVMe/SATA admin paths of the live devices, and the IO-redirection /
// write-segregation policy routes the host's live jobs (submit()). Works
// identically over a Testbed or one shard group of a ShardedTestbed.
class FleetAdapter {
 public:
  // `options[i]` describes host device i; sizes must match.
  // `watt_resolution` coarsens the planner's DP grid for large fleets
  // (0 = the planner's default, 0.1 W).
  FleetAdapter(FleetHost& host, std::vector<FleetDeviceOptions> options,
               Watts watt_resolution = 0.0);

  PowerAdaptiveController& controller() { return controller_; }
  const PowerAdaptiveController& controller() const { return controller_; }

  // Plans and applies the budget through the controller, then narrows write
  // routing to the devices the plan actually gives throughput (an idle- or
  // parked-planned device must not receive writes, or it would exceed its
  // planned draw). Returns the applied per-device plan, nullopt if the
  // budget is below the fleet floor.
  std::optional<std::vector<AppliedConfig>> set_power_budget(Watts budget_w);

  // Routes a live job by the redirection policy (writes -> route_write,
  // reads -> route_read) and queues it on the host. When shape_to_plan,
  // the job's chunk size and queue depth are first overridden by the current
  // plan's IO-shaping advice for the routed device. Returns the job index.
  std::size_t submit(iogen::JobSpec spec, bool shape_to_plan = false);

  // Enables tenant-priority IO shaping: subsequently submitted closed-loop
  // jobs get their queue depth scaled by
  // model::shape_depth_for_priority(iodepth, spec.tenant_priority,
  // max_priority, budget fraction), where the budget fraction is the routed
  // device's currently planned power over the peak power ever planned for it
  // — so when the budget tightens, low-priority tenants surrender depth
  // first. `max_priority` is the top of the priority ladder (>= 1); 0
  // disables shaping (the default).
  void enable_priority_shaping(int max_priority);

 private:
  std::size_t route(const iogen::JobSpec& spec);

  FleetHost& host_;
  PowerAdaptiveController controller_;
  int shaping_max_priority_ = 0;      // 0 = shaping off
  std::vector<Watts> peak_planned_w_;  // per device, high-water planned power
};

}  // namespace pas::core
