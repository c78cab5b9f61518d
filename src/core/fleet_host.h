// The fleet-host interface (DESIGN.md section 11): the contract between the
// section 4 control plane (FleetAdapter / PowerAdaptiveController, the fleet
// benches) and whatever hosts the live devices. Two implementations:
//
//   * core::Testbed          — N devices, each on its own simulator
//                              timeline, under one fleet clock (the
//                              one-shard special case; DESIGN section 3.2)
//   * core::ShardedTestbed   — K Testbeds advancing in parallel under an
//                              epoch barrier (rack scale)
//
// Devices are addressed by a stable global index in add_device order, jobs
// by a global index in add_job order, regardless of which shard hosts them —
// so a scenario written against FleetHost is byte-identical between a
// Testbed and a one-shard ShardedTestbed, and deterministic (independent of
// worker-thread count and scheduling) on any shard count. Every call that
// moves the clock is run_jobs or run_epoch: advance() is defined once, here.
//
// The time model: every host exposes ONE fleet clock: the time every device
// timeline reaches at the end of each run_jobs/run_epoch call (for the
// sharded host, at each barrier). Methods that read or advance the clock
// (now/advance/run_jobs/run_epoch/start_rigs/stop_rigs) may only be called
// between epochs, when the device clocks agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "devices/specs.h"
#include "iogen/job.h"
#include "power/trace.h"

namespace pas::core {

// Per-tenant aggregation across every STARTED job of the fleet: completion
// counts, bytes, the merged latency distribution, and SLO accounting (jobs
// with slo_latency > 0 contribute their completions to slo_ios and the
// too-slow subset to slo_violations). Cumulative since the jobs started —
// phase deltas are the caller's subtraction. Hosts return summaries sorted
// by tenant id, merged in deterministic (job, then shard) order, so the
// result is byte-identical across worker counts and, for the counts, across
// shard layouts.
struct TenantSummary {
  int tenant = 0;
  std::size_t jobs = 0;
  std::uint64_t ios = 0;
  std::uint64_t bytes = 0;
  std::uint64_t slo_ios = 0;
  std::uint64_t slo_violations = 0;
  LatencyHistogram latency;

  double violation_rate() const {
    return slo_ios > 0 ? static_cast<double>(slo_violations) / static_cast<double>(slo_ios)
                       : 0.0;
  }
};

// Merges `from` into `into` (both sorted by tenant id; result stays sorted).
// Counts are additive and histograms merge bucket-wise, so merging is
// order-independent for the integers and fixed shard order keeps even the
// derived floats identical.
void merge_tenant_summaries(std::vector<TenantSummary>& into,
                            const std::vector<TenantSummary>& from);

// Accumulates one started job's spec + result into the (sorted) summary set.
void accumulate_tenant_job(std::vector<TenantSummary>& into, const iogen::JobSpec& spec,
                           const iogen::JobResult& result);

// When each rig's trace is drained into its shard's fleet sum. A rig only
// ever retains its own trace; the drain sums every rig of a shard
// device-major in one routine (Testbed::drain_rigs), so both modes yield
// bit-identical fleet traces and differ only in memory.
enum class TraceMode {
  // Rigs keep their traces until take_fleet_trace() drains them.
  // Memory: devices x samples.
  kFullTraces,
  // Every epoch boundary (the end of run_jobs/run_epoch) also
  // drains the rigs into ONE per-shard fleet-sum trace, so a rig holds at
  // most one epoch of samples; take_fleet_trace() merges the K shard sums.
  // Memory: shards x samples plus devices x one epoch's samples — the
  // saving grows with the number of epochs in a phase.
  kStreamingSum,
};

class FleetHost {
 public:
  virtual ~FleetHost() = default;

  // --- fleet construction ---
  virtual std::size_t add_device(devices::DeviceId id, std::uint64_t seed) = 0;
  virtual std::size_t device_count() const = 0;
  virtual devices::DeviceBundle& device(std::size_t i) = 0;
  virtual const devices::DeviceBundle& device(std::size_t i) const = 0;
  // Maps a routing decision (a BlockDevice*) back to its global device
  // index; aborts if the pointer is not hosted here.
  virtual std::size_t index_of(const sim::BlockDevice* dev) const = 0;
  // Defaults to kFullTraces.
  virtual void set_trace_mode(TraceMode mode) = 0;

  // --- jobs ---
  virtual std::size_t add_job(const iogen::JobSpec& spec, std::size_t device_index) = 0;
  virtual std::size_t job_count() const = 0;
  virtual std::size_t job_device(std::size_t job) const = 0;
  virtual const iogen::JobResult& job_result(std::size_t job) const = 0;

  // Per-tenant aggregation over every started job the host knows about —
  // including shard-local jobs submitted through a per-shard FleetAdapter,
  // which do not appear in the global job table. Sorted by tenant id; see
  // TenantSummary for the determinism contract.
  virtual std::vector<TenantSummary> tenant_summaries() const = 0;

  // --- the epoch clock ---
  // Starts every not-yet-started job and advances the fleet until ALL jobs
  // have finished, then re-synchronizes the fleet clock: each device drives
  // its own jobs on its own timeline (shards in parallel), then every device
  // coasts to the latest finish time, firing what it has due up to and
  // including that instant, so the clocks agree again.
  virtual void run_jobs() = 0;
  // Epoch-bounded variant: starts pending jobs and advances the whole fleet
  // to exactly `until` (an absolute fleet time — the coordinator's next
  // controller decision point), finished or not. Returns true when every
  // started job has finished. The clock lands on `until` on every shard.
  // Open-loop arrivals are kernel events, so they keep arriving on time
  // however a run is cut into epochs.
  virtual bool run_epoch(TimeNs until) = 0;
  // Advances the fleet by `dt` (drain between budget steps). It is
  // run_epoch on every host: pending jobs start and arrivals keep flowing.
  void advance(TimeNs dt) { run_epoch(now() + dt); }
  virtual TimeNs now() const = 0;
  // Total simulator events fired across the fleet so far (summed over the
  // device timelines). Perf accounting: the rig-sweep A/B reports how many
  // events segment-lazy sampling removed from the kernel.
  virtual std::uint64_t executed_events() const = 0;

  // --- measurement ---
  virtual void start_rigs() = 0;
  virtual void stop_rigs() = 0;
  // Ground-truth fleet draw right now (sum over devices in global order).
  virtual Watts measured_power() const = 0;
  // The fleet's measured power trace for the samples accumulated since the
  // last take (the pointwise sum over every device), and resets the
  // accumulation — phase-boundary semantics. Requires stopped rigs.
  virtual power::PowerTrace take_fleet_trace() = 0;
};

}  // namespace pas::core
