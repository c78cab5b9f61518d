// Shard-parallel fleet host (DESIGN.md section 11): K independent shards —
// each a full core::Testbed with its own device set, one sim::Simulator per
// device, and rig clocks — advanced in lock step under an epoch barrier,
// presenting ONE fleet behind the same FleetHost contract as a single
// Testbed. This is how the repo scales the section 4 fleet scenarios from a
// handful of devices to a 1 000-device rack: simulated work parallelizes
// across shards while every observable result stays deterministic.
//
// Epoch barrier protocol. The coordinator (the caller's thread) repeats:
//   1. pick the next epoch boundary — the earliest controller decision
//      point, never farther than the power-cap window (run_until's
//      max_epoch, normally 10 s: the coordinator must observe the fleet at
//      least once per cap window);
//   2. fan out: each shard advances its OWN device timelines, one after
//      another, to exactly that boundary on a worker thread (run_epoch), or
//      to job completion (run_jobs) followed by a coast-to-latest
//      resynchronization;
//   3. barrier: join the workers — every shard clock now equals the fleet
//      clock now();
//   4. merge + decide: per-shard power sums are merged in shard order on the
//      coordinator, the controller/budget logic runs once, admin calls and
//      new jobs fan out to the shards; goto 1.
//
// Determinism. Worker threads never share mutable state: a shard's epoch is
// a pure function of that shard's own (devices, jobs, admin history), and
// every cross-shard reduction happens on the coordinator in fixed shard
// order. Hence results are byte-identical run-to-run and independent of
// parallel_jobs (1 worker == K workers, asserted in tests). Every device
// runs on its own timeline whatever the shard count, and a shard's
// run_jobs() leaves nothing due at its finish time, so the resync coast
// fires only events a one-shard host fires too: given the same jobs and
// admin calls, per-device results, the clock and the event count do not
// depend on K, and a one-shard ShardedTestbed is byte-identical to a plain
// Testbed. K-shard fleet sums may differ from the one-shard sum in the last
// float bits (FP addition is not associative — shard-major vs device-major
// order), which is why the contract fixes the shard count, not just the
// seed.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/fleet_host.h"
#include "core/testbed.h"
#include "iogen/job.h"
#include "power/trace.h"

namespace pas::core {

class ShardedTestbed final : public FleetHost {
 public:
  // `shards` >= 1. `parallel_jobs` sizes the worker pool used at each fan-out
  // (clamped to the shard count; 1 = run shards serially on the calling
  // thread; 0 = default_jobs(), i.e. hardware concurrency / PAS_JOBS).
  explicit ShardedTestbed(std::size_t shards, int parallel_jobs = 0);

  std::size_t shard_count() const { return shards_.size(); }
  // Direct access to one shard (a full Testbed on its own timelines): rack
  // benches bind one FleetAdapter per shard group through this, and jobs the
  // adapter submits are shard-local (they are driven by run_jobs/run_epoch
  // but do not appear in this host's global job table).
  Testbed& shard(std::size_t k);
  const Testbed& shard(std::size_t k) const;
  // Which shard hosts global device `i` (devices are dealt round-robin:
  // shard = i % shard_count), and its index within that shard.
  std::size_t shard_of_device(std::size_t i) const;
  std::size_t local_device_index(std::size_t i) const;

  // --- FleetHost ---
  std::size_t add_device(devices::DeviceId id, std::uint64_t seed) override;
  std::size_t device_count() const override { return devices_.size(); }
  devices::DeviceBundle& device(std::size_t i) override;
  const devices::DeviceBundle& device(std::size_t i) const override;
  std::size_t index_of(const sim::BlockDevice* dev) const override;
  void set_trace_mode(TraceMode mode) override;

  std::size_t add_job(const iogen::JobSpec& spec, std::size_t device_index) override;
  std::size_t job_count() const override { return jobs_.size(); }
  std::size_t job_device(std::size_t job) const override;
  const iogen::JobResult& job_result(std::size_t job) const override;

  // Merged per-shard summaries in shard order; includes shard-local jobs
  // submitted through per-shard adapters (fleet_host.h contract).
  std::vector<TenantSummary> tenant_summaries() const override;

  void run_jobs() override;
  bool run_epoch(TimeNs until) override;
  TimeNs now() const override { return now_; }
  // Sum over every device timeline of every shard.
  std::uint64_t executed_events() const override;

  // Coordinator loop: advances the fleet to `target` in epochs no longer
  // than `max_epoch`, invoking `at_barrier` (when non-null) at every barrier
  // with the synchronized fleet clock — the hook where a rack governor reads
  // the fleet and re-plans. Returns run_epoch's verdict at `target`.
  bool run_until(TimeNs target, TimeNs max_epoch,
                 const std::function<void(TimeNs)>& at_barrier = nullptr);

  void start_rigs() override;
  void stop_rigs() override;
  Watts measured_power() const override;
  // Merges the K per-shard fleet traces (each the sum over that shard's
  // devices) in shard order. Alignment across shards holds because rigs are
  // started/stopped at barrier-synchronized clocks and share one sample
  // period; aborts otherwise.
  power::PowerTrace take_fleet_trace() override;

 private:
  struct DeviceRef {
    std::size_t shard = 0;
    std::size_t local = 0;  // device index within the shard
  };
  struct JobRef {
    std::size_t shard = 0;
    std::size_t local = 0;   // job index within the shard
    std::size_t device = 0;  // global device index
  };

  std::vector<std::unique_ptr<Testbed>> shards_;
  std::size_t parallel_jobs_;  // parallel_for's worker count at each fan-out
  std::vector<DeviceRef> devices_;
  std::vector<JobRef> jobs_;
  TimeNs now_ = 0;
};

}  // namespace pas::core
