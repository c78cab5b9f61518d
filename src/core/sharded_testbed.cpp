#include "core/sharded_testbed.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/runner.h"

namespace pas::core {

ShardedTestbed::ShardedTestbed(std::size_t shards, int parallel_jobs)
    : parallel_jobs_(
          static_cast<std::size_t>(parallel_jobs <= 0 ? default_jobs() : parallel_jobs)) {
  PAS_CHECK_MSG(shards >= 1, "a sharded testbed needs at least one shard");
  shards_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) shards_.push_back(std::make_unique<Testbed>());
}

std::size_t ShardedTestbed::add_device(devices::DeviceId id, std::uint64_t seed) {
  const std::size_t shard = devices_.size() % shards_.size();
  const std::size_t local = shards_[shard]->add_device(id, seed);
  devices_.push_back(DeviceRef{shard, local});
  return devices_.size() - 1;
}

Testbed& ShardedTestbed::shard(std::size_t k) {
  PAS_CHECK(k < shards_.size());
  return *shards_[k];
}

const Testbed& ShardedTestbed::shard(std::size_t k) const {
  PAS_CHECK(k < shards_.size());
  return *shards_[k];
}

std::size_t ShardedTestbed::shard_of_device(std::size_t i) const {
  PAS_CHECK(i < devices_.size());
  return devices_[i].shard;
}

std::size_t ShardedTestbed::local_device_index(std::size_t i) const {
  PAS_CHECK(i < devices_.size());
  return devices_[i].local;
}

devices::DeviceBundle& ShardedTestbed::device(std::size_t i) {
  PAS_CHECK(i < devices_.size());
  return shards_[devices_[i].shard]->device(devices_[i].local);
}

const devices::DeviceBundle& ShardedTestbed::device(std::size_t i) const {
  PAS_CHECK(i < devices_.size());
  return shards_[devices_[i].shard]->device(devices_[i].local);
}

std::size_t ShardedTestbed::index_of(const sim::BlockDevice* dev) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const DeviceRef& ref = devices_[i];
    if (shards_[ref.shard]->device(ref.local).device.get() == dev) return i;
  }
  PAS_CHECK_MSG(false, "device is not part of this fleet");
  return 0;
}

void ShardedTestbed::set_trace_mode(TraceMode mode) {
  for (auto& shard : shards_) shard->set_trace_mode(mode);
}

std::size_t ShardedTestbed::add_job(const iogen::JobSpec& spec, std::size_t device_index) {
  PAS_CHECK(device_index < devices_.size());
  const DeviceRef& ref = devices_[device_index];
  const std::size_t local = shards_[ref.shard]->add_job(spec, ref.local);
  jobs_.push_back(JobRef{ref.shard, local, device_index});
  return jobs_.size() - 1;
}

std::size_t ShardedTestbed::job_device(std::size_t job) const {
  PAS_CHECK(job < jobs_.size());
  return jobs_[job].device;
}

const iogen::JobResult& ShardedTestbed::job_result(std::size_t job) const {
  PAS_CHECK(job < jobs_.size());
  return shards_[jobs_[job].shard]->job_result(jobs_[job].local);
}

std::vector<TenantSummary> ShardedTestbed::tenant_summaries() const {
  // Coordinator-side merge in shard order: each shard's summary covers every
  // job that shard hosts (global jobs AND shard-local adapter submissions),
  // and the merge order is fixed, so the result is independent of the worker
  // count and byte-identical run-to-run.
  std::vector<TenantSummary> out;
  for (const auto& shard : shards_) {
    merge_tenant_summaries(out, shard->tenant_summaries());
  }
  return out;
}

void ShardedTestbed::run_jobs() {
  // Fan-out: every shard drives its OWN jobs to completion. Shards finish at
  // different clocks.
  parallel_for(shards_.size(), parallel_jobs_,
               [this](std::size_t k) { shards_[k]->run_jobs(); });
  // Resynchronize: every shard coasts forward to the latest finisher, so the
  // fleet leaves the barrier with one common clock (rigs keep accounting
  // samples through the coast — segment-lazy rigs materialize them at the
  // shard's run_epoch() — which is what keeps cross-shard traces aligned).
  // Testbed::run_jobs leaves nothing due at its own finish time, so the
  // latest shard's coast, and a one-shard host's, fires no event: K = 1 runs
  // exactly a plain Testbed's event sequence.
  TimeNs latest = now_;
  for (const auto& shard : shards_) latest = std::max(latest, shard->now());
  parallel_for(shards_.size(), parallel_jobs_,
               [this, latest](std::size_t k) { shards_[k]->run_epoch(latest); });
  now_ = latest;
}

bool ShardedTestbed::run_epoch(TimeNs until) {
  PAS_CHECK(until >= now_);
  // One flag per shard, written only by the worker that owns the shard and
  // reduced on the coordinator after the barrier — no shared accumulator.
  std::vector<char> finished(shards_.size(), 0);
  parallel_for(shards_.size(), parallel_jobs_, [this, until, &finished](std::size_t k) {
    finished[k] = shards_[k]->run_epoch(until) ? 1 : 0;
  });
  now_ = until;
  bool all = true;
  for (const char f : finished) all = all && f != 0;
  return all;
}

std::uint64_t ShardedTestbed::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->executed_events();
  return total;
}

bool ShardedTestbed::run_until(TimeNs target, TimeNs max_epoch,
                               const std::function<void(TimeNs)>& at_barrier) {
  PAS_CHECK(target >= now_);
  PAS_CHECK_MSG(max_epoch > 0, "the epoch length must be positive");
  bool done = false;
  while (now_ < target) {
    const TimeNs next = std::min(target, now_ + max_epoch);
    done = run_epoch(next);
    if (at_barrier) at_barrier(now_);
  }
  return done;
}

void ShardedTestbed::start_rigs() {
  for (auto& shard : shards_) shard->start_rigs();
}

void ShardedTestbed::stop_rigs() {
  for (auto& shard : shards_) shard->stop_rigs();
}

Watts ShardedTestbed::measured_power() const {
  // Global device order, matching Testbed::measured_power at one shard.
  Watts total = 0.0;
  for (const DeviceRef& ref : devices_) {
    total += shards_[ref.shard]->device(ref.local).device->instantaneous_power();
  }
  return total;
}

power::PowerTrace ShardedTestbed::take_fleet_trace() {
  PAS_CHECK(!devices_.empty());
  // Shard-order merge on the coordinator: shard 0's fleet trace (itself the
  // device-major sum within the shard), then one accumulate per non-empty
  // shard. At one shard this IS Testbed::take_fleet_trace — byte-identical.
  power::PowerTrace fleet;
  bool first = true;
  for (auto& shard : shards_) {
    if (shard->device_count() == 0) continue;  // more shards than devices
    if (first) {
      fleet = shard->take_fleet_trace();
      first = false;
    } else {
      fleet.accumulate_aligned(shard->take_fleet_trace());
    }
  }
  return fleet;
}

}  // namespace pas::core
