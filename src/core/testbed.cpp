#include "core/testbed.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pas::core {

std::size_t Testbed::add_device(devices::DeviceId id, std::uint64_t seed) {
  sims_.push_back(std::make_unique<sim::Simulator>());
  sim::Simulator& sim = *sims_.back();
  sim.run_until(now_);  // an empty timeline: only sets its clock
  devices_.push_back(
      std::make_unique<devices::DeviceBundle>(devices::make_device(sim, id, seed)));
  return devices_.size() - 1;
}

sim::Simulator& Testbed::sim(std::size_t i) {
  PAS_CHECK(i < sims_.size());
  return *sims_[i];
}

const sim::Simulator& Testbed::sim(std::size_t i) const {
  PAS_CHECK(i < sims_.size());
  return *sims_[i];
}

devices::DeviceBundle& Testbed::device(std::size_t i) {
  PAS_CHECK(i < devices_.size());
  return *devices_[i];
}

const devices::DeviceBundle& Testbed::device(std::size_t i) const {
  PAS_CHECK(i < devices_.size());
  return *devices_[i];
}

std::size_t Testbed::index_of(const sim::BlockDevice* dev) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i]->device.get() == dev) return i;
  }
  PAS_CHECK_MSG(false, "device is not part of this testbed");
  return 0;
}

std::size_t Testbed::add_job(const iogen::JobSpec& spec, std::size_t device_index) {
  PAS_CHECK(device_index < devices_.size());
  jobs_.push_back(Job{spec, device_index, nullptr});
  return jobs_.size() - 1;
}

std::size_t Testbed::job_device(std::size_t job) const {
  PAS_CHECK(job < jobs_.size());
  return jobs_[job].device;
}

const iogen::JobResult& Testbed::job_result(std::size_t job) const {
  PAS_CHECK(job < jobs_.size());
  PAS_CHECK_MSG(jobs_[job].engine != nullptr, "job has not been started yet");
  return jobs_[job].engine->result();
}

std::vector<TenantSummary> Testbed::tenant_summaries() const {
  std::vector<TenantSummary> out;
  for (const Job& job : jobs_) {
    if (job.engine == nullptr) continue;  // never started: no results yet
    accumulate_tenant_job(out, job.spec, job.engine->result());
  }
  return out;
}

void Testbed::start_pending_jobs() {
  for (Job& job : jobs_) {
    if (job.engine != nullptr) continue;
    job.engine = std::make_unique<iogen::IoEngine>(*sims_[job.device],
                                                   *devices_[job.device]->device, job.spec);
    job.engine->start(nullptr);
  }
}

void Testbed::run_timelines(TimeNs t) {
  for (auto& sim : sims_) sim->run_until(t);
  now_ = t;
}

void Testbed::run_jobs() {
  start_pending_jobs();
  std::vector<std::vector<iogen::IoEngine*>> engines(devices_.size());
  for (const Job& job : jobs_) engines[job.device].push_back(job.engine.get());
  // Each device's jobs run to completion on its own timeline; then every
  // timeline, the last finisher's included, coasts to the latest finish.
  TimeNs latest = now_;
  for (std::size_t d = 0; d < sims_.size(); ++d) {
    iogen::drive(*sims_[d], engines[d]);
    latest = std::max(latest, sims_[d]->now());
  }
  run_timelines(latest);
  materialize_rigs();
}

bool Testbed::run_epoch(TimeNs until) {
  PAS_CHECK(until >= now_);
  start_pending_jobs();
  run_timelines(until);
  materialize_rigs();
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const Job& job) { return job.engine->finished(); });
}

std::uint64_t Testbed::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->executed_events();
  return total;
}

void Testbed::materialize_rigs() {
  if (trace_mode_ == TraceMode::kStreamingSum) {
    drain_rigs();
  } else {
    for (auto& d : devices_) d->rig->materialize();
  }
}

void Testbed::drain_rigs() {
  if (devices_.empty()) return;  // a shard of a fleet smaller than its shard count
  power::PowerTrace sum = devices_[0]->rig->take_trace();
  for (std::size_t d = 1; d < devices_.size(); ++d) {
    sum.accumulate_aligned(devices_[d]->rig->take_trace());
  }
  if (fleet_sum_.empty()) {
    fleet_sum_ = std::move(sum);
  } else {
    for (std::size_t i = 0; i < sum.size(); ++i) fleet_sum_.add(sum.time_at(i), sum.watts()[i]);
  }
}

void Testbed::start_rigs() {
  for (auto& d : devices_) d->rig->start();
}

void Testbed::stop_rigs() {
  for (auto& d : devices_) d->rig->stop();
}

Watts Testbed::measured_power() const {
  Watts total = 0.0;
  for (const auto& d : devices_) total += d->device->instantaneous_power();
  return total;
}

power::PowerTrace Testbed::take_fleet_trace() {
  PAS_CHECK(!devices_.empty());
  drain_rigs();
  return std::exchange(fleet_sum_, power::PowerTrace{});
}

FleetAdapter::FleetAdapter(FleetHost& host, std::vector<FleetDeviceOptions> options,
                           Watts watt_resolution)
    : host_(host),
      controller_(
          [&] {
            PAS_CHECK_MSG(options.size() == host.device_count(),
                          "one FleetDeviceOptions entry per host device");
            std::vector<ManagedDevice> fleet;
            fleet.reserve(options.size());
            for (std::size_t i = 0; i < options.size(); ++i) {
              devices::DeviceBundle& b = host.device(i);
              ManagedDevice d;
              d.name = std::move(options[i].name);
              d.device = b.device.get();
              d.pm = b.pm;
              d.options = std::move(options[i].options);
              d.supports_standby = options[i].supports_standby;
              d.standby_power_w = options[i].standby_power_w;
              fleet.push_back(std::move(d));
            }
            return PowerAdaptiveController(std::move(fleet), watt_resolution);
          }()) {}

std::optional<std::vector<AppliedConfig>> FleetAdapter::set_power_budget(Watts budget_w) {
  auto plan = controller_.set_power_budget(budget_w);
  if (!plan.has_value()) return plan;
  int writers = 0;
  for (const auto& cfg : *plan) {
    if (!cfg.standby && cfg.planned_throughput_mib_s > 0.0) ++writers;
  }
  controller_.segregate_writes(writers);
  if (peak_planned_w_.size() < plan->size()) peak_planned_w_.resize(plan->size(), 0.0);
  for (std::size_t i = 0; i < plan->size(); ++i) {
    if ((*plan)[i].planned_power_w > peak_planned_w_[i]) {
      peak_planned_w_[i] = (*plan)[i].planned_power_w;
    }
  }
  return plan;
}

void FleetAdapter::enable_priority_shaping(int max_priority) {
  PAS_CHECK(max_priority >= 0);
  shaping_max_priority_ = max_priority;
}

std::size_t FleetAdapter::route(const iogen::JobSpec& spec) {
  sim::BlockDevice* target =
      spec.op == iogen::OpKind::kWrite ? controller_.route_write() : controller_.route_read();
  PAS_CHECK_MSG(target != nullptr, "no active device to route the job to");
  return host_.index_of(target);
}

std::size_t FleetAdapter::submit(iogen::JobSpec spec, bool shape_to_plan) {
  const std::size_t index = route(spec);
  if (shape_to_plan) {
    // Plan entries are in fleet order == host device order.
    const AppliedConfig& cfg = controller_.current_plan()[index];
    if (cfg.chunk_bytes != 0) spec.block_bytes = cfg.chunk_bytes;
    if (cfg.queue_depth > 0) spec.iodepth = cfg.queue_depth;
  }
  if (shaping_max_priority_ > 0 && spec.arrival.kind == iogen::ArrivalKind::kClosedLoop &&
      index < peak_planned_w_.size() && peak_planned_w_[index] > 0.0) {
    const AppliedConfig& cfg = controller_.current_plan()[index];
    spec.iodepth = model::shape_depth_for_priority(
        spec.iodepth, spec.tenant_priority, shaping_max_priority_,
        cfg.planned_power_w / peak_planned_w_[index]);
  }
  return host_.add_job(spec, index);
}

}  // namespace pas::core
