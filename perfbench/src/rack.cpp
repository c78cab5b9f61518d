// The rack_diurnal workload: the `diurnal` fleet profile of
// bench/bench_fleet_scenario.cpp at 32 devices (SSD1/SSD2/HDD cycle) on 2
// shards and 2 workers, with 100 Hz streaming-sum rigs. Four budget phases
// through per-shard FleetAdapters and model::split_budget, then the 3-phase
// SLO epilogue (open-loop Poisson frontend reads with a 2 ms SLO, closed-loop
// batch writes). The shard count is part of the workload: today it also
// fixes the planner groups, so it changes what is simulated.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "core/campaign.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "devices/specs.h"
#include "model/fleet.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pas;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kWorkers = 2;
constexpr std::size_t kShards = 2;
constexpr TimeNs kPhaseLength = seconds(12);  // > the 10 s compliance window
constexpr TimeNs kDrain = milliseconds(300);
constexpr int kSetupRepeats = 5;
constexpr devices::DeviceId kFleet[] = {devices::DeviceId::kSsd1, devices::DeviceId::kSsd2,
                                        devices::DeviceId::kHdd};

std::size_t rack_devices(Size size) { return size == Size::kFull ? 32 : 6; }
double calibration_scale(Size size) { return size == Size::kFull ? 0.0625 : 0.0; }

// The profile's calibration: one rand-write cell per (type, power state),
// with the planner's guard band on the measured power.
model::ExperimentPoint calibrate_option(devices::DeviceId id, int ps,
                                        const core::ExperimentOptions& options) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = id == devices::DeviceId::kHdd ? 2 * MiB : 256 * KiB;
  spec.iodepth = 64;
  core::ExperimentOutput out;
  {
    Span s("core.calibrate.run_cell");
    out = core::run_cell(id, ps, spec, options);
  }
  model::ExperimentPoint p = out.point;
  p.avg_power_w = p.avg_power_w * 1.02 + 0.3;
  return p;
}

model::ExperimentPoint idle_option(devices::DeviceId id) {
  sim::Simulator probe;
  const auto dev = devices::make_device(probe, id, 1);
  model::ExperimentPoint p;
  p.device = devices::label(id);
  p.power_state = 0;
  p.workload = "idle";
  p.avg_power_w = dev.device->instantaneous_power() + 0.2;
  p.throughput_mib_s = 0.0;
  return p;
}

std::vector<core::FleetDeviceOptions> calibrate_types(const core::ExperimentOptions& options) {
  std::vector<core::FleetDeviceOptions> types;
  for (devices::DeviceId id : kFleet) {
    core::FleetDeviceOptions d;
    d.name = devices::label(id);
    if (id == devices::DeviceId::kHdd) {
      d.options.push_back(calibrate_option(id, 0, options));
      d.supports_standby = true;
      d.standby_power_w = devices::hdd_exos_7e2000().p_standby_w;
    } else {
      for (int ps = 0; ps < 3; ++ps) d.options.push_back(calibrate_option(id, ps, options));
      d.options.push_back(idle_option(id));
    }
    types.push_back(std::move(d));
  }
  return types;
}

iogen::JobSpec frontend_job(std::uint64_t seed, double rate_iops) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kRead;
  spec.block_bytes = 64 * KiB;
  spec.arrival.kind = iogen::ArrivalKind::kPoisson;
  spec.arrival.rate_iops = rate_iops;
  spec.io_limit_bytes = 0;
  spec.time_limit = kPhaseLength;
  spec.tenant = 1;
  spec.tenant_priority = 3;
  spec.slo_latency = milliseconds(2);
  spec.seed = seed;
  return spec;
}

iogen::JobSpec batch_job(std::uint64_t seed) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 256 * KiB;
  spec.iodepth = 16;
  spec.io_limit_bytes = 0;
  spec.time_limit = kPhaseLength;
  spec.tenant = 2;
  spec.tenant_priority = 1;
  spec.seed = seed;
  return spec;
}

std::uint64_t tenant_ios(const std::vector<core::TenantSummary>& v, int tenant) {
  for (const auto& s : v) {
    if (s.tenant == tenant) return s.ios;
  }
  return 0;
}

Joules fleet_energy(core::FleetHost& host) {
  Joules e = 0.0;
  for (std::size_t i = 0; i < host.device_count(); ++i) {
    e += host.device(i).device->consumed_energy();
  }
  return e;
}

// The paper's SSD2 write-cap ratios (section 3.2.1: ps1 74%, ps2 55% of
// ps0) against the rack's own SSD2 calibration cells, as 100 - error%.
double paper_fit_pct(const core::FleetDeviceOptions& ssd2) {
  const double t0 = ssd2.options[0].throughput_mib_s;
  const double e1 = std::fabs(ssd2.options[1].throughput_mib_s / t0 / 0.74 - 1.0);
  const double e2 = std::fabs(ssd2.options[2].throughput_mib_s / t0 / 0.55 - 1.0);
  return 100.0 * (1.0 - (e1 + e2) / 2.0);
}

// Everything the rack builds before its first simulated IO. Adapters are
// declared after the host they point into, so they are destroyed first.
struct RackSetup {
  std::vector<core::FleetDeviceOptions> types;
  std::unique_ptr<core::ShardedTestbed> host;
  std::vector<std::unique_ptr<core::FleetAdapter>> adapters;
  std::vector<Watts> floors;
  std::vector<Watts> ceils;
  Watts fleet_ceiling = 0.0;
};

// Calibration cells, device construction and one planner per shard group.
std::unique_ptr<RackSetup> build_rack(std::uint64_t seed, Size size) {
  auto rack = std::make_unique<RackSetup>();
  const std::size_t devices = rack_devices(size);
  core::ExperimentOptions cal;
  cal.seed = seed;
  cal.io_limit_scale = calibration_scale(size);
  rack->types = calibrate_types(cal);
  rack->host = std::make_unique<core::ShardedTestbed>(kShards, kWorkers);
  core::ShardedTestbed& host = *rack->host;
  host.set_trace_mode(core::TraceMode::kStreamingSum);
  for (std::size_t i = 0; i < devices; ++i) {
    {
      Span s("devices.add_device");
      host.add_device(kFleet[i % 3], seed ^ static_cast<std::uint64_t>(i));
    }
    host.device(i).rig->set_sample_period(milliseconds(10));
  }
  for (std::size_t k = 0; k < kShards; ++k) {
    std::vector<core::FleetDeviceOptions> opts;
    for (std::size_t i = k; i < devices; i += kShards) opts.push_back(rack->types[i % 3]);
    Span s("core.controller.build_adapter");
    rack->adapters.push_back(
        std::make_unique<core::FleetAdapter>(host.shard(k), std::move(opts), 0.1));
  }
  for (const auto& a : rack->adapters) {
    rack->floors.push_back(a->controller().min_planned_power());
    rack->ceils.push_back(a->controller().max_planned_power());
    rack->fleet_ceiling += rack->ceils.back();
  }
  return rack;
}

}  // namespace

Iteration run_rack(std::uint64_t seed, Size size, const std::function<void()>& between) {
  Iteration it;
  Digest digest;
  const std::size_t devices = rack_devices(size);

  // One set-up takes a tenth of a second, too short to time steadily once,
  // so it is repeated and the median reported; the last one is simulated.
  // Only the last is traced, so span totals cover one set-up.
  Tracer& tracer = Tracer::instance();
  const bool traced = tracer.enabled();
  std::vector<double> setups;
  std::unique_ptr<RackSetup> rack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rack.reset();
    tracer.set_enabled(traced && r + 1 == kSetupRepeats);
    const auto t0 = Clock::now();
    rack = build_rack(seed, size);
    setups.push_back(seconds_since(t0));
  }
  it.setup_s = median(setups);
  for (const auto& t : rack->types) {
    for (const auto& o : t.options) {
      digest.add(o.avg_power_w);
      digest.add(o.throughput_mib_s);
      digest.add(o.p99_latency_us);
    }
  }
  it.paper_fit_pct = paper_fit_pct(rack->types[1]);
  core::ShardedTestbed& host = *rack->host;
  const auto& adapters = rack->adapters;
  const Watts fleet_ceiling = rack->fleet_ceiling;

  // --- timed simulate phase ---
  const std::uint64_t allocs_start = alloc_count();
  const auto wall_start = Clock::now();
  const TimeNs sim_start = host.now();
  Counts& c = it.counts;
  // Host time and allocations of `between` do not count.
  double paused_s = 0.0;
  std::uint64_t paused_allocs = 0;
  const auto pause = [&] {
    const auto t0 = Clock::now();
    const std::uint64_t a0 = alloc_count();
    between();
    paused_allocs += alloc_count() - a0;
    paused_s += seconds_since(t0);
  };

  const auto split = [&](Watts budget) {
    Span s("model.split_budget");
    return model::split_budget(budget, rack->floors, rack->ceils);
  };
  const auto plan = [&](std::size_t k, Watts budget) {
    Span s("core.controller.set_power_budget");
    ++c.plans;
    return adapters[k]->set_power_budget(budget);
  };

  struct Phase {
    const char* name;
    double fraction;  // of the fleet ceiling
  };
  const Phase phases[] = {{"overnight", 0.90},
                          {"morning ramp", 0.70},
                          {"midday peak shave", 0.45},
                          {"evening restore", 0.85}};
  int phase_no = 0;
  for (const Phase& phase : phases) {
    if (phase_no > 0) pause();
    ++phase_no;
    Span phase_span("rack.phase", phase_no);
    const Watts budget = fleet_ceiling * phase.fraction;
    const std::vector<Watts> group_budget = split(budget);
    int shed = 0;
    std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (shard, local job)
    for (std::size_t k = 0; k < kShards; ++k) {
      const auto p = plan(k, group_budget[k]);
      if (!p.has_value()) {
        ++shed;
        continue;
      }
      int writers = 0;
      for (const auto& cfg : *p) {
        if (!cfg.standby && cfg.planned_throughput_mib_s > 0.0) ++writers;
      }
      for (int w = 0; w < writers; w += 4) {
        iogen::JobSpec spec;
        spec.pattern = iogen::Pattern::kRandom;
        spec.op = iogen::OpKind::kWrite;
        spec.block_bytes = 4 * MiB;
        spec.iodepth = 2;
        spec.io_limit_bytes = 0;
        spec.time_limit = kPhaseLength;
        spec.seed = seed + static_cast<std::uint64_t>(phase_no) * 1000000 +
                    static_cast<std::uint64_t>(k) * 1000 + static_cast<std::uint64_t>(w);
        jobs.emplace_back(k, adapters[k]->submit(spec));
      }
    }
    it.checks.expect(shed == 0, std::string(phase.name) + ": a shard group had no feasible plan");

    const Joules e_start = fleet_energy(host);
    const TimeNs t_start = host.now();
    {
      Span s("power.start_rigs");
      host.start_rigs();
    }
    {
      Span s("iogen.run_until");
      auto last = Clock::now();
      host.run_until(host.now() + kPhaseLength, seconds(10), [&](TimeNs) {
        const auto now = Clock::now();
        it.epoch_s.push_back(std::chrono::duration<double>(now - last).count());
        last = now;
        ++c.epochs;
      });
    }
    {
      Span s("power.stop_rigs");
      host.stop_rigs();
    }
    const Joules e_stop = fleet_energy(host);
    const TimeNs t_stop = host.now();
    power::PowerTrace trace;
    {
      Span s("power.take_trace");
      trace = host.take_fleet_trace();
    }
    power::TraceSummary summary;
    {
      Span s("power.analyze");
      summary = trace.analyze(seconds(10));
    }
    c.rig_samples += trace.size() * devices;
    char msg[160];
    std::snprintf(msg, sizeof(msg), "%s: max 10 s-window %.3f W above the %.3f W budget",
                  phase.name, summary.max_window_w, budget);
    it.checks.expect(summary.max_window_w <= budget, msg);
    const double true_mean_w = (e_stop - e_start) / to_seconds(t_stop - t_start);
    const double err = std::fabs(summary.mean_w / true_mean_w - 1.0);
    std::snprintf(msg, sizeof(msg), "%s: rig energy off by %.3f%% from consumed_energy()",
                  phase.name, err * 100.0);
    it.checks.expect(err <= 0.01, msg);

    bool drained = false;
    {
      Span s("iogen.run_epoch");
      drained = host.run_epoch(host.now() + kDrain);
    }
    it.checks.expect(drained, std::string(phase.name) + ": jobs still running after the drain");
    std::uint64_t phase_bytes = 0;
    for (const auto& [k, j] : jobs) phase_bytes += host.shard(k).job_result(j).bytes;
    digest.add(budget);
    for (const auto& a : adapters) digest.add(a->controller().planned_power());
    digest.add(summary.mean_w);
    digest.add(summary.max_window_w);
    digest.add(phase_bytes);
  }

  // --- SLO epilogue: rack headroom vs peak shave, per tenant ---
  for (auto& a : adapters) a->enable_priority_shaping(3);
  std::vector<core::TenantSummary> prev;
  {
    Span s("core.sharded.tenant_summaries");
    prev = host.tenant_summaries();
  }
  const Phase slo_phases[] = {
      {"slo overnight", 0.90}, {"slo morning ramp", 0.70}, {"slo midday peak shave", 0.45}};
  phase_no = 0;
  for (const Phase& phase : slo_phases) {
    pause();
    ++phase_no;
    Span phase_span("rack.slo_phase", phase_no);
    const Watts budget = fleet_ceiling * phase.fraction;
    const std::vector<Watts> group_budget = split(budget);
    for (std::size_t k = 0; k < kShards; ++k) {
      const auto p = plan(k, group_budget[k]);
      if (!p.has_value()) continue;
      const std::size_t group = (devices - k + kShards - 1) / kShards;
      const std::uint64_t base = seed + 70000 + static_cast<std::uint64_t>(phase_no) * 100000 +
                                 static_cast<std::uint64_t>(k) * 1000;
      std::vector<std::size_t> group_global;
      for (std::size_t g = k; g < devices; g += kShards) group_global.push_back(g);
      std::size_t placed = 0;
      for (std::size_t n = group_global.size(); n > 0 && placed < (group + 3) / 4; --n) {
        const std::size_t g = group_global[n - 1];
        if (kFleet[g % 3] == devices::DeviceId::kHdd) continue;
        if ((*p)[n - 1].standby) continue;
        host.add_job(frontend_job(base + placed, /*rate_iops=*/2000.0), g);
        ++placed;
      }
      bool any_writer = false;
      for (const auto& cfg : *p) {
        any_writer = any_writer || (!cfg.standby && cfg.planned_throughput_mib_s > 0.0);
      }
      if (!any_writer) continue;
      for (std::size_t i = 0; i < (group + 7) / 8; ++i) {
        adapters[k]->submit(batch_job(base + 500 + i));
      }
    }
    {
      Span s("iogen.run_jobs");
      host.run_jobs();
    }
    std::vector<core::TenantSummary> cur;
    {
      Span s("core.sharded.tenant_summaries");
      cur = host.tenant_summaries();
    }
    it.checks.expect(tenant_ios(cur, 1) > tenant_ios(prev, 1),
                     std::string(phase.name) + ": the frontend tenant completed no IO");
    for (const auto& t : cur) {
      digest.add(t.tenant);
      digest.add(t.ios);
      digest.add(t.bytes);
      digest.add(t.slo_violations);
    }
    prev = std::move(cur);
    {
      Span s("iogen.run_epoch");
      host.run_epoch(host.now() + kDrain);
    }
  }
  it.wall_s = seconds_since(wall_start) - paused_s;
  it.allocs = alloc_count() - allocs_start - paused_allocs;
  it.sim_s = to_seconds(host.now() - sim_start);

  // --- counts ---
  c.devices = devices;
  c.events = host.executed_events();
  for (std::size_t k = 0; k < kShards; ++k) {
    const core::Testbed& shard = host.shard(k);
    c.shard_events.push_back(shard.executed_events());
    c.engines += shard.job_count();
    for (std::size_t j = 0; j < shard.job_count(); ++j) {
      c.ios += shard.job_result(j).ios;
      c.bytes += shard.job_result(j).bytes;
    }
  }
  for (const auto& t : prev) {
    c.slo_ios += t.slo_ios;
    c.slo_violations += t.slo_violations;
  }
  for (std::size_t i = 0; i < devices; ++i) {
    const devices::DeviceBundle& b = host.device(i);
    if (b.ssd != nullptr) {
      const ssd::SsdStats& s = b.ssd->stats();
      const ssd::FtlStats& f = b.ssd->ftl_stats();
      c.ssd_write_cmds += s.write_cmds;
      c.ssd_read_cmds += s.read_cmds;
      c.ssd_buffer_stalls += s.buffer_stall_events;
      c.ftl_host_units += f.host_units_written;
      c.ftl_gc_units += f.gc_units_moved;
      c.ftl_programs += f.nand_programs;
      c.ftl_page_reads += f.nand_page_reads;
      c.ftl_erases += f.erases;
      c.ftl_gc_runs += f.gc_runs;
      c.throttle_events += b.ssd->governor().throttle_events();
    }
    if (b.hdd != nullptr) {
      const hdd::HddStats& h = b.hdd->stats();
      c.hdd_cmds += h.read_cmds + h.write_cmds + h.flush_cmds;
      c.hdd_cache_hits += h.cache_read_hits + h.cache_write_hits;
      c.hdd_seeks += h.seeks;
      c.hdd_media_ops += h.media_reads + h.media_writes;
      c.hdd_spin_ups += h.spin_ups;
    }
  }
  c.add_to(digest);
  it.digest = digest.value();
  return it;
}

}  // namespace perfbench
