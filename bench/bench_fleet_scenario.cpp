// Closed-loop fleet scenarios (paper section 4) on the sharded fleet host.
//
// Two profiles:
//
//   --profile paper (default): SSD1 + SSD2 + HDD live under one fleet clock
//   while the facility budget steps 40 W -> 25 W -> 14 W -> 40 W. Each step
//   goes through the FleetAdapter: the PowerAdaptiveController re-plans from
//   measured power-throughput options, applies power states / standby
//   through the real admin paths, and the phase's write jobs are routed and
//   shaped by the plan. With the default --devices 3 --shards 1 this is
//   byte-identical to the historical single-Testbed bench.
//
//   --profile diurnal: a synthetic rack — N devices (default 1000) cycling
//   SSD1/SSD2/HDD, dealt round-robin over K shards — tracks a diurnal
//   facility budget (overnight / morning / midday peak-shave / evening).
//   One FleetAdapter per shard group; the coordinator divides each budget
//   over the groups with model::split_budget and the fleet advances under
//   the epoch barrier, never more than the 10 s cap window per epoch. Rigs
//   run decimated (100 Hz) in streaming-sum mode, so memory is per-shard,
//   not per-device.
//
// Per phase we report planned vs MEASURED power (mean and the NVMe-style
// max 10 s-window average, which must stay at or under the budget) and the
// throughput retained relative to the unconstrained phase. Exits non-zero
// if any phase's measured 10 s-window fleet power exceeds its budget or a
// budget cannot be planned.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/campaign.h"
#include "core/runner.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "iogen/engine.h"
#include "model/fleet.h"
#include "sim/simulator.h"

namespace pas {
namespace {

constexpr TimeNs kPhaseLength = seconds(12);  // > the 10 s compliance window

// The fleet's device-type cycle: global device i is kFleet[i % 3].
constexpr devices::DeviceId kFleet[] = {devices::DeviceId::kSsd1, devices::DeviceId::kSsd2,
                                        devices::DeviceId::kHdd};

// Calibrates one (device, power state) configuration option on its own
// throwaway cell, exactly as the section 3 campaign would. The planned power
// carries a small guard band over the measurement so the fleet plan is
// conservative: plan >= what the live device will actually draw.
model::ExperimentPoint calibrate_option(devices::DeviceId id, int ps,
                                        const core::ExperimentOptions& options) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = id == devices::DeviceId::kHdd ? 2 * MiB : 256 * KiB;
  spec.iodepth = 64;
  const core::ExperimentOutput out = core::run_cell(id, ps, spec, options);
  model::ExperimentPoint p = out.point;
  p.avg_power_w = p.avg_power_w * 1.02 + 0.3;
  return p;
}

// A zero-throughput "leave it idle" option: lets the planner keep a device
// powered but unloaded when even its deepest active state does not fit.
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

// Calibrates every unique device type once (the 7-cell pass is independent
// of the fleet size: a 1 000-device rack still measures 7 cells). Returns
// one FleetDeviceOptions per type, in kFleet order.
std::vector<core::FleetDeviceOptions> calibrate_types(const core::ExperimentOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
        .count();
  };
  std::vector<core::FleetDeviceOptions> types;
  std::size_t done = 0;
  const std::size_t total_cells = 3 + 3 + 1;
  for (devices::DeviceId id : kFleet) {
    core::FleetDeviceOptions d;
    d.name = devices::label(id);
    if (id == devices::DeviceId::kHdd) {
      d.options.push_back(calibrate_option(id, 0, options));
      ++done;
      ResultSink::progress_line(done, total_cells, elapsed_s(),
                                static_cast<double>(done) / elapsed_s());
      d.supports_standby = true;
      d.standby_power_w = devices::hdd_exos_7e2000().p_standby_w;
    } else {
      for (int ps = 0; ps < 3; ++ps) {
        d.options.push_back(calibrate_option(id, ps, options));
        ++done;
        ResultSink::progress_line(done, total_cells, elapsed_s(),
                                  static_cast<double>(done) / elapsed_s());
      }
      d.options.push_back(idle_option(id));
    }
    types.push_back(std::move(d));
  }
  return types;
}

void print_options_table(ResultSink& sink, const std::vector<core::FleetDeviceOptions>& types) {
  sink.banner("Calibrated fleet options (randwrite, planned W carries a guard band)");
  Table t({"device", "ps", "workload", "planned W", "MiB/s"});
  for (const auto& d : types) {
    for (const auto& o : d.options) {
      t.add_row({d.name, Table::fmt_int(o.power_state), o.workload,
                 Table::fmt(o.avg_power_w, 2), Table::fmt(o.throughput_mib_s, 0)});
    }
    if (d.supports_standby) {
      t.add_row({d.name, "-", "standby", Table::fmt(d.standby_power_w, 2), "0"});
    }
  }
  sink.table("options", t);
}

// --- per-tenant SLO accounting (the open-loop epilogues) ---

const core::TenantSummary* find_tenant(const std::vector<core::TenantSummary>& v, int id) {
  for (const auto& s : v) {
    if (s.tenant == id) return &s;
  }
  return nullptr;
}

// One phase's per-tenant movement: the difference between two cumulative
// tenant_summaries() snapshots (counts subtract exactly; the latency sum is
// reconstructed from mean x count so a per-phase average is available).
struct TenantDelta {
  std::uint64_t ios = 0;
  std::uint64_t bytes = 0;
  std::uint64_t slo_ios = 0;
  std::uint64_t slo_violations = 0;
  double sum_ns = 0.0;

  double violation_rate() const {
    return slo_ios > 0 ? static_cast<double>(slo_violations) / static_cast<double>(slo_ios)
                       : 0.0;
  }
  double avg_ms() const {
    return ios > 0 ? sum_ns / static_cast<double>(ios) / 1e6 : 0.0;
  }
};

TenantDelta tenant_delta(const std::vector<core::TenantSummary>& cur,
                         const std::vector<core::TenantSummary>& prev, int id) {
  TenantDelta d;
  const core::TenantSummary* c = find_tenant(cur, id);
  if (c == nullptr) return d;
  d.ios = c->ios;
  d.bytes = c->bytes;
  d.slo_ios = c->slo_ios;
  d.slo_violations = c->slo_violations;
  d.sum_ns = c->latency.mean_ns() * static_cast<double>(c->latency.count());
  if (const core::TenantSummary* p = find_tenant(prev, id)) {
    d.ios -= p->ios;
    d.bytes -= p->bytes;
    d.slo_ios -= p->slo_ios;
    d.slo_violations -= p->slo_violations;
    d.sum_ns -= p->latency.mean_ns() * static_cast<double>(p->latency.count());
  }
  return d;
}

void add_slo_row(Table& t, const char* phase, Watts budget, const char* tenant,
                 const TenantDelta& d) {
  t.add_row({phase, Table::fmt(budget, 0), tenant,
             Table::fmt_int(static_cast<long long>(d.ios)),
             Table::fmt(mib_per_sec(d.bytes, kPhaseLength), 1),
             Table::fmt_int(static_cast<long long>(d.slo_ios)),
             Table::fmt_int(static_cast<long long>(d.slo_violations)),
             Table::fmt(d.violation_rate(), 4), Table::fmt(d.avg_ms(), 3)});
}

Table make_slo_table() {
  return Table({"phase", "budget W", "tenant", "ios", "MiB/s", "slo ios", "violations",
                "viol rate", "avg ms"});
}

// The frontend tenant: open-loop Poisson reads with a per-IO latency SLO,
// pinned to the flash tier (an HDD's seek time alone would blow a
// millisecond SLO at any budget, drowning the signal). The arrival rate is
// fixed — the SSDs must absorb it at whatever power state the budget allows
// — so a tightened budget surfaces as queueing delay and a violation-rate
// spike, not as silently lower throughput.
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

// The batch tenant, open-loop flavor: bursty ingest writes at a FIXED
// offered rate (on/off duty cycle, Poisson within a burst). Unlike a
// closed-loop stream, this does not politely self-throttle when the budget
// drops — the backlog grows, which is exactly the "capped fleet under real
// load" failure mode the epilogue measures.
iogen::JobSpec batch_ingest_job(std::uint64_t seed, double rate_iops) {
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 1 * MiB;
  spec.arrival.kind = iogen::ArrivalKind::kBursty;
  spec.arrival.rate_iops = rate_iops;
  spec.arrival.on_period = seconds(2);
  spec.arrival.off_period = seconds(1);
  spec.io_limit_bytes = 0;
  spec.time_limit = kPhaseLength;
  spec.tenant = 2;
  spec.tenant_priority = 1;
  spec.seed = seed;
  return spec;
}

// The batch tenant, closed-loop flavor (diurnal epilogue): background writes
// at the bottom of the priority ladder — the adapter's priority shaping
// sheds their queue depth first as the budget tightens.
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

// --- the paper's 4-phase budget-step scenario (section 4 figure) ---

int run_paper(const core::BenchCli& cli, ResultSink& sink, std::size_t devices,
              std::size_t shards) {
  const std::vector<core::FleetDeviceOptions> types = calibrate_types(cli.experiment);
  print_options_table(sink, types);

  // The live fleet: one FleetAdapter over the whole (sharded) host, exactly
  // the historical Testbed wiring when --devices 3 --shards 1.
  core::ShardedTestbed host(shards, cli.jobs);
  std::vector<core::FleetDeviceOptions> opts;
  for (std::size_t i = 0; i < devices; ++i) {
    host.add_device(kFleet[i % 3], cli.experiment.seed + 10 + i);
    opts.push_back(types[i % 3]);
  }
  core::FleetAdapter adapter(host, std::move(opts));

  struct Phase {
    const char* name;
    Watts budget;
  };
  // The historical 3-device budgets, scaled with the fleet (exact at N=3).
  const double scale = static_cast<double>(devices) / 3.0;
  const Phase phases[] = {{"normal", 40.0 * scale},
                          {"-38% (oversubscribed)", 25.0 * scale},
                          {"brownout", 14.0 * scale},
                          {"restored", 40.0 * scale}};

  Table report({"phase", "budget W", "planned W", "measured W", "max 10s-win W", "within",
                "fleet MiB/s", "retained"});
  bool violation = false;
  double baseline_mib_s = 0.0;
  int phase_no = 0;
  for (const auto& phase : phases) {
    ++phase_no;
    const auto plan = adapter.set_power_budget(phase.budget);
    if (!plan.has_value()) {
      sink.note("FAIL: no feasible plan for %.0f W (fleet floor too high)\n", phase.budget);
      violation = true;
      continue;
    }
    int writers = 0;
    for (const auto& cfg : *plan) {
      if (!cfg.standby && cfg.planned_throughput_mib_s > 0.0) ++writers;
    }

    // One sustained write stream per planned writer, routed and IO-shaped by
    // the adapter; purely time-limited so every phase spans the full window.
    std::vector<std::size_t> jobs;
    for (int w = 0; w < writers; ++w) {
      iogen::JobSpec spec;
      spec.pattern = iogen::Pattern::kRandom;
      spec.op = iogen::OpKind::kWrite;
      spec.io_limit_bytes = 0;
      spec.time_limit = kPhaseLength;
      spec.seed = cli.experiment.seed + static_cast<std::uint64_t>(phase_no) * 100 +
                  static_cast<std::uint64_t>(w);
      jobs.push_back(adapter.submit(spec, /*shape_to_plan=*/true));
    }

    host.start_rigs();
    host.run_jobs();
    host.stop_rigs();
    const power::PowerTrace trace = host.take_fleet_trace();
    const Watts window10 = trace.max_window_average(seconds(10));
    const bool ok = window10 <= phase.budget;
    violation = violation || !ok;

    double fleet_mib_s = 0.0;
    for (const std::size_t j : jobs) {
      fleet_mib_s += mib_per_sec(host.job_result(j).bytes, kPhaseLength);
    }
    if (phase_no == 1) baseline_mib_s = fleet_mib_s;
    report.add_row({phase.name, Table::fmt(phase.budget, 0),
                    Table::fmt(adapter.controller().planned_power(), 1),
                    Table::fmt(trace.mean_power(), 1), Table::fmt(window10, 1),
                    ok ? "yes" : "NO", Table::fmt(fleet_mib_s, 0),
                    baseline_mib_s > 0.0 ? Table::fmt_pct(fleet_mib_s / baseline_mib_s)
                                         : "-"});
    // Drain in-flight work before the next budget step.
    host.advance(milliseconds(300));
  }

  sink.banner("Section 4 closed loop: fleet power vs stepping budget");
  sink.table("phases", report);
  sink.note("\n%s: measured max 10 s-window fleet power %s every budget step\n",
            violation ? "FAIL" : "PASS", violation ? "EXCEEDED" : "stayed within");

  // --- SLO epilogue: the same budget steps against an open-loop tenant mix.
  // Two tenants share the fleet at FIXED offered rates: "frontend" (Poisson
  // reads, 2 ms SLO, flash tier) and "batch" (bursty ingest writes, routed).
  // Neither backs off when the budget drops, so a capped fleet shows up as a
  // violation-rate spike — the first-class metric here; cap compliance
  // (above) already gated the exit code.
  Table slo = make_slo_table();
  std::vector<core::TenantSummary> prev = host.tenant_summaries();
  phase_no = 0;
  for (const auto& phase : phases) {
    ++phase_no;
    if (!adapter.set_power_budget(phase.budget).has_value()) continue;
    const std::uint64_t base = cli.experiment.seed + 50000 +
                               static_cast<std::uint64_t>(phase_no) * 1000;
    for (std::size_t i = 0; i < devices; ++i) {
      if (kFleet[i % 3] == devices::DeviceId::kHdd) continue;
      host.add_job(frontend_job(base + i, /*rate_iops=*/4000.0), i);
    }
    for (std::size_t i = 0; i < (devices + 1) / 2; ++i) {
      adapter.submit(batch_ingest_job(base + 500 + i, /*rate_iops=*/600.0));
    }
    host.run_jobs();
    std::vector<core::TenantSummary> cur = host.tenant_summaries();
    add_slo_row(slo, phase.name, phase.budget, "frontend", tenant_delta(cur, prev, 1));
    add_slo_row(slo, phase.name, phase.budget, "batch", tenant_delta(cur, prev, 2));
    prev = std::move(cur);
    host.advance(milliseconds(300));
  }
  sink.banner("SLO epilogue: per-tenant violation rate vs power budget");
  sink.table("slo", slo);
  // Kernel-load accounting (stdout only — not part of the parity CSVs): how
  // many events the fleet's simulators fired in total.
  std::printf("events executed: %llu\n",
              static_cast<unsigned long long>(host.executed_events()));
  return violation ? 1 : 0;
}

// --- the monitored standby rack: what does WATCHING a fleet cost? ---
//
// The paper's end state is a rack that spends most of its life parked at
// minimum power — but still instrumented, because the facility budget is
// enforced from the measurements. This profile isolates that cost: half the
// fleet in deep standby (ATA STANDBY IMMEDIATE where supported), the rest
// at active idle, NO jobs, full 1 kHz rigs streaming into the per-shard
// fleet sum, one 10 s compliance window per epoch. With per-tick sampling
// the event kernel fires devices x 1000 events per simulated second just to
// watch an idle rack; segment-lazy sampling makes the same measurement from
// the (rare) power-state segments.
int run_standby(const core::BenchCli& cli, ResultSink& sink, std::size_t devices,
                std::size_t shards) {
  core::ShardedTestbed host(shards, cli.jobs);
  host.set_trace_mode(core::TraceMode::kStreamingSum);
  for (std::size_t i = 0; i < devices; ++i) {
    host.add_device(kFleet[i % 3], cli.experiment.seed ^ static_cast<std::uint64_t>(i));
  }
  std::size_t parked = 0;
  for (std::size_t i = 0; i < devices; i += 2) {
    if (host.device(i).pm->supports_standby()) {
      host.device(i).pm->standby_immediate();
      ++parked;
    }
  }
  // Five simulated minutes: long enough that sampling dominates the one-off
  // fleet construction cost (FTL tables scale with device count, not time).
  host.start_rigs();
  host.run_until(host.now() + seconds(300), seconds(10));
  host.stop_rigs();
  const power::PowerTrace trace = host.take_fleet_trace();
  const power::TraceSummary s = trace.analyze(seconds(10));
  // Full 17-digit precision, so the parity pin sees any change in a sample.
  Table report({"devices", "parked", "samples", "mean W", "max 10s-win W"});
  report.add_row({Table::fmt_int(static_cast<long long>(devices)),
                  Table::fmt_int(static_cast<long long>(parked)),
                  Table::fmt_int(static_cast<long long>(s.count)),
                  Table::fmt(s.mean_w, 17), Table::fmt(s.max_window_w, 17)});
  sink.banner("Standby rack: 1 kHz monitoring of a parked fleet");
  sink.table("standby", report);
  std::printf("events executed: %llu\n",
              static_cast<unsigned long long>(host.executed_events()));
  return 0;
}

// --- the synthetic rack: a diurnal budget over N devices on K shards ---

int run_diurnal(const core::BenchCli& cli, ResultSink& sink, std::size_t devices,
                std::size_t shards) {
  const std::vector<core::FleetDeviceOptions> types = calibrate_types(cli.experiment);
  print_options_table(sink, types);

  core::ShardedTestbed host(shards, cli.jobs);
  host.set_trace_mode(core::TraceMode::kStreamingSum);
  for (std::size_t i = 0; i < devices; ++i) {
    // Per-device seed: fleet seed ^ device index (the rack's seed law).
    host.add_device(kFleet[i % 3], cli.experiment.seed ^ static_cast<std::uint64_t>(i));
    // Rack rigs run decimated: 100 Hz instead of 1 kHz. The 10 s-window
    // compliance math is rate-independent, and a 1 000-rig fleet at 1 kHz
    // would spend most of its time sampling ADCs.
    host.device(i).rig->set_sample_period(milliseconds(10));
  }

  // One planner/adapter per shard group. The watt grid coarsens with the
  // group (DP cost ~ devices x options x budget/resolution), so a planning
  // round stays cheap at rack scale.
  const std::size_t group_devs = (devices + shards - 1) / shards;
  const Watts watt_res = group_devs > 64 ? 0.5 : 0.1;
  std::vector<std::unique_ptr<core::FleetAdapter>> adapters;
  for (std::size_t k = 0; k < shards; ++k) {
    std::vector<core::FleetDeviceOptions> opts;
    for (std::size_t i = k; i < devices; i += shards) opts.push_back(types[i % 3]);
    adapters.push_back(
        std::make_unique<core::FleetAdapter>(host.shard(k), std::move(opts), watt_res));
  }
  std::vector<Watts> floors(shards), ceils(shards);
  Watts fleet_ceiling = 0.0;
  for (std::size_t k = 0; k < shards; ++k) {
    floors[k] = adapters[k]->controller().min_planned_power();
    ceils[k] = adapters[k]->controller().max_planned_power();
    fleet_ceiling += ceils[k];
  }
  sink.note("rack: %zu devices on %zu shards, 100 Hz rigs (streaming sum), "
            "planner grid %.1f W, fleet ceiling %.0f W\n",
            devices, shards, watt_res, fleet_ceiling);

  struct Phase {
    const char* name;
    double fraction;  // of the fleet ceiling
  };
  const Phase phases[] = {{"overnight", 0.90},
                          {"morning ramp", 0.70},
                          {"midday peak shave", 0.45},
                          {"evening restore", 0.85}};

  Table report({"phase", "budget W", "planned W", "measured W", "max 10s-win W", "within",
                "shed", "fleet MiB/s", "retained"});
  bool violation = false;
  double baseline_mib_s = 0.0;
  int phase_no = 0;
  for (const auto& phase : phases) {
    ++phase_no;
    const Watts budget = fleet_ceiling * phase.fraction;
    const std::vector<Watts> group_budget = model::split_budget(budget, floors, ceils);

    // Fan the budget out: every shard group re-plans under its slice and
    // submits one light write stream per planned writer. An infeasible group
    // (slice below its floor) sheds its load for the phase.
    Watts planned = 0.0;
    int shed = 0;
    std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (shard, local job)
    for (std::size_t k = 0; k < shards; ++k) {
      const auto plan = adapters[k]->set_power_budget(group_budget[k]);
      if (!plan.has_value()) {
        ++shed;
        continue;
      }
      planned += adapters[k]->controller().planned_power();
      int writers = 0;
      for (const auto& cfg : *plan) {
        if (!cfg.standby && cfg.planned_throughput_mib_s > 0.0) ++writers;
      }
      // Rack utilization: one sustained stream per 4 planned writers (the
      // adapter still spreads them round-robin over the active devices), in
      // large lazy chunks — racks run far below per-device saturation, and
      // this keeps the 1 000-device event rate tractable.
      for (int w = 0; w < writers; w += 4) {
        iogen::JobSpec spec;
        spec.pattern = iogen::Pattern::kRandom;
        spec.op = iogen::OpKind::kWrite;
        spec.block_bytes = 4 * MiB;  // light rack streams, not the qd64
        spec.iodepth = 2;            // calibration load
        spec.io_limit_bytes = 0;
        spec.time_limit = kPhaseLength;
        spec.seed = cli.experiment.seed + static_cast<std::uint64_t>(phase_no) * 1000000 +
                    static_cast<std::uint64_t>(k) * 1000 + static_cast<std::uint64_t>(w);
        jobs.emplace_back(k, adapters[k]->submit(spec));
      }
    }
    violation = violation || shed > 0;

    // Advance the whole rack one phase under the epoch barrier; the
    // coordinator regains control at least once per 10 s cap window.
    host.start_rigs();
    host.run_until(host.now() + kPhaseLength, seconds(10));
    host.stop_rigs();
    const power::PowerTrace trace = host.take_fleet_trace();
    const Watts window10 = trace.max_window_average(seconds(10));
    const bool ok = window10 <= budget;
    violation = violation || !ok;

    host.advance(milliseconds(300));  // drain in-flight IO off the books
    double fleet_mib_s = 0.0;
    for (const auto& [k, j] : jobs) {
      fleet_mib_s += mib_per_sec(host.shard(k).job_result(j).bytes, kPhaseLength);
    }
    if (phase_no == 1) baseline_mib_s = fleet_mib_s;
    report.add_row({phase.name, Table::fmt(budget, 0), Table::fmt(planned, 0),
                    Table::fmt(trace.mean_power(), 0), Table::fmt(window10, 0),
                    ok ? "yes" : "NO", Table::fmt_int(shed), Table::fmt(fleet_mib_s, 0),
                    baseline_mib_s > 0.0 ? Table::fmt_pct(fleet_mib_s / baseline_mib_s)
                                         : "-"});
  }

  sink.banner("Diurnal rack: fleet power vs the daily budget curve");
  sink.table("diurnal", report);
  sink.note("\n%s: measured max 10 s-window rack power %s every diurnal step\n",
            violation ? "FAIL" : "PASS", violation ? "EXCEEDED" : "stayed within");

  // --- SLO epilogue: rack headroom vs midday peak shave, per tenant. Jobs
  // are submitted through the per-shard adapters (shard-local), and the
  // host's tenant_summaries() still aggregates them — merged in shard order
  // on the coordinator, so the counts are identical at any worker count.
  for (auto& a : adapters) a->enable_priority_shaping(3);
  Table slo = make_slo_table();
  std::vector<core::TenantSummary> prev = host.tenant_summaries();
  const Phase slo_phases[] = {
      {"overnight", 0.90}, {"morning ramp", 0.70}, {"midday peak shave", 0.45}};
  phase_no = 0;
  for (const auto& phase : slo_phases) {
    ++phase_no;
    const Watts budget = fleet_ceiling * phase.fraction;
    const std::vector<Watts> group_budget = model::split_budget(budget, floors, ceils);
    for (std::size_t k = 0; k < shards; ++k) {
      const auto plan = adapters[k]->set_power_budget(group_budget[k]);
      if (!plan.has_value()) continue;
      const std::size_t group = (devices - k + shards - 1) / shards;
      const std::uint64_t base = cli.experiment.seed + 70000 +
                                 static_cast<std::uint64_t>(phase_no) * 100000 +
                                 static_cast<std::uint64_t>(k) * 1000;
      // Rack load: one frontend stream per 4 group SSDs (pinned to flash),
      // one routed batch stream per 8 group devices. A deep shave can park a
      // whole group (every plan entry standby) — that group sheds its tenants
      // for the phase instead of routing IO at a powered-off device.
      //
      // Frontend streams fill the group from the TOP while the adapter's
      // write router fills from the bottom: overnight the tenants sit on
      // disjoint spindles, and the midday shave — which parks devices and
      // consolidates everyone onto the survivors — is what forces them to
      // share. The violation-rate delta between the two rows is therefore
      // the cost of consolidation, not a placement artifact.
      std::vector<std::size_t> group_global;
      for (std::size_t g = k; g < devices; g += shards) group_global.push_back(g);
      std::size_t placed = 0;
      for (std::size_t n = group_global.size(); n > 0 && placed < (group + 3) / 4; --n) {
        const std::size_t g = group_global[n - 1];
        if (kFleet[g % 3] == devices::DeviceId::kHdd) continue;
        if ((*plan)[n - 1].standby) continue;
        host.add_job(frontend_job(base + placed, /*rate_iops=*/2000.0), g);
        ++placed;
      }
      // Batch ingest tracks the PLAN, not the hardware: a deep shave answers
      // the budget with the zero-throughput idle option, and a batch stream
      // submitted anyway would run at full speed on the powered-but-idle
      // flash, silently blowing the budget the main loop just proved. So the
      // batch tier sheds exactly when the plan stops provisioning writers —
      // that shedding (and the priority shaping of what remains) IS the
      // midday row's story; the frontend keeps its pinned reads throughout.
      bool any_writer = false;
      for (const auto& cfg : *plan) {
        any_writer = any_writer || (!cfg.standby && cfg.planned_throughput_mib_s > 0.0);
      }
      if (!any_writer) continue;
      for (std::size_t i = 0; i < (group + 7) / 8; ++i) {
        adapters[k]->submit(batch_job(base + 500 + i));
      }
    }
    host.run_jobs();
    std::vector<core::TenantSummary> cur = host.tenant_summaries();
    add_slo_row(slo, phase.name, budget, "frontend", tenant_delta(cur, prev, 1));
    add_slo_row(slo, phase.name, budget, "batch", tenant_delta(cur, prev, 2));
    prev = std::move(cur);
    host.advance(milliseconds(300));
  }
  sink.banner("Diurnal SLO epilogue: per-tenant violation rate vs rack budget");
  sink.table("slo_diurnal", slo);
  std::printf("events executed: %llu\n",
              static_cast<unsigned long long>(host.executed_events()));
  return violation ? 1 : 0;
}

}  // namespace
}  // namespace pas

int main(int argc, char** argv) {
  using namespace pas;
  std::size_t devices = 0;  // 0: the profile's default
  std::size_t shards = 1;
  std::string profile = "paper";
  const core::BenchFlag extra[] = {
      {"--devices", "N", "fleet size (default: 3 paper, 256 standby, 1000 diurnal)",
       [&](const char* v) {
         devices = core::parse_uint_flag(argv[0], "--devices", v, 1, INT_MAX);
       }},
      {"--shards", "K", "shard count (default 1)",
       [&](const char* v) { shards = core::parse_uint_flag(argv[0], "--shards", v, 1, INT_MAX); }},
      {"--profile", "P", "paper | diurnal | standby (default paper)",
       [&](const char* v) { profile = v; }},
  };
  const auto cli = core::parse_bench_cli(argc, argv, 0.25, extra);
  if (profile != "paper" && profile != "diurnal" && profile != "standby") {
    std::fprintf(stderr, "%s: --profile must be 'paper', 'diurnal' or 'standby'\n",
                 argv[0]);
    return 2;
  }
  if (devices == 0) devices = profile == "paper" ? 3 : profile == "standby" ? 256 : 1000;

  ResultSink sink("fleet_scenario", cli.csv_dir);
  if (profile == "paper") return run_paper(cli, sink, devices, shards);
  if (profile == "standby") return run_standby(cli, sink, devices, shards);
  return run_diurnal(cli, sink, devices, shards);
}
