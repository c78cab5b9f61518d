// Power-adaptive storage server (paper sections 2 and 4).
//
// A storage server with 16 NVMe SSDs and 2 HDDs — the paper's motivating
// configuration, whose storage power dynamic range rivals the host's — runs
// a sustained write-heavy workload while the facility's power budget
// changes. The devices live on one core::Testbed, each on its own timeline
// under one fleet clock; a core::FleetAdapter closes the loop: the
// PowerAdaptiveController plans per-device configurations from the measured
// power-throughput model (power states + IO shaping + standby parking),
// applies them through the live NVMe/SATA admin paths, and routes each
// phase's jobs only to the devices the plan gives throughput (power-aware IO
// redirection).
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "core/testbed.h"
#include "iogen/engine.h"

namespace pas {
namespace {

model::ExperimentPoint option(int ps, std::uint32_t chunk, int qd, double watts, double mib_s) {
  model::ExperimentPoint p;
  p.power_state = ps;
  p.chunk_bytes = chunk;
  p.queue_depth = qd;
  p.workload = "randwrite";
  p.avg_power_w = watts;
  p.throughput_mib_s = mib_s;
  return p;
}

}  // namespace
}  // namespace pas

int main() {
  using namespace pas;

  // Build the fleet under one fleet clock: 16 SSD2-class drives + 2 HDDs.
  core::Testbed testbed;
  std::vector<core::FleetDeviceOptions> opts;
  for (int i = 0; i < 16; ++i) {
    testbed.add_device(devices::DeviceId::kSsd2, 100 + i);
    core::FleetDeviceOptions d;
    d.name = "ssd" + std::to_string(i);
    // Measured configuration options (from the calibrated section 3
    // campaign; see bench_fig10_model for producing these from scratch).
    d.options = {option(0, 256 * 1024, 64, 14.9, 3100.0),
                 option(1, 256 * 1024, 64, 12.0, 2300.0),
                 option(2, 256 * 1024, 64, 10.2, 1650.0),
                 option(0, 256 * 1024, 1, 8.6, 1900.0)};
    opts.push_back(std::move(d));
  }
  for (int i = 0; i < 2; ++i) {
    testbed.add_device(devices::DeviceId::kHdd, 200 + i);
    core::FleetDeviceOptions d;
    d.name = "hdd" + std::to_string(i);
    d.options = {option(0, 2 * 1024 * 1024, 64, 4.2, 150.0)};
    d.supports_standby = true;
    d.standby_power_w = 1.05;
    opts.push_back(std::move(d));
  }
  core::FleetAdapter adapter(testbed, std::move(opts));

  std::printf("fleet floor (all idle): %.1f W; ceiling at full load: ~%.0f W\n",
              testbed.measured_power(), 16 * 14.9 + 2 * 4.2);

  // Budget timeline: normal -> 15% cut -> 40% cut (demand response) ->
  // restore. Each phase runs 4 s of sustained random writes.
  struct Phase {
    const char* name;
    Watts budget;
  };
  const Phase phases[] = {{"normal operation", 260.0},
                          {"-15% (oversubscription)", 220.0},
                          {"-40% (demand response)", 160.0},
                          {"restored", 260.0}};

  Table report({"phase", "budget W", "planned W", "measured W", "fleet MiB/s", "parked",
                "ps mix"});
  int phase_no = 0;
  for (const auto& phase : phases) {
    ++phase_no;
    const auto plan = adapter.set_power_budget(phase.budget);
    if (!plan.has_value()) {
      std::printf("budget %.0f W below fleet floor!\n", phase.budget);
      continue;
    }
    int parked = 0;
    int writers = 0;
    int ps_count[3] = {};
    for (const auto& cfg : *plan) {
      if (cfg.standby) {
        ++parked;
      } else {
        if (cfg.planned_throughput_mib_s > 0.0) ++writers;
        if (cfg.device.rfind("ssd", 0) == 0) ++ps_count[cfg.power_state];
      }
    }

    // One write job per planned writer, routed and shaped by the adapter
    // (the redirection policy spreads them over the plan's write targets).
    std::vector<std::size_t> jobs;
    for (int w = 0; w < writers; ++w) {
      iogen::JobSpec spec;
      spec.pattern = iogen::Pattern::kRandom;
      spec.op = iogen::OpKind::kWrite;
      spec.io_limit_bytes = 64ULL * GiB;  // time-limited
      spec.time_limit = seconds(3.8);
      spec.seed = static_cast<std::uint64_t>(phase_no) * 100 + static_cast<std::uint64_t>(w);
      jobs.push_back(adapter.submit(spec, /*shape_to_plan=*/true));
    }

    // Measure the fleet's true power draw through the phase with the
    // per-device rigs, summed into one fleet trace.
    testbed.start_rigs();
    testbed.run_jobs();  // run every device until all jobs finish
    testbed.stop_rigs();
    const power::PowerTrace fleet_trace = testbed.take_fleet_trace();

    double fleet_mib_s = 0.0;
    for (const std::size_t j : jobs) {
      fleet_mib_s += mib_per_sec(testbed.job_result(j).bytes, seconds(4));
    }
    report.add_row({phase.name, Table::fmt(phase.budget, 0),
                    Table::fmt(adapter.controller().planned_power(), 1),
                    Table::fmt(fleet_trace.mean_power(), 1), Table::fmt(fleet_mib_s, 0),
                    Table::fmt_int(parked),
                    "ps0:" + std::to_string(ps_count[0]) + " ps1:" + std::to_string(ps_count[1]) +
                        " ps2:" + std::to_string(ps_count[2])});
    // Let in-flight background work drain before the next phase.
    testbed.advance(milliseconds(300));
  }

  print_banner("Power-adaptive fleet under a changing budget");
  report.print();
  std::printf("\nMeasured fleet power tracks each budget from below; tighter budgets are met\n"
              "by deeper power states and by parking the HDDs in standby, while reads/writes\n"
              "keep flowing to the remaining active devices.\n");
  return 0;
}
