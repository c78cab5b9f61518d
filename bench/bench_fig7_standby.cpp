// Reproduces Figure 7 and the section 3.2.2 standby study:
//   (a) 860 EVO power during idle -> SLUMBER (ALPM command at 200 ms),
//   (b) 860 EVO power during SLUMBER -> idle (command at 400 ms),
// plus the HDD numbers: standby 1.05 W vs 3.76 W idle, spin-down/up seconds.
#include <cstdio>

#include "common/table.h"
#include "core/runner.h"
#include "devices/specs.h"
#include "devmgmt/admin.h"
#include "power/rig.h"
#include "sim/simulator.h"

namespace pas {
namespace {

void print_trace(const power::PowerTrace& trace, TimeNs step) {
  const Watts vmax = 1.5;  // the paper's Figure 7 y-axis
  const TimeNs base = trace.start_time();
  for (std::size_t i = 0; i < trace.size();
       i += static_cast<std::size_t>(step / milliseconds(1))) {
    const Watts w = trace.watts()[i];
    std::printf("%5lld ms %5.2f W |%s\n",
                static_cast<long long>((trace.time_at(i) - base) / milliseconds(1)), w,
                ascii_bar(w, vmax, 45).c_str());
  }
}

power::PowerTrace evo_transition(bool entering) {
  sim::Simulator sim;
  auto evo = devices::make_device(sim, devices::DeviceId::kEvo860, 1);
  devmgmt::SataAlpm& alpm = *evo.alpm;
  power::MeasurementRig& rig = *evo.rig;
  if (entering) {
    rig.start();
    sim.schedule_at(milliseconds(200),
                    [&] { alpm.set_link_pm(sim::LinkPmState::kSlumber); });
  } else {
    // Pre-position in SLUMBER, then start the 1 s observation window.
    alpm.set_link_pm(sim::LinkPmState::kSlumber);
    sim.run_until(seconds(2));
    rig.start();
    sim.schedule_after(milliseconds(400),
                       [&] { alpm.set_link_pm(sim::LinkPmState::kActive); });
  }
  const TimeNs start = sim.now();
  sim.run_until(start + seconds(1));
  rig.stop();
  auto trace = rig.take_trace();
  return trace;
}

// Full-precision sample dump (17 significant digits round-trips a double
// exactly), so the parity suite can byte-compare the measured trace itself,
// not just the 2-decimal console rendering.
Table trace_table(const power::PowerTrace& trace) {
  Table t({"t ns", "watts"});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    t.add_row({Table::fmt_int(trace.time_at(i)), Table::fmt(trace.watts()[i], 17)});
  }
  return t;
}

}  // namespace
}  // namespace pas

int main(int argc, char** argv) {
  using namespace pas;
  const auto cli = core::parse_bench_cli(argc, argv);
  ResultSink sink("fig7", cli.csv_dir);

  print_banner("Figure 7a: 860 EVO, idle -> standby (ALPM SLUMBER command at 200 ms)");
  const auto enter = evo_transition(true);
  print_trace(enter, milliseconds(25));
  std::printf("  before: %.2f W   after: %.2f W   (paper: 0.35 W -> 0.17 W)\n",
              enter.slice(0, milliseconds(200)).mean_power(),
              enter.slice(milliseconds(600), seconds(1)).mean_power());

  print_banner("Figure 7b: 860 EVO, standby -> idle (wake command at 400 ms)");
  const auto exit = evo_transition(false);
  print_trace(exit, milliseconds(25));
  const TimeNs b = exit.start_time();
  std::printf("  before: %.2f W   after: %.2f W   (paper: 0.17 W -> 0.35 W)\n",
              exit.slice(b, b + milliseconds(400)).mean_power(),
              exit.slice(b + milliseconds(700), b + seconds(1)).mean_power());

  sink.data("enter_trace", trace_table(enter));
  sink.data("exit_trace", trace_table(exit));

  print_banner("Section 3.2.2: HDD standby");
  {
    sim::Simulator sim;
    auto hdd = devices::make_device(sim, devices::DeviceId::kHdd, 1);
    const Watts idle = hdd.device->instantaneous_power();
    hdd.alpm->standby_immediate();
    sim.run_until(seconds(10));
    const Watts standby = hdd.device->instantaneous_power();
    // Wake with an IO and measure the latency penalty.
    TimeNs lat = 0;
    hdd.device->submit(sim::IoRequest{sim::IoOp::kRead, 0, 4096},
                       [&](const sim::IoCompletion& c) { lat = c.latency(); });
    sim.run_to_completion();
    std::printf("idle %.2f W -> standby %.2f W: saves %.2f W (paper: 3.76 -> 1.1, 2.66 W)\n",
                idle, standby, idle - standby);
    std::printf("IO to spun-down disk took %.1f s (paper: spin-down/up up to 10 s)\n",
                to_seconds(lat));
  }
  return 0;
}
