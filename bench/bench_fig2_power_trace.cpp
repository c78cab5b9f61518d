// Reproduces Figure 2: (a) the millisecond-scale power trace of SSD1 during
// one random-write experiment (chunk 256 KiB, queue depth 64), and (b) the
// distribution ("violin") of power samples for each device during the same
// experiment.
#include <cstdio>

#include "common/histogram.h"
#include "core/cell_spec.h"
#include "core/runner.h"
#include "devices/specs.h"

namespace pas {
namespace {

using devices::DeviceId;

void print_trace_ascii(const power::PowerTrace& trace, TimeNs from, TimeNs to, TimeNs step) {
  const auto slice = trace.slice(from, to);
  if (slice.empty()) return;
  const Watts vmax = slice.max_power();
  std::size_t first = 0;  // the slice's first sample in the trace
  while (trace.time_at(first) < from) ++first;
  for (std::size_t i = 0; i < slice.size(); i += static_cast<std::size_t>(step / milliseconds(1))) {
    const Watts w = trace.watts()[first + i];
    std::printf("%6lld ms %6.2f W |%s\n", static_cast<long long>(slice.time_at(i) / milliseconds(1)),
                w, ascii_bar(w, vmax, 50).c_str());
  }
}

void print_violin(const char* name, const power::PowerTrace& trace) {
  const DistributionSummary d = trace.distribution();
  std::printf("%-6s n=%6zu  min=%5.2f  p5=%5.2f  p25=%5.2f  med=%5.2f  mean=%5.2f  "
              "p75=%5.2f  p95=%5.2f  max=%5.2f W\n",
              name, d.count, d.min, d.p5, d.p25, d.median, d.mean, d.p75, d.p95, d.max);
  // Vertical histogram rendered horizontally: the violin body.
  LinearHistogram h(d.min, d.max + 1e-9, 20);
  for (const double w : trace.watts()) h.add(w);
  const auto peak = h.max_bin_count();
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    std::printf("  %6.2f W %s\n", h.bin_center(b),
                ascii_bar(static_cast<double>(h.count_in_bin(b)), static_cast<double>(peak), 40)
                    .c_str());
  }
}

}  // namespace
}  // namespace pas

int main(int argc, char** argv) {
  using namespace pas;
  auto cli = core::parse_bench_cli(argc, argv);
  cli.experiment.keep_trace = true;
  ResultSink sink("fig2", cli.csv_dir);

  // The same cell on every device, traces retained.
  const auto cells = core::GridBuilder()
                         .devices({DeviceId::kSsd1, DeviceId::kSsd2, DeviceId::kSsd3,
                                   DeviceId::kHdd})
                         .base_job(core::make_job(iogen::Pattern::kRandom,
                                                  iogen::OpKind::kWrite, 256 * KiB, 64))
                         .cross();
  core::CampaignRunner runner(core::bench_runner_options(cli));
  const auto out = runner.run(cells);

  sink.banner("Figure 2a: SSD1 random write power trace (256 KiB, qd 64), 1 kHz sampling");
  const auto& ssd1 = out[0];
  sink.note("samples every 10 ms over the first 1.2 s of the experiment:\n");
  print_trace_ascii(ssd1.trace, 0, milliseconds(1200), milliseconds(10));
  sink.note("\ntrace: mean %.2f W, min %.2f W, max %.2f W over %zu samples\n",
            ssd1.trace.mean_power(), ssd1.trace.min_power(), ssd1.trace.max_power(),
            ssd1.trace.size());

  sink.banner("Figure 2b: power distribution per device during the same experiment");
  for (std::size_t d = 0; d < cells.size(); ++d) {
    print_violin(devices::label(cells[d].device), out[d].trace);
  }
  sink.data("cells", core::points_table(cells, out));
  sink.note("\nPaper: substantial short-timescale variability on SSD1; medians and means\n"
            "nearly overlap; some devices show more variability than others.\n");
  return core::report_failures(runner);
}
