#include "core/campaign.h"

#include <algorithm>

#include "common/check.h"
#include "core/cell_spec.h"
#include "core/runner.h"
#include "core/testbed.h"
#include "sim/simulator.h"

namespace pas::core {

const std::vector<std::uint32_t>& chunk_sizes() {
  static const std::vector<std::uint32_t> kSizes = {
      4 * 1024,    16 * 1024,   64 * 1024,
      256 * 1024,  1024 * 1024, 2048 * 1024};
  return kSizes;
}

const std::vector<int>& queue_depths() {
  static const std::vector<int> kDepths = {1, 4, 16, 32, 64, 128};
  return kDepths;
}

double ExperimentOutput::extra(const std::string& key, double fallback) const {
  // Deliberately a linear scan: `extras` holds the handful of bespoke
  // metrics a custom cell body records (the ablations add at most ~5), so
  // O(n) over a short vector beats any tree/hash here and preserves the
  // insertion order the reporting code relies on. Revisit only if a cell
  // body ever records dozens of keys.
  for (const auto& [k, v] : extras) {
    if (k == key) return v;
  }
  return fallback;
}

ExperimentOutput run_cell(devices::DeviceId id, int power_state, const iogen::JobSpec& spec,
                          const ExperimentOptions& options) {
  // A cell is the single-device instantiation of the testbed: one device,
  // one job, one rig, one fresh timeline. The event sequence (device
  // construction -> admin power-state call -> rig start -> engine start ->
  // drive) matches the historical hand-wired path exactly, so outputs are
  // bit-identical to it. run_jobs() also fires what is still due at the
  // finish instant before the rig stops; an integrating rig's sample there
  // is the same under either power segment (power/rig.h).
  Testbed testbed;
  const std::size_t d = testbed.add_device(id, options.seed);
  devices::DeviceBundle& dev = testbed.device(d);

  if (power_state != 0) {
    PAS_CHECK_MSG(dev.nvme->set_power_state(power_state) == devmgmt::AdminStatus::kSuccess,
                  "device rejected the power state");
  }

  iogen::JobSpec job = spec;
  // Time-limited cells (io_limit_bytes == 0, "run 60 s") have no byte budget
  // to scale — the 64 MiB floor must not resurrect one.
  if (options.io_limit_scale != 1.0 && job.io_limit_bytes != 0) {
    job.io_limit_bytes = std::max<std::uint64_t>(
        64 * MiB,
        static_cast<std::uint64_t>(static_cast<double>(job.io_limit_bytes) *
                                   options.io_limit_scale));
  }

  const std::size_t j = testbed.add_job(job, d);
  testbed.start_rigs();
  testbed.run_jobs();
  testbed.stop_rigs();

  ExperimentOutput out;
  out.job = testbed.job_result(j);
  const iogen::JobResult& result = out.job;
  power::MeasurementRig& rig = *dev.rig;
  const power::PowerTrace& trace = rig.trace();
  PAS_CHECK_MSG(!trace.empty(), "job finished before the first power sample");
  // One fused pass replaces the four separate O(n) reductions; each field is
  // bit-identical to the standalone method it replaced.
  const power::TraceSummary summary = trace.analyze(seconds(10));
  out.min_power_w = summary.min_w;
  out.max_power_w = summary.max_w;
  out.max_window10s_w = summary.max_window_w;

  out.point.device = devices::label(id);
  out.point.power_state = power_state;
  out.point.chunk_bytes = job.block_bytes;
  out.point.queue_depth = job.iodepth;
  out.point.workload = std::string(iogen::to_string(job.pattern)) + iogen::to_string(job.op);
  // Layered cells get distinguishing suffixes; the paper's closed-loop basic
  // cells keep their historical workload strings (CSV stability).
  if (job.pattern_kind == iogen::PatternKind::kTraceReplay) out.point.workload += "-replay";
  if (job.pattern_kind == iogen::PatternKind::kKeyspace) out.point.workload += "-keyspace";
  if (job.arrival.kind != iogen::ArrivalKind::kClosedLoop) {
    out.point.workload += std::string("-") + iogen::to_string(job.arrival.kind);
  }
  out.point.avg_power_w = summary.mean_w;
  out.point.throughput_mib_s = result.throughput_mib_s();
  out.point.avg_latency_us = result.avg_latency_us();
  out.point.p99_latency_us = result.p99_latency_us();

  if (options.keep_trace) out.trace = rig.take_trace();
  return out;
}

std::vector<CellSpec> randwrite_grid_specs(devices::DeviceId id, bool across_power_states) {
  int states = 1;
  if (across_power_states) {
    sim::Simulator probe_sim;
    const auto probe = devices::make_device(probe_sim, id, 1);
    states = probe.pm->power_state_count();
  }
  std::vector<int> state_axis(static_cast<std::size_t>(states));
  for (int ps = 0; ps < states; ++ps) state_axis[static_cast<std::size_t>(ps)] = ps;
  return GridBuilder()
      .device(id)
      .power_states(std::move(state_axis))
      .patterns({iogen::Pattern::kRandom})
      .ops({iogen::OpKind::kWrite})
      .chunks(chunk_sizes())
      .queue_depths(queue_depths())
      .cross();
}

std::vector<ExperimentOutput> randwrite_grid(devices::DeviceId id, bool across_power_states,
                                             const ExperimentOptions& options, int jobs) {
  RunnerOptions ro;
  ro.jobs = jobs;
  ro.experiment = options;
  return CampaignRunner(ro).run(randwrite_grid_specs(id, across_power_states));
}

model::PowerThroughputModel build_model(const char* device_label,
                                        const std::vector<ExperimentOutput>& outputs) {
  std::vector<model::ExperimentPoint> points;
  points.reserve(outputs.size());
  for (const auto& o : outputs) points.push_back(o.point);
  return model::PowerThroughputModel(device_label, std::move(points));
}

}  // namespace pas::core
