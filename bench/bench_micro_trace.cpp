// Micro-benchmarks (google-benchmark) of the power-trace pipeline hot
// paths: per-cell analytics (the four reductions core/campaign.cpp needs),
// slice-then-mean (the Figure 7 reporting pattern), fleet-trace summation
// (core/testbed.cpp), and raw sample append (the rig's 1 kHz store path).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "power/trace.h"

namespace pas {
namespace {

constexpr std::size_t kTraceSamples = 1'000'000;  // 1000 s of 1 kHz sampling
constexpr std::size_t kFleetDevices = 4;
constexpr std::size_t kFleetSamples = 250'000;

power::PowerTrace make_trace(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  power::PowerTrace t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(milliseconds(1) * static_cast<TimeNs>(i + 1), 5.0 + rng.next_double());
  }
  return t;
}

// The per-cell reporting reductions as four separate passes — what
// core/campaign.cpp did before the fused summary.
void BM_TraceFourPasses(benchmark::State& state) {
  const power::PowerTrace trace = make_trace(kTraceSamples, 1);
  for (auto _ : state) {
    double acc = trace.min_power();
    acc += trace.max_power();
    acc += trace.mean_power();
    acc += trace.max_window_average(seconds(10));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTraceSamples));
}
BENCHMARK(BM_TraceFourPasses);

// The same four quantities from one fused pass over the SoA value array.
void BM_TraceFusedSummary(benchmark::State& state) {
  const power::PowerTrace trace = make_trace(kTraceSamples, 1);
  for (auto _ : state) {
    const power::TraceSummary s = trace.analyze(seconds(10));
    double acc = s.min_w + s.max_w + s.mean_w + s.max_window_w;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTraceSamples));
}
BENCHMARK(BM_TraceFusedSummary);

// bench_fig7_standby's reporting shape: four slices of one trace, mean of
// each. Pre-SoA this materialized four sub-trace copies; now each slice is
// a zero-copy view.
void BM_TraceSliceMeans(benchmark::State& state) {
  const power::PowerTrace trace = make_trace(kTraceSamples, 2);
  const TimeNs b = trace.start_time();
  const TimeNs quarter = trace.duration() / 4;
  for (auto _ : state) {
    double acc = 0.0;
    for (int q = 0; q < 4; ++q) {
      acc += trace.slice(b + q * quarter, b + (q + 1) * quarter).mean_power();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTraceSamples));
}
BENCHMARK(BM_TraceSliceMeans);

// Fleet summation, sample-major: the pre-SoA fleet-trace loop — per-sample
// device loop, per-sample alignment re-check, per-sample append.
void BM_FleetSumSampleMajor(benchmark::State& state) {
  std::vector<power::PowerTrace> traces;
  for (std::size_t d = 0; d < kFleetDevices; ++d) {
    traces.push_back(make_trace(kFleetSamples, 10 + d));
  }
  for (auto _ : state) {
    const power::PowerTrace& first = traces[0];
    power::PowerTrace fleet;
    fleet.reserve(first.size());
    for (std::size_t s = 0; s < first.size(); ++s) {
      double total = first.watts()[s];
      for (std::size_t d = 1; d < traces.size(); ++d) {
        const power::PowerTrace& t = traces[d];
        if (t.size() != first.size() || t.time_at(s) != first.time_at(s)) std::abort();
        total += t.watts()[s];
      }
      fleet.add(first.time_at(s), total);
    }
    benchmark::DoNotOptimize(fleet);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFleetSamples * kFleetDevices));
}
BENCHMARK(BM_FleetSumSampleMajor);

// Fleet summation, device-major: the shape of Testbed's rig drain —
// alignment validated once per device, then one contiguous add-loop each.
void BM_FleetSumDeviceMajor(benchmark::State& state) {
  std::vector<power::PowerTrace> traces;
  for (std::size_t d = 0; d < kFleetDevices; ++d) {
    traces.push_back(make_trace(kFleetSamples, 10 + d));
  }
  for (auto _ : state) {
    power::PowerTrace fleet = traces[0];
    for (std::size_t d = 1; d < traces.size(); ++d) {
      fleet.accumulate_aligned(traces[d]);
    }
    benchmark::DoNotOptimize(fleet);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kFleetSamples * kFleetDevices));
}
BENCHMARK(BM_FleetSumDeviceMajor);

// Raw append throughput of the rig's store path (no reserve: includes
// reallocation, which the SoA layout halves).
void BM_TraceAppend(benchmark::State& state) {
  for (auto _ : state) {
    power::PowerTrace t;
    for (std::size_t i = 0; i < kFleetSamples; ++i) {
      t.add(milliseconds(1) * static_cast<TimeNs>(i + 1), 5.0);
    }
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kFleetSamples));
}
BENCHMARK(BM_TraceAppend);

}  // namespace
}  // namespace pas

BENCHMARK_MAIN();
