// Execution layer of the campaign engine (DESIGN.md section 3.1): runs a
// vector of CellSpecs over a fixed worker pool.
//
// Cells are embarrassingly parallel — every cell runs on its own simulator
// with its own freshly constructed device and per-cell derived seeds — so
// the runner executes them on N threads and collects outputs back into spec
// order. Results are bit-identical to serial execution (jobs=1, which runs
// everything inline on the calling thread, preserving the old serial path).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "core/campaign.h"
#include "core/cell_spec.h"

namespace pas::core {

struct RunnerProgress {
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_s = 0.0;
  double cells_per_sec = 0.0;
};

// Called after each cell completes; invocations are serialized by the runner
// so the callback needs no locking of its own.
using ProgressFn = std::function<void(const RunnerProgress&)>;

// A cell whose body threw: the campaign keeps going, and the failure is
// reported with the cell's device/axes context instead of aborting.
struct CellFailure {
  std::size_t index = 0;  // position in the spec vector
  std::string context;    // CellSpec::context() of the failing cell
  std::string message;    // exception what()
};

struct RunnerOptions {
  // Worker threads: 1 = serial on the calling thread; 0 = default_jobs()
  // (hardware_concurrency, overridable via the PAS_JOBS environment
  // variable and the benches' --jobs flag).
  int jobs = 1;
  ExperimentOptions experiment;
  ProgressFn progress;  // optional
};

// hardware_concurrency, unless the PAS_JOBS environment variable overrides.
// PAS_JOBS follows parse_uint_flag's rules (a value outside [0, INT_MAX]
// exits 2 naming PAS_JOBS and the value); unset, empty or 0 means
// hardware_concurrency.
int default_jobs();

// Calls fn(i) for every i in [0, n): inline on the calling thread when one
// worker suffices (jobs <= 1 or n <= 1), else on min(jobs, n) threads that
// each pull the next index from a shared counter. Returns once every call
// has. The worker pool of CampaignRunner::run and of ShardedTestbed's
// fan-out; a template so neither wraps its body in a std::function.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t jobs, Fn&& fn) {
  jobs = std::min(jobs, n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (auto& t : workers) t.join();
}

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions options = {});

  // Executes every cell and returns the outputs in spec order. A cell that
  // throws leaves its output slot default-constructed and is recorded in
  // failures(); the rest of the campaign still runs.
  std::vector<ExperimentOutput> run(const std::vector<CellSpec>& cells);

  const std::vector<CellFailure>& failures() const { return failures_; }

 private:
  ExperimentOutput run_one(const CellSpec& spec) const;

  RunnerOptions options_;
  std::vector<CellFailure> failures_;
};

// ---- Bench harness glue (shared by every bench binary) ----

// Command line shared by the reproduction benches:
//   --full        the paper's exact 4 GiB / 60 s cells (scale 1.0)
//   --quick       256 MiB smoke cells (scale 0.0625)
//   --scale F     explicit io_limit_scale (finite, > 0)
//   --jobs N      worker threads (0, the default: hardware_concurrency /
//                 PAS_JOBS)
//   --csv-dir D   mirror every table as CSV + JSON under D
//   --seed S      base seed in [0, 2^64) (per-cell seeds are derived from it)
// A malformed or out-of-range value exits 2 with a message naming the flag
// and the value. `default_scale` is the io_limit_scale used when neither
// --full, --quick nor --scale is given (the benches' 1 GiB default;
// calibration_report passes 1.0 to keep the paper's exact cells).
struct BenchCli {
  ExperimentOptions experiment;
  int jobs = 0;  // 0 = default_jobs()
  std::string csv_dir;
};

BenchCli parse_bench_cli(int argc, char** argv, double default_scale = 0.25);

// A bench-specific flag recognized on top of the shared set: `--name V` or
// `--name=V` when value_name is non-null, a bare boolean switch otherwise
// (apply receives "" then). `help` is the one-line description for --help.
struct BenchFlag {
  const char* name = nullptr;        // e.g. "--devices"
  const char* value_name = nullptr;  // e.g. "N"; nullptr = boolean switch
  const char* help = nullptr;
  std::function<void(const char*)> apply;
};

// parse_bench_cli with bench-specific extensions (e.g. bench_fleet_scenario's
// --devices/--shards/--profile). Unknown options still exit 2.
BenchCli parse_bench_cli(int argc, char** argv, double default_scale,
                         std::span<const BenchFlag> extra);

// The value of integer flag `flag` as a base-10 integer in [lo, hi]. A sign,
// a trailing character, a fraction or an out-of-range value prints
// "<prog>: <flag> expects an integer in [lo, hi], got '<value>'" and exits 2.
// parse_bench_cli reads --jobs and --seed with it; bench flags can too.
std::uint64_t parse_uint_flag(const char* prog, const char* flag, const char* value,
                              std::uint64_t lo, std::uint64_t hi);

// RunnerOptions for a bench: the CLI's jobs/experiment plus a stderr
// progress line ("[12/108] 3.4s, 3.5 cells/s").
RunnerOptions bench_runner_options(const BenchCli& cli);

// Prints any failures to stderr; returns the bench process exit code
// (0 when the whole campaign succeeded).
int report_failures(const CampaignRunner& runner);

// Raw measured grid as a machine-readable table (one row per output, paper
// units) for ResultSink CSV/JSON emission.
Table points_table(const std::vector<CellSpec>& cells,
                   const std::vector<ExperimentOutput>& outputs);

}  // namespace pas::core
