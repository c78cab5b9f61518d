#include "core/runner.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

namespace pas::core {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

int default_jobs() {
  const char* env = std::getenv("PAS_JOBS");
  if (env != nullptr && env[0] != '\0') {
    const auto n = static_cast<int>(parse_uint_flag("pas", "PAS_JOBS", env, 0, INT_MAX));
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

CampaignRunner::CampaignRunner(RunnerOptions options) : options_(std::move(options)) {}

ExperimentOutput CampaignRunner::run_one(const CellSpec& spec) const {
  ExperimentOptions o = options_.experiment;
  o.seed = derive_cell_seed(options_.experiment.seed, spec);
  if (spec.body) {
    CellSpec seeded = spec;
    seeded.job.seed = o.seed;
    return spec.body(seeded, o);
  }
  iogen::JobSpec job = spec.job;
  job.seed = o.seed;
  return run_cell(spec.device, spec.power_state, job, o);
}

std::vector<ExperimentOutput> CampaignRunner::run(const std::vector<CellSpec>& cells) {
  failures_.clear();
  std::vector<ExperimentOutput> outputs(cells.size());
  if (cells.empty()) return outputs;

  const auto start = Clock::now();
  const int jobs = options_.jobs <= 0 ? default_jobs() : options_.jobs;

  std::mutex mu;  // guards failures_ and progress reporting
  std::size_t done = 0;
  auto finish_cell = [&](std::size_t index, const char* error) {
    std::lock_guard<std::mutex> lock(mu);
    if (error != nullptr) failures_.push_back({index, cells[index].context(), error});
    ++done;
    if (options_.progress) {
      RunnerProgress p;
      p.done = done;
      p.total = cells.size();
      p.elapsed_s = elapsed_seconds(start);
      p.cells_per_sec = p.elapsed_s > 0.0 ? static_cast<double>(done) / p.elapsed_s : 0.0;
      options_.progress(p);
    }
  };
  auto execute = [&](std::size_t index) {
    try {
      outputs[index] = run_one(cells[index]);
      finish_cell(index, nullptr);
    } catch (const std::exception& e) {
      finish_cell(index, e.what());
    } catch (...) {
      finish_cell(index, "unknown error");
    }
  };

  parallel_for(cells.size(), static_cast<std::size_t>(jobs), execute);

  // Failures are recorded in completion order under the mutex; sort back to
  // spec order so reports are deterministic.
  std::sort(failures_.begin(), failures_.end(),
            [](const CellFailure& a, const CellFailure& b) { return a.index < b.index; });
  return outputs;
}

std::uint64_t parse_uint_flag(const char* prog, const char* flag, const char* value,
                              std::uint64_t lo, std::uint64_t hi) {
  // strtoull skips leading blanks and negates a leading '-', so the value
  // must start with a digit; it must also end with one and fit 64 bits.
  const bool digit_first = value[0] >= '0' && value[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = digit_first ? std::strtoull(value, &end, 10) : 0;
  if (!digit_first || errno == ERANGE || *end != '\0' || x < lo || x > hi) {
    std::fprintf(stderr, "%s: %s expects an integer in [%llu, %llu], got '%s'\n", prog, flag,
                 static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
                 value);
    std::exit(2);
  }
  return x;
}

BenchCli parse_bench_cli(int argc, char** argv, double default_scale) {
  return parse_bench_cli(argc, argv, default_scale, {});
}

BenchCli parse_bench_cli(int argc, char** argv, double default_scale,
                         std::span<const BenchFlag> extra) {
  BenchCli cli;
  cli.experiment.io_limit_scale = default_scale;
  auto value_of = [&](int& i, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') return argv[i] + n + 1;
    if (std::strcmp(argv[i], flag) != 0) return nullptr;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires a value (try --help)\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      cli.experiment.io_limit_scale = 1.0;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      cli.experiment.io_limit_scale = 0.0625;
    } else if (const char* v = value_of(i, "--scale")) {
      char* end = nullptr;
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(x) || x <= 0.0) {
        std::fprintf(stderr, "%s: --scale expects a finite number > 0, got '%s'\n", argv[0], v);
        std::exit(2);
      }
      cli.experiment.io_limit_scale = x;
    } else if (const char* v = value_of(i, "--jobs")) {
      cli.jobs = static_cast<int>(parse_uint_flag(argv[0], "--jobs", v, 0, INT_MAX));
    } else if (const char* v = value_of(i, "--csv-dir")) {
      cli.csv_dir = v;
    } else if (const char* v = value_of(i, "--seed")) {
      cli.experiment.seed = parse_uint_flag(argv[0], "--seed", v, 0, UINT64_MAX);
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--full | --quick | --scale F] [--jobs N] [--csv-dir DIR] [--seed S]%s\n"
          "  --full      paper-exact 4 GiB / 60 s cells\n"
          "  --quick     256 MiB smoke cells\n"
          "  --scale F   explicit io-limit scale (default %.4g)\n"
          "  --jobs N    worker threads (default: hardware concurrency; env PAS_JOBS)\n"
          "  --csv-dir D mirror tables as CSV/JSON under D\n"
          "  --seed S    base seed for per-cell derived seeds\n",
          argv[0], extra.empty() ? "" : " [bench options]", default_scale);
      for (const BenchFlag& f : extra) {
        if (f.value_name != nullptr) {
          std::printf("  %s %s  %s\n", f.name, f.value_name, f.help ? f.help : "");
        } else {
          std::printf("  %s  %s\n", f.name, f.help ? f.help : "");
        }
      }
      std::exit(0);
    } else {
      bool matched = false;
      for (const BenchFlag& f : extra) {
        if (f.value_name != nullptr) {
          if (const char* v = value_of(i, f.name)) {
            f.apply(v);
            matched = true;
            break;
          }
        } else if (std::strcmp(argv[i], f.name) == 0) {
          f.apply("");
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0], argv[i]);
        std::exit(2);
      }
    }
  }
  return cli;
}

RunnerOptions bench_runner_options(const BenchCli& cli) {
  RunnerOptions o;
  o.jobs = cli.jobs;
  o.experiment = cli.experiment;
  o.progress = [](const RunnerProgress& p) {
    ResultSink::progress_line(p.done, p.total, p.elapsed_s, p.cells_per_sec);
  };
  return o;
}

int report_failures(const CampaignRunner& runner) {
  for (const auto& f : runner.failures()) {
    std::fprintf(stderr, "cell %zu failed: %s\n  %s\n", f.index, f.context.c_str(),
                 f.message.c_str());
  }
  return runner.failures().empty() ? 0 : 1;
}

Table points_table(const std::vector<CellSpec>& cells,
                   const std::vector<ExperimentOutput>& outputs) {
  // SLO columns appear only when some cell carries an SLO target, so the
  // historical fig/table CSVs (no SLOs anywhere) stay byte-identical.
  bool any_slo = false;
  for (const CellSpec& c : cells) any_slo = any_slo || c.job.slo_latency > 0;
  std::vector<std::string> columns = {
      "device", "power_state", "pattern", "op", "chunk_bytes", "queue_depth", "avg_power_w",
      "throughput_mib_s", "avg_latency_us", "p99_latency_us", "min_power_w", "max_power_w",
      "max_window10s_w"};
  if (any_slo) {
    columns.push_back("tenant");
    columns.push_back("slo_ios");
    columns.push_back("slo_violations");
    columns.push_back("slo_violation_rate");
  }
  Table t(std::move(columns));
  for (std::size_t i = 0; i < cells.size() && i < outputs.size(); ++i) {
    const auto& c = cells[i];
    const auto& o = outputs[i];
    std::vector<std::string> row = {
        devices::label(c.device), Table::fmt_int(c.power_state),
        iogen::to_string(c.job.pattern), iogen::to_string(c.job.op),
        Table::fmt_int(c.job.block_bytes), Table::fmt_int(c.job.iodepth),
        Table::fmt(o.point.avg_power_w, 4), Table::fmt(o.point.throughput_mib_s, 3),
        Table::fmt(o.point.avg_latency_us, 3), Table::fmt(o.point.p99_latency_us, 3),
        Table::fmt(o.min_power_w, 4), Table::fmt(o.max_power_w, 4),
        Table::fmt(o.max_window10s_w, 4)};
    if (any_slo) {
      row.push_back(Table::fmt_int(c.job.tenant));
      row.push_back(Table::fmt_int(static_cast<long long>(o.job.slo_ios)));
      row.push_back(Table::fmt_int(static_cast<long long>(o.job.slo_violations)));
      row.push_back(Table::fmt(o.job.slo_violation_rate(), 6));
    }
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace pas::core
