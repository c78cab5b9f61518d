#include "core/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cell_spec.h"

namespace pas::core {
namespace {

using devices::DeviceId;

// Small but non-trivial grid: two devices x two chunks x two depths of
// time-limited random writes (200 ms each, no byte budget).
std::vector<CellSpec> small_grid() {
  iogen::JobSpec base;
  base.io_limit_bytes = 0;
  base.time_limit = milliseconds(200);
  return GridBuilder()
      .devices({DeviceId::kSsd2, DeviceId::kSsd3})
      .patterns({iogen::Pattern::kRandom})
      .ops({iogen::OpKind::kWrite})
      .chunks({64 * KiB, 256 * KiB})
      .queue_depths({4, 16})
      .base_job(base)
      .cross();
}

std::vector<ExperimentOutput> run_grid(const std::vector<CellSpec>& cells, int jobs) {
  RunnerOptions o;
  o.jobs = jobs;
  o.experiment.io_limit_scale = 0.0625;  // exercises the scale path too
  CampaignRunner runner(o);
  auto out = runner.run(cells);
  EXPECT_TRUE(runner.failures().empty());
  return out;
}

TEST(Runner, ParallelIsBitIdenticalToSerial) {
  const auto cells = small_grid();
  const auto serial = run_grid(cells, 1);
  const auto parallel = run_grid(cells, 4);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Exact equality, not NEAR: the parallel runner must not perturb a
    // single bit of any measured number.
    EXPECT_EQ(serial[i].point.avg_power_w, parallel[i].point.avg_power_w) << cells[i].context();
    EXPECT_EQ(serial[i].point.throughput_mib_s, parallel[i].point.throughput_mib_s);
    EXPECT_EQ(serial[i].point.avg_latency_us, parallel[i].point.avg_latency_us);
    EXPECT_EQ(serial[i].point.p99_latency_us, parallel[i].point.p99_latency_us);
    EXPECT_EQ(serial[i].min_power_w, parallel[i].min_power_w);
    EXPECT_EQ(serial[i].max_power_w, parallel[i].max_power_w);
    EXPECT_EQ(serial[i].job.bytes, parallel[i].job.bytes);
    EXPECT_EQ(serial[i].job.ios, parallel[i].job.ios);
  }
}

TEST(Runner, DerivedSeedsAreOrderIndependent) {
  const auto cells = small_grid();
  auto reordered = cells;
  std::reverse(reordered.begin(), reordered.end());

  // The seed depends only on the cell's own axes, never on grid position.
  for (const auto& cell : cells) {
    const auto match = std::find_if(reordered.begin(), reordered.end(), [&](const CellSpec& c) {
      return c.context() == cell.context();
    });
    ASSERT_NE(match, reordered.end());
    EXPECT_EQ(derive_cell_seed(7, cell), derive_cell_seed(7, *match));
  }
  // ...and therefore so do the measured numbers.
  const auto a = run_grid(cells, 2);
  const auto b = run_grid(reordered, 2);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t j = reordered.size() - 1 - i;
    EXPECT_EQ(a[i].point.avg_power_w, b[j].point.avg_power_w) << cells[i].context();
    EXPECT_EQ(a[i].job.bytes, b[j].job.bytes);
  }
}

TEST(Runner, DistinctCellsGetDistinctSeeds) {
  const auto cells = small_grid();
  std::vector<std::uint64_t> seeds;
  for (const auto& c : cells) seeds.push_back(derive_cell_seed(1, c));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Base seed participates too.
  EXPECT_NE(derive_cell_seed(1, cells[0]), derive_cell_seed(2, cells[0]));
}

TEST(Runner, ThrowingCellReportsContextAndCampaignContinues) {
  auto cells = small_grid();
  cells.resize(3);
  cells[1].tag = "exploding";
  cells[1].body = [](const CellSpec&, const ExperimentOptions&) -> ExperimentOutput {
    throw std::runtime_error("boom");
  };

  RunnerOptions o;
  o.jobs = 2;
  o.experiment.io_limit_scale = 0.0625;
  CampaignRunner runner(o);
  const auto out = runner.run(cells);

  ASSERT_EQ(runner.failures().size(), 1u);
  const auto& f = runner.failures()[0];
  EXPECT_EQ(f.index, 1u);
  EXPECT_EQ(f.message, "boom");
  // The report names the device and axes, not just an index.
  EXPECT_NE(f.context.find("SSD2"), std::string::npos) << f.context;
  EXPECT_NE(f.context.find("exploding"), std::string::npos) << f.context;
  // The other cells still ran.
  EXPECT_GT(out[0].point.throughput_mib_s, 0.0);
  EXPECT_GT(out[2].point.throughput_mib_s, 0.0);
  // The failed slot stays default-constructed.
  EXPECT_EQ(out[1].point.throughput_mib_s, 0.0);
}

TEST(Runner, ProgressCallbackSeesEveryCell) {
  auto cells = small_grid();
  cells.resize(4);
  RunnerOptions o;
  o.jobs = 2;
  o.experiment.io_limit_scale = 0.0625;
  std::vector<std::size_t> done;
  o.progress = [&](const RunnerProgress& p) {
    EXPECT_EQ(p.total, 4u);
    done.push_back(p.done);
  };
  CampaignRunner(o).run(cells);
  ASSERT_EQ(done.size(), 4u);
  // Serialized by the runner: `done` counts up monotonically to total.
  EXPECT_TRUE(std::is_sorted(done.begin(), done.end()));
  EXPECT_EQ(done.back(), 4u);
}

// Satellite regression: a time-limited cell (io_limit_bytes == 0) must not
// be handed the 64 MiB byte floor when io_limit_scale != 1 — it runs for
// its full time limit and stops there.
TEST(Runner, TimeLimitedCellIgnoresByteFloor) {
  iogen::JobSpec job;
  job.pattern = iogen::Pattern::kRandom;
  job.op = iogen::OpKind::kWrite;
  job.block_bytes = 64 * KiB;
  job.iodepth = 4;
  job.io_limit_bytes = 0;
  // SSD3 sustains ~550 MiB/s here, so a resurrected 64 MiB budget would end
  // the job at ~120 ms; a genuinely time-limited cell runs the full 400 ms
  // and moves well past 64 MiB.
  job.time_limit = milliseconds(400);
  ExperimentOptions o;
  o.io_limit_scale = 0.0625;
  const auto out = run_cell(DeviceId::kSsd3, 0, job, o);
  EXPECT_GT(out.job.ios, 0u);
  EXPECT_NEAR(to_seconds(out.job.elapsed), 0.4, 0.03);
  EXPECT_GT(out.job.bytes, 64 * MiB);
}

TEST(Runner, ByteLimitedCellStillGetsFloor) {
  iogen::JobSpec job;
  job.pattern = iogen::Pattern::kSequential;
  job.op = iogen::OpKind::kWrite;
  job.block_bytes = 1 * MiB;
  job.iodepth = 16;
  job.io_limit_bytes = 4 * GiB;
  ExperimentOptions o;
  o.io_limit_scale = 0.001;  // 4 MiB raw -> clamped up to 64 MiB
  const auto out = run_cell(DeviceId::kSsd3, 0, job, o);
  EXPECT_GE(out.job.bytes, 64 * MiB);
}

TEST(Runner, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1); }

// The shared bench command line, parsed from `args` (program name first).
BenchCli parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_bench_cli(static_cast<int>(argv.size()), argv.data());
}

// A regex matching an error message that names `flag` and quotes `value`.
std::string names(const char* flag, const char* value) {
  std::string re = std::string(flag) + " .*'";
  for (const char* c = value; *c != '\0'; ++c) {
    if (std::strchr(".+*?()[]{}|^$\\", *c) != nullptr) re += '\\';
    re += *c;
  }
  return re + "'";
}

// Every malformed number exits 2 with a message naming the flag and the
// value, instead of running with a silently altered one. Each case first
// checks the well-formed values just inside the boundary.
TEST(BenchCliDeathTest, NonFiniteOrNonPositiveScaleIsNamed) {
  EXPECT_EQ(parse({"bench", "--scale", "0.5"}).experiment.io_limit_scale, 0.5);
  EXPECT_EQ(parse({"bench", "--scale=1e-3"}).experiment.io_limit_scale, 1e-3);
  for (const char* v : {"nan", "-nan", "inf", "1e999", "0", "-1", "0.5x"}) {
    SCOPED_TRACE(v);
    EXPECT_EXIT(parse({"bench", "--scale", v}), ::testing::ExitedWithCode(2),
                names("--scale", v));
  }
}

TEST(BenchCliDeathTest, NegativeOrOverflowingSeedIsNamed) {
  EXPECT_EQ(parse({"bench", "--seed", "18446744073709551615"}).experiment.seed, UINT64_MAX);
  EXPECT_EQ(parse({"bench", "--seed=0"}).experiment.seed, 0u);
  for (const char* v : {"-1", "18446744073709551616", "99999999999999999999999", "+1",
                        " 1", "12x", "1.5"}) {
    SCOPED_TRACE(v);
    EXPECT_EXIT(parse({"bench", "--seed", v}), ::testing::ExitedWithCode(2),
                names("--seed", v));
  }
}

TEST(BenchCliDeathTest, FractionalNegativeOrHugeJobsIsNamed) {
  EXPECT_EQ(parse({"bench", "--jobs", "0"}).jobs, 0);  // 0 keeps meaning "default"
  EXPECT_EQ(parse({"bench", "--jobs=3"}).jobs, 3);
  EXPECT_EQ(parse({"bench", "--jobs", "2147483647"}).jobs, INT_MAX);
  for (const char* v : {"2.9", "1e12", "-1", "2147483648", "4x"}) {
    SCOPED_TRACE(v);
    EXPECT_EXIT(parse({"bench", "--jobs", v}), ::testing::ExitedWithCode(2),
                names("--jobs", v));
  }
}

// PAS_JOBS follows --jobs's rules: a malformed value exits 2 naming the
// variable and the value instead of silently running some other worker
// count. Unset, empty or 0 means hardware concurrency.
TEST(BenchCliDeathTest, MalformedPasJobsIsNamed) {
  const char* saved = std::getenv("PAS_JOBS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("PAS_JOBS");
  const int fallback = default_jobs();
  for (const char* v : {"", "0"}) {
    ::setenv("PAS_JOBS", v, 1);
    EXPECT_EQ(default_jobs(), fallback) << "PAS_JOBS='" << v << "'";
  }
  ::setenv("PAS_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3);
  for (const char* v : {"2x", "abc", "-3", "+2", " 4", "2.5", "2147483648"}) {
    SCOPED_TRACE(v);
    ::setenv("PAS_JOBS", v, 1);
    EXPECT_EXIT(default_jobs(), ::testing::ExitedWithCode(2), names("PAS_JOBS", v));
  }
  if (saved != nullptr) {
    ::setenv("PAS_JOBS", restore.c_str(), 1);
  } else {
    ::unsetenv("PAS_JOBS");
  }
}

}  // namespace
}  // namespace pas::core
