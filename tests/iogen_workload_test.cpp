// Layered workload engine (DESIGN.md section 12): arrival processes,
// replay/keyspace patterns, open-loop drive semantics and SLO accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "fake_device.h"
#include "iogen/arrival.h"
#include "iogen/engine.h"
#include "iogen/replay.h"
#include "sim/simulator.h"

namespace pas::iogen {
namespace {

using testing::FakePowerDevice;

// Captures every submitted request so tests can assert on the op/offset
// stream the pattern layer produced, not just aggregate counts.
class RecordingDevice : public FakePowerDevice {
 public:
  RecordingDevice(sim::Simulator& sim, TimeNs io_latency = microseconds(100))
      : FakePowerDevice(sim, 0.0, io_latency) {}

  void submit(const sim::IoRequest& req, sim::IoCallback done) override {
    requests.push_back(req);
    FakePowerDevice::submit(req, std::move(done));
  }

  std::vector<sim::IoRequest> requests;
};

// --- arrival processes ---

TEST(ArrivalPoisson, MeanInterArrivalMatchesTheRate) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_iops = 1000.0;
  ArrivalProcess p(spec, /*seed=*/42, /*start=*/0);
  const int n = 20000;
  TimeNs prev = 0;
  TimeNs last = 0;
  for (int i = 0; i < n; ++i) {
    const TimeNs at = p.next_at();
    ASSERT_GT(at, prev);  // strictly increasing
    prev = at;
    last = at;
    p.pop();
  }
  // 20k draws at 1000/s should span ~20 s; the sample mean of an exponential
  // at this n is within a few percent with overwhelming probability.
  const double mean_ns = static_cast<double>(last) / n;
  EXPECT_NEAR(mean_ns, 1e6, 3e4);
}

TEST(ArrivalPoisson, SameSeedSameStream) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_iops = 500.0;
  ArrivalProcess a(spec, 7, 0);
  ArrivalProcess b(spec, 7, 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_at(), b.next_at());
    a.pop();
    b.pop();
  }
}

TEST(ArrivalBursty, ArrivalsLandOnlyInOnWindows) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kBursty;
  spec.rate_iops = 2000.0;
  spec.on_period = seconds(1);
  spec.off_period = seconds(1);
  ArrivalProcess p(spec, 3, 0);
  for (int i = 0; i < 5000; ++i) {
    const TimeNs at = p.next_at();
    // Active time maps into [cycle_start, cycle_start + on_period); the +1
    // monotonicity clamp can push a boundary arrival a hair past it.
    EXPECT_LE(at % (2 * seconds(1)), seconds(1) + 10) << "arrival " << i << " at " << at;
    p.pop();
  }
}

TEST(ArrivalDiurnal, PeakRateExceedsTroughRate) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_iops = 1000.0;
  spec.period = seconds(60);
  spec.trough_fraction = 0.1;
  ArrivalProcess p(spec, 11, 0);
  // The raised-cosine rate peaks at period/2 and bottoms at 0/period.
  std::uint64_t trough = 0, peak = 0;
  for (TimeNs at = p.next_at(); at < seconds(60); at = p.next_at()) {
    if (at < seconds(6)) ++trough;
    if (at >= seconds(27) && at < seconds(33)) ++peak;
    p.pop();
  }
  EXPECT_GT(peak, 3 * std::max<std::uint64_t>(trough, 1));
}

// --- trace replay ---

std::vector<TraceRecord> sample_records() {
  std::vector<TraceRecord> recs;
  recs.push_back({0, sim::IoOp::kRead, 2048 * kTraceSectorBytes, 4096});
  recs.push_back({microseconds(125), sim::IoOp::kWrite, 0, 8192});
  recs.push_back({microseconds(125), sim::IoOp::kRead, 4096 * kTraceSectorBytes, 4096});
  recs.push_back({milliseconds(2), sim::IoOp::kWrite, 512 * kTraceSectorBytes, 16384});
  return recs;
}

TEST(ReplayTrace, CsvRoundTripIsExact) {
  const ReplayTrace trace = ReplayTrace::from_records(sample_records());
  const std::string path = ::testing::TempDir() + "/pas_roundtrip.csv";
  trace.save_csv(path);
  const ReplayTrace back = ReplayTrace::load_csv(path);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back.records()[i].at, trace.records()[i].at) << i;
    EXPECT_EQ(back.records()[i].op, trace.records()[i].op) << i;
    EXPECT_EQ(back.records()[i].offset, trace.records()[i].offset) << i;
    EXPECT_EQ(back.records()[i].bytes, trace.records()[i].bytes) << i;
  }
  EXPECT_EQ(back.duration(), trace.duration());
  EXPECT_EQ(back.total_bytes(), trace.total_bytes());
  std::remove(path.c_str());
}

// Writes `contents` to a file under the test temp dir and returns its path.
std::string write_trace(const std::string& name, const std::string& contents) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(contents.c_str(), f);
  std::fclose(f);
  return path;
}

constexpr const char* kHeader = "timestamp,op,lba,len\n";

TEST(ReplayTraceDeathTest, NegativeLbaIsNamed) {
  const std::string path = write_trace("pas_neg_lba.csv", std::string(kHeader) + "0,R,-1,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path), "lba is not an unsigned integer at .*pas_neg_lba.csv:2");
}

TEST(ReplayTraceDeathTest, LbaWhoseByteOffsetOverflowsIsNamed) {
  // 2^55 sectors of 512 bytes is 2^64 bytes: the offset would wrap to 0.
  const std::string path =
      write_trace("pas_big_lba.csv", std::string(kHeader) + "0,W,36028797018963968,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path), "lba out of range at .*pas_big_lba.csv:2");
}

TEST(ReplayTraceDeathTest, NegativeTimestampIsNamed) {
  const std::string first = write_trace("pas_neg_ts1.csv", std::string(kHeader) + "-5,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(first),
               "timestamp is not an unsigned integer at .*pas_neg_ts1.csv:2");
  const std::string later =
      write_trace("pas_neg_ts2.csv", std::string(kHeader) + "0,R,0,4096\n-5,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(later),
               "timestamp is not an unsigned integer at .*pas_neg_ts2.csv:3");
}

TEST(ReplayTraceDeathTest, TimestampBeyondTheClockIsNamed) {
  // 2^63 ns does not fit the signed nanosecond clock.
  const std::string path =
      write_trace("pas_big_ts.csv", std::string(kHeader) + "9223372036854775808,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path), "timestamp out of range at .*pas_big_ts.csv:2");
}

TEST(ReplayTraceDeathTest, DecreasingTimestampNamesItsLine) {
  const std::string path = write_trace(
      "pas_order.csv", std::string(kHeader) + "1000,R,0,4096\n# comment\n500,W,8,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path),
               "trace timestamps must be non-decreasing at .*pas_order.csv:4");
}

TEST(ReplayTraceDeathTest, TrailingFieldIsNamed) {
  const std::string path =
      write_trace("pas_trailing.csv", std::string(kHeader) + "0,R,0,4096,17\n");
  EXPECT_DEATH(ReplayTrace::load_csv(path), "trailing field after len at .*pas_trailing.csv:2");
}

TEST(ReplayTraceDeathTest, LongLinesAreReadWhole) {
  // A comment longer than any read buffer, whose tail looks like a record,
  // stays one comment; a padded record stays one record; and an error in a
  // long line is reported at that line, not at a line made of its tail.
  const std::string comment = "#" + std::string(4094, 'x') + "7,W,0,4096\n";
  const std::string padded = "10,R," + std::string(6000, ' ') + "8,4096\n";
  const std::string path =
      write_trace("pas_long.csv", std::string(kHeader) + "0,R,0,4096\n" + comment + padded);
  const ReplayTrace trace = ReplayTrace::load_csv(path);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.records()[0].op, sim::IoOp::kRead);
  EXPECT_EQ(trace.records()[1].op, sim::IoOp::kRead);
  EXPECT_EQ(trace.records()[1].at, 10);
  EXPECT_EQ(trace.records()[1].offset, 8 * kTraceSectorBytes);

  const std::string bad = write_trace(
      "pas_long_bad.csv", std::string(kHeader) + "0,R,0,4096\n20,R,0," + std::string(5000, '9') +
                              "x\n30,R,0,4096\n");
  EXPECT_DEATH(ReplayTrace::load_csv(bad), "len is not an unsigned integer at .*pas_long_bad.csv:3");
}

TEST(ReplayEngine, ReplaysEveryRecord) {
  sim::Simulator sim;
  RecordingDevice dev(sim);
  const auto recs = sample_records();
  JobSpec spec;
  spec.pattern_kind = PatternKind::kTraceReplay;
  spec.arrival.kind = ArrivalKind::kTrace;
  spec.trace = std::make_shared<const ReplayTrace>(ReplayTrace::from_records(recs));
  spec.region_bytes = 1 * GiB;
  spec.io_limit_bytes = 0;
  spec.time_limit = seconds(10);
  const JobResult r = run_job(sim, dev, spec);
  ASSERT_EQ(dev.requests.size(), recs.size());
  EXPECT_EQ(r.ios, recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(dev.requests[i].op, recs[i].op) << i;
    EXPECT_EQ(dev.requests[i].offset, recs[i].offset) << i;
    EXPECT_EQ(dev.requests[i].bytes, recs[i].bytes) << i;
  }
}

// --- open-loop drive semantics ---

JobSpec poisson_read_spec(double rate_iops, TimeNs duration) {
  JobSpec s;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.rate_iops = rate_iops;
  s.io_limit_bytes = 0;
  s.time_limit = duration;
  s.seed = 99;
  return s;
}

TEST(OpenLoopEngine, PoissonJobIsDeterministic) {
  JobResult a, b, c;
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim);
    a = run_job(sim, dev, poisson_read_spec(2000.0, seconds(2)));
  }
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim);
    b = run_job(sim, dev, poisson_read_spec(2000.0, seconds(2)));
  }
  {
    // No drive loop at all: arrivals are kernel events, so a plain
    // run_until issues them and finishes the job exactly like run_job.
    sim::Simulator sim;
    FakePowerDevice dev(sim);
    IoEngine engine(sim, dev, poisson_read_spec(2000.0, seconds(2)));
    engine.start(nullptr);
    sim.run_until(seconds(3));
    EXPECT_TRUE(engine.finished());
    c = engine.result();
  }
  EXPECT_EQ(a.ios, b.ios);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(c.ios, a.ios);
  EXPECT_EQ(c.bytes, a.bytes);
  EXPECT_EQ(c.elapsed, a.elapsed);
  // ~2000/s for 2 s; Poisson counts concentrate tightly at this n.
  EXPECT_NEAR(static_cast<double>(a.ios), 4000.0, 300.0);
}

TEST(OpenLoopEngine, DestroyedEngineLeavesNoArmedWake) {
  // An engine that goes away mid-job must take its arrival wake with it:
  // the simulator runs on, and a wake left behind would call into the
  // destroyed engine.
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  int issued = 0;
  {
    IoEngine engine(sim, dev, poisson_read_spec(2000.0, seconds(2)));
    engine.start(nullptr);
    sim.run_until(milliseconds(100));
    while (engine.in_flight() > 0) ASSERT_TRUE(sim.step());
    ASSERT_FALSE(engine.finished());
    issued = dev.submitted();
    ASSERT_GT(issued, 0);
    EXPECT_EQ(sim.pending_events(), 1u);  // the armed wake, nothing else
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(seconds(3));
  EXPECT_EQ(dev.submitted(), issued);
}

TEST(OpenLoopEngine, IdleGapsAdvanceInsteadOfAborting) {
  // One short burst every 5 s: between bursts no IO is in flight and the
  // engine's arrival wake is the only pending event. The driver must wait
  // for it, not report the idle gap as a stuck engine.
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  JobSpec s;
  s.pattern = Pattern::kSequential;
  s.op = OpKind::kWrite;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.arrival.kind = ArrivalKind::kBursty;
  s.arrival.rate_iops = 1000.0;
  s.arrival.on_period = milliseconds(10);
  s.arrival.off_period = seconds(5);
  s.io_limit_bytes = 0;
  s.time_limit = seconds(11);
  s.seed = 5;
  const JobResult r = run_job(sim, dev, s);
  EXPECT_GT(r.ios, 0u);
  EXPECT_GE(sim.now(), seconds(11));
}

// A device that accepts every IO and never completes one.
class BlackHoleDevice : public FakePowerDevice {
 public:
  using FakePowerDevice::FakePowerDevice;
  void submit(const sim::IoRequest&, sim::IoCallback) override {}
};

// The armed wake must not hide a stuck job: once the open-loop job's
// deadline passes, no wake is left, the queue drains, and drive() names the
// job — just as it does for a closed-loop job.
TEST(OpenLoopEngineDeathTest, StuckJobAbortsNamingTheEngine) {
  JobSpec closed;
  closed.pattern = Pattern::kSequential;
  closed.op = OpKind::kRead;
  closed.block_bytes = 4096;
  closed.region_bytes = 1 * GiB;
  closed.iodepth = 4;
  JobSpec open = poisson_read_spec(2000.0, milliseconds(10));
  for (const JobSpec& spec : {closed, open}) {
    EXPECT_DEATH(
        {
          sim::Simulator sim;
          BlackHoleDevice dev(sim);
          run_job(sim, dev, spec);
        },
        "unfinished engines:\n  \\[" + spec.label() + "\\] in_flight=[1-9]")
        << spec.label();
  }
}

TEST(SloAccounting, CountsCompletionsSlowerThanTheTarget) {
  // The fake device completes every IO in exactly 1 ms.
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim, 0.0, milliseconds(1));
    JobSpec s = poisson_read_spec(1000.0, seconds(1));
    s.slo_latency = microseconds(500);
    const JobResult r = run_job(sim, dev, s);
    EXPECT_EQ(r.slo_ios, r.ios);
    EXPECT_EQ(r.slo_violations, r.ios);  // 1 ms > 500 us: every IO violates
    EXPECT_EQ(r.slo_violation_rate(), 1.0);
  }
  {
    sim::Simulator sim;
    FakePowerDevice dev(sim, 0.0, milliseconds(1));
    JobSpec s = poisson_read_spec(1000.0, seconds(1));
    s.slo_latency = milliseconds(2);
    const JobResult r = run_job(sim, dev, s);
    EXPECT_EQ(r.slo_ios, r.ios);
    EXPECT_EQ(r.slo_violations, 0u);
    EXPECT_EQ(r.slo_violation_rate(), 0.0);
  }
}

TEST(SloAccounting, ClosedLoopJobsWithoutTargetRecordNothing) {
  sim::Simulator sim;
  FakePowerDevice dev(sim);
  JobSpec s;
  s.pattern = Pattern::kSequential;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.io_limit_bytes = 1 * MiB;
  const JobResult r = run_job(sim, dev, s);
  EXPECT_EQ(r.slo_ios, 0u);
  EXPECT_EQ(r.slo_violations, 0u);
}

// --- keyspace pattern ---

TEST(Keyspace, DrawsFromABoundedKeyPopulation) {
  sim::Simulator sim;
  RecordingDevice dev(sim);
  JobSpec s;
  s.pattern_kind = PatternKind::kKeyspace;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.key_count = 8;
  s.io_limit_bytes = 1 * MiB;  // 256 IOs over 8 keys
  s.seed = 17;
  const JobResult r = run_job(sim, dev, s);
  EXPECT_EQ(r.ios, 256u);
  std::set<std::uint64_t> offsets;
  for (const auto& req : dev.requests) offsets.insert(req.offset);
  EXPECT_LE(offsets.size(), 8u);
  EXPECT_GT(offsets.size(), 1u);
}

TEST(Keyspace, RmwIssuesAWriteBackForEveryRead) {
  sim::Simulator sim;
  RecordingDevice dev(sim);
  JobSpec s;
  s.pattern_kind = PatternKind::kKeyspace;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 4096;
  s.region_bytes = 1 * GiB;
  s.key_count = 64;
  s.rmw_pct = 100;
  s.io_limit_bytes = 256 * 1024;
  s.seed = 23;
  run_job(sim, dev, s);
  std::size_t reads = 0, writes = 0;
  for (const auto& req : dev.requests) {
    if (req.op == sim::IoOp::kRead) ++reads;
    if (req.op == sim::IoOp::kWrite) ++writes;
  }
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(reads, writes);  // every read-modify-write pairs a read with its write-back
  // The write-back lands on the key it read.
  EXPECT_EQ(dev.requests[0].op, sim::IoOp::kRead);
  bool paired = false;
  for (std::size_t i = 1; i < dev.requests.size(); ++i) {
    if (dev.requests[i].op == sim::IoOp::kWrite &&
        dev.requests[i].offset == dev.requests[0].offset) {
      paired = true;
      break;
    }
  }
  EXPECT_TRUE(paired);
}

// --- labels (satellite: label() names the layered fields) ---

TEST(JobLabel, NamesTenantSloAndArrival) {
  JobSpec s;
  s.pattern = Pattern::kRandom;
  s.op = OpKind::kRead;
  s.block_bytes = 64 * KiB;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.rate_iops = 250.0;
  s.tenant = 7;
  s.slo_latency = milliseconds(2);
  const std::string label = s.label();
  EXPECT_NE(label.find("poisson"), std::string::npos) << label;
  EXPECT_NE(label.find("t7"), std::string::npos) << label;
  EXPECT_NE(label.find("slo=2000us"), std::string::npos) << label;
}

TEST(JobLabel, ClosedLoopBasicLabelIsUnchanged) {
  JobSpec s;
  s.pattern = Pattern::kSequential;
  s.op = OpKind::kWrite;
  s.block_bytes = 256 * KiB;
  s.iodepth = 16;
  const std::string label = s.label();
  // The historical shape: no tenant/arrival/SLO suffixes on default specs.
  EXPECT_EQ(label.find("t0"), std::string::npos) << label;
  EXPECT_EQ(label.find("slo"), std::string::npos) << label;
  EXPECT_EQ(label.find("poisson"), std::string::npos) << label;
}

}  // namespace
}  // namespace pas::iogen
