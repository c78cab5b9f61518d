#include "iogen/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "iogen/replay.h"

namespace pas::iogen {

IoEngine::IoEngine(sim::Simulator& sim, sim::BlockDevice& device, JobSpec spec)
    : sim_(sim), device_(device), spec_(std::move(spec)) {
  PAS_CHECK(spec_.iodepth >= 1);
  PAS_CHECK(spec_.block_bytes > 0);
  PAS_CHECK(spec_.block_bytes % device_.sector_bytes() == 0);
  PAS_CHECK(spec_.region_bytes >= spec_.block_bytes);
  PAS_CHECK(spec_.region_offset % device_.sector_bytes() == 0);
  PAS_CHECK_MSG(spec_.region_offset + spec_.region_bytes <= device_.capacity_bytes(),
                "job region exceeds device capacity");
  PAS_CHECK(spec_.rw_mix_read_pct <= 100);
  if (spec_.arrival.kind == ArrivalKind::kTrace) {
    PAS_CHECK_MSG(spec_.pattern_kind == PatternKind::kTraceReplay,
                  "ArrivalKind::kTrace requires PatternKind::kTraceReplay");
  }
  pattern_ = make_pattern(spec_, spec_.region_bytes / spec_.block_bytes);
}

IoEngine::~IoEngine() { sim_.cancel(wake_); }

void IoEngine::start(std::function<void()> on_done) {
  PAS_CHECK(!started_);
  started_ = true;
  on_done_ = std::move(on_done);
  start_time_ = sim_.now();
  deadline_ = start_time_ + spec_.time_limit;
  switch (spec_.arrival.kind) {
    case ArrivalKind::kClosedLoop:
      fill_pipe();
      break;
    case ArrivalKind::kTrace:
      // Timing comes from the trace records via pattern_->peek_at().
      pump();
      break;
    default:
      arrival_ = std::make_unique<ArrivalProcess>(spec_.arrival, spec_.seed, start_time_);
      pump();
      break;
  }
}

bool IoEngine::limits_reached() const {
  const bool bytes_done = spec_.io_limit_bytes != 0 && issued_bytes_ >= spec_.io_limit_bytes;
  return bytes_done || sim_.now() >= deadline_;
}

// Absolute time of the next open-loop arrival, kNoArrival when exhausted.
TimeNs IoEngine::next_arrival() const {
  if (spec_.arrival.kind == ArrivalKind::kTrace) {
    const TimeNs rel = pattern_->peek_at();
    return rel == kNoArrival ? kNoArrival : start_time_ + rel;
  }
  return arrival_->next_at();
}

void IoEngine::issue(const PatternIo& io) {
  sim::IoRequest req;
  req.op = io.op;
  req.offset = io.offset;
  req.bytes = io.bytes;
  issued_bytes_ += req.bytes;
  ++in_flight_;
  const bool rmw = io.rmw;
  device_.submit(req, [this, rmw](const sim::IoCompletion& c) { on_complete(c, rmw); });
}

bool IoEngine::issue_next() {
  PatternIo io;
  if (!pattern_->next(io)) {
    exhausted_ = true;
    return false;
  }
  issue(io);
  return true;
}

void IoEngine::fill_pipe() {
  while (in_flight_ < spec_.iodepth && !limits_reached() && !exhausted_) {
    if (!issue_next()) break;
  }
}

void IoEngine::pump() {
  wake_ = sim::Simulator::kInvalidEvent;  // the wake has fired (or start() calls)
  while (!exhausted_) {
    if (limits_reached()) {
      exhausted_ = true;
      break;
    }
    const TimeNs at = next_arrival();
    if (at == kNoArrival) {
      exhausted_ = true;
      break;
    }
    if (at > sim_.now()) {
      // The deadline caps the wake so a job with sparse arrivals still
      // notices its time limit and drains.
      wake_ = sim_.schedule_at(std::min(at, deadline_), [this] { pump(); });
      return;
    }
    if (!issue_next()) break;  // pattern dry -> exhausted_
    if (arrival_ != nullptr) arrival_->pop();
  }
  maybe_finish();
}

void IoEngine::maybe_finish() {
  if (exhausted_ && in_flight_ == 0 && !finished_) {
    finished_ = true;
    sim_.cancel(std::exchange(wake_, sim::Simulator::kInvalidEvent));
    result_.elapsed = sim_.now() - start_time_;
    if (on_done_) on_done_();
  }
}

void IoEngine::on_complete(const sim::IoCompletion& c, bool rmw) {
  --in_flight_;
  ++result_.ios;
  result_.bytes += c.request.bytes;
  result_.latency.add(c.latency());
  if (spec_.slo_latency > 0) {
    ++result_.slo_ios;
    if (c.latency() > spec_.slo_latency) ++result_.slo_violations;
  }
  if (rmw) {
    // The modify half of a read-modify-write: write the block back
    // unconditionally so the pair is never left half done.
    PatternIo wb;
    wb.op = sim::IoOp::kWrite;
    wb.offset = c.request.offset;
    wb.bytes = c.request.bytes;
    wb.rmw = false;
    issue(wb);
  }
  if (open_loop()) {
    // Arrivals are clock-driven; completions only drain the pipe. The wake
    // event issues the next arrival, but the limits can flip to exhausted
    // here (e.g. the byte budget filled while IOs were in flight).
    if (!exhausted_ && limits_reached()) exhausted_ = true;
    maybe_finish();
    return;
  }
  if (!limits_reached() && !exhausted_) {
    fill_pipe();
    if (in_flight_ > 0) return;
  }
  // Reaching here means no further IOs will be issued (limits hit or the
  // pattern ran dry); both are permanent, so the job is exhausted.
  exhausted_ = true;
  maybe_finish();
}

namespace {

// The queue drained with unfinished jobs: name them so the stuck job is
// diagnosable (which engine, how deep its pipe, how far it got).
[[noreturn]] void report_stuck(sim::Simulator& sim, std::span<IoEngine* const> engines) {
  std::fprintf(stderr,
               "drive(): simulation drained at t=%lld ns before the job finished; "
               "unfinished engines:\n",
               static_cast<long long>(sim.now()));
  for (IoEngine* e : engines) {
    if (e->finished()) continue;
    std::fprintf(stderr, "  [%s] in_flight=%d issued_bytes=%llu\n",
                 e->spec().label().c_str(), e->in_flight(),
                 static_cast<unsigned long long>(e->issued_bytes()));
  }
  PAS_CHECK_MSG(false, "simulation drained before the job finished");
  std::abort();
}

}  // namespace

void drive(sim::Simulator& sim, std::span<IoEngine* const> engines) {
  // finished() never reverts, so the cursor only moves forward and the
  // per-event check is amortised O(1).
  std::size_t cursor = 0;
  for (;;) {
    while (cursor < engines.size() && engines[cursor]->finished()) ++cursor;
    if (cursor == engines.size()) return;
    if (!sim.step()) report_stuck(sim, engines);
  }
}

JobResult run_job(sim::Simulator& sim, sim::BlockDevice& device, const JobSpec& spec) {
  IoEngine engine(sim, device, spec);
  engine.start(nullptr);
  IoEngine* const e = &engine;
  drive(sim, {&e, 1});
  return engine.result();
}

}  // namespace pas::iogen
