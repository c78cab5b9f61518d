// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call from the benchmark into a layer's public API, named
// "<layer>.<call>" (e.g. "iogen.run_jobs", "core.campaign.cell"). Spans carry
// their parent span and a request id (the campaign cell or rack phase they
// belong to); they are kept in memory and written out when the run ends.
// When the tracer is disabled, Span objects record nothing and cost one
// branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  const char* name = "";
  std::int64_t request = -1;
  std::int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const;

  std::uint32_t begin(const char* name, std::int64_t request, std::uint32_t parent);
  void end(std::uint32_t id);

  // Spans recorded since the last clear(); ids are stable within that range.
  std::vector<SpanRecord> spans() const;
  void clear();

 private:
  Tracer();

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_; index = id - 1
};

// RAII span. The parent defaults to the innermost open span on this thread;
// spans that start on another thread than their parent (campaign cells run on
// the runner's workers) pass the parent id explicitly.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1);
  Span(const char* name, std::int64_t request, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
  std::uint32_t saved_top_ = 0;
};

// Per-name totals over a set of spans: call count, summed duration, and self
// time (duration minus the union of its children's intervals).
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<SpanRecord>& spans);

// "<layer>.<call>" -> "<layer>".
std::string layer_of(const std::string& span_name);

// Writes the spans as a JSON array (one object per span).
bool write_spans_json(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
