#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

thread_local std::uint32_t t_top = 0;  // innermost open span on this thread

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::begin(const char* name, std::int64_t request, std::uint32_t parent) {
  SpanRecord r;
  r.name = name;
  r.request = request;
  r.parent = parent;
  r.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  r.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(r);
  return r.id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = t;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

Span::Span(const char* name, std::int64_t request) : Span(name, request, t_top) {}

Span::Span(const char* name, std::int64_t request, std::uint32_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  id_ = tracer.begin(name, request, parent);
  saved_top_ = t_top;
  t_top = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer::instance().end(id_);
  t_top = saved_top_;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<SpanRecord>& spans) {
  // Children of each span, as [start, end) intervals. Children that ran on
  // other threads may overlap, so self time subtracts their union.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size() + 1);
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [a0, b0] : kids) {
      const std::int64_t a = std::max(a0, s.start_ns);
      const std::int64_t b = std::min(b0, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    SpanTotals& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.calls;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

std::string layer_of(const std::string& span_name) {
  const std::size_t dot = span_name.rfind('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

bool write_spans_json(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", \"request\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 s.id, s.parent, s.name, static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
