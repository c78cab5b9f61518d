// The repository's benchmark driver.
//
//   perfbench --workload cells_write|cells_read|rack_diurnal --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]
//
// Repeats whole iterations of the workload (set-up, then the timed simulate
// phase) until S seconds of host time have passed, and prints as its last
// stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics from untraced iterations, with
// host times scaled to the reference host speed (host_speed.h).
// --trace 1 alternates untraced and traced iterations and reports the
// per-layer metrics: counts from the models' own stats, host times from spans
// around the benchmark's calls into each layer, and the tracing overhead.
// Every iteration of a run simulates the same seed-derived inputs, so the
// digest of simulated outputs must repeat exactly; a line "digest ..." before
// the JSON records it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "host_speed.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Simulation threads of every workload: the campaign's workers, the rack's
// shard workers.
constexpr int kSimThreads = 2;
// Reference kernel runs per gap between iterations.
constexpr int kReferenceRepeats = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  Size size = Size::kFull;
  std::string spans_path;
};

[[noreturn]] void usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload cells_write|cells_read|rack_diurnal --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--spans FILE]\n",
               argv0, problem, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], ("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage(argv[0], "--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0)) {
        usage(argv[0], "--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage(argv[0], "--trace must be 0 or 1");
      }
      o.trace = v[0] - '0';
    } else if (flag == "--size") {
      if (std::strcmp(v, "full") == 0) {
        o.size = Size::kFull;
      } else if (std::strcmp(v, "tiny") == 0) {
        o.size = Size::kTiny;
      } else {
        usage(argv[0], "--size must be full or tiny");
      }
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      usage(argv[0], ("unknown option " + flag).c_str());
    }
  }
  if (o.workload != "cells_write" && o.workload != "cells_read" &&
      o.workload != "rack_diurnal") {
    usage(argv[0], "--workload must be cells_write, cells_read or rack_diurnal");
  }
  if (!have_seed || o.seconds <= 0.0 || o.trace < 0) {
    usage(argv[0], "--seed, --seconds and --trace are required");
  }
  return o;
}

Iteration run_iteration(const Options& o, const std::function<void()>& between) {
  if (o.workload == "rack_diurnal") return run_rack(o.seed, o.size, between);
  return run_cells(o.workload == "cells_write", o.seed, o.size);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    values_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < values_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  values_[i].name.c_str(), values_[i].value, values_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Value {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Value> values_;
};

// Host times are scaled to the reference host speed (host_speed.h) by the
// run's median reference time, so that much of the host's drifting load
// cancels out.
void end_to_end_metrics(Metrics& m, const std::vector<Iteration>& runs, double scale) {
  std::vector<double> setup, wall, ios_rate, speed;
  for (const Iteration& it : runs) {
    setup.push_back(it.setup_s * scale);
    wall.push_back(it.wall_s * scale);
    ios_rate.push_back(ratio(static_cast<double>(it.counts.ios), wall.back()));
    speed.push_back(ratio(it.sim_s, wall.back()));
  }
  m.set("setup_s", median(setup), "s");
  m.set("wall_s", median(wall), "s");
  m.set("sim_ios_per_s", median(ios_rate), "IO/s");
  m.set("sim_speed", median(speed), "sim-s/s");
  m.set("peak_rss_mib", peak_rss_mib(), "MiB");
  m.set("paper_fit_pct", runs.front().paper_fit_pct, "%");
}

// Layers whose self time (span time minus child-span time) is reported.
const char* const kSelfLayers[] = {"core.campaign", "core.calibrate", "devices", "devmgmt",
                                   "ssd.ftl",       "power",          "iogen",   "model",
                                   "core.controller", "core.sharded", "rack"};

void per_layer_metrics(Metrics& m, const std::vector<Iteration>& untraced,
                       const std::vector<Iteration>& traced,
                       const std::vector<std::vector<SpanRecord>>& spans, double reference) {
  const Counts& c = traced.front().counts;
  const double ios = static_cast<double>(c.ios);

  // Span totals per traced iteration, reduced to medians over iterations.
  std::vector<std::map<std::string, SpanTotals>> totals;
  for (const auto& s : spans) totals.push_back(totals_by_name(s));
  const auto span_s = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (const auto& t : totals) {
      double sum = 0.0;
      for (const char* n : names) {
        const auto it = t.find(n);
        if (it != t.end()) sum += it->second.total_s;
      }
      v.push_back(sum);
    }
    return median(v);
  };
  const auto self_s = [&](const std::string& layer) {
    std::vector<double> v;
    for (const auto& t : totals) {
      double sum = 0.0;
      for (const auto& [name, tot] : t) {
        if (layer_of(name) == layer) sum += tot.self_s;
      }
      v.push_back(sum);
    }
    return median(v);
  };
  std::vector<double> cell_s, epoch_s, traced_wall, untraced_wall, alloc_per_io;
  for (const Iteration& it : traced) {
    cell_s.insert(cell_s.end(), it.cell_s.begin(), it.cell_s.end());
    epoch_s.insert(epoch_s.end(), it.epoch_s.begin(), it.epoch_s.end());
    traced_wall.push_back(it.wall_s);
  }
  for (const Iteration& it : untraced) {
    untraced_wall.push_back(it.wall_s);
    alloc_per_io.push_back(ratio(static_cast<double>(it.allocs), ios));
  }
  const double drive_s = span_s({"iogen.run_jobs", "iogen.run_until", "iogen.run_epoch"});

  m.set("campaign.cells", static_cast<double>(c.cells), "count");
  m.set("campaign.cell_s_p50", median(cell_s), "s");
  m.set("campaign.cell_s_max", max_of(cell_s), "s");
  m.set("devices.count", static_cast<double>(c.devices), "count");
  m.set("devices.build_s", span_s({"devices.add_device"}), "s");
  m.set("sim.events", static_cast<double>(c.events), "count");
  m.set("sim.events_per_io", ratio(static_cast<double>(c.events), ios), "events/IO");
  m.set("sim.ns_per_event", ratio(drive_s * 1e9, static_cast<double>(c.events)), "ns/event");
  m.set("iogen.drive_s", drive_s, "s");
  m.set("iogen.engines", static_cast<double>(c.engines), "count");
  m.set("iogen.ios", ios, "count");
  m.set("iogen.bytes", static_cast<double>(c.bytes), "B");
  m.set("iogen.slo_ios", static_cast<double>(c.slo_ios), "count");
  m.set("iogen.slo_violations", static_cast<double>(c.slo_violations), "count");
  m.set("ssd.write_cmds", static_cast<double>(c.ssd_write_cmds), "count");
  m.set("ssd.read_cmds", static_cast<double>(c.ssd_read_cmds), "count");
  m.set("ssd.buffer_stalls", static_cast<double>(c.ssd_buffer_stalls), "count");
  m.set("ftl.nand_programs", static_cast<double>(c.ftl_programs), "count");
  m.set("ftl.page_reads", static_cast<double>(c.ftl_page_reads), "count");
  m.set("ftl.gc_units_moved", static_cast<double>(c.ftl_gc_units), "count");
  m.set("ftl.erases", static_cast<double>(c.ftl_erases), "count");
  m.set("ftl.gc_runs", static_cast<double>(c.ftl_gc_runs), "count");
  const double units = static_cast<double>(c.ftl_host_units + c.ftl_gc_units);
  m.set("ftl.units_programmed", units, "count");
  m.set("ftl.useful_ratio", ratio(static_cast<double>(c.ftl_host_units), units), "ratio");
  m.set("governor.throttle_events", static_cast<double>(c.throttle_events), "count");
  m.set("governor.throttles_per_program",
        ratio(static_cast<double>(c.throttle_events), static_cast<double>(c.ftl_programs)),
        "ratio");
  m.set("hdd.cmds", static_cast<double>(c.hdd_cmds), "count");
  m.set("hdd.seeks", static_cast<double>(c.hdd_seeks), "count");
  m.set("hdd.media_ops", static_cast<double>(c.hdd_media_ops), "count");
  m.set("hdd.cache_hit_ratio",
        ratio(static_cast<double>(c.hdd_cache_hits), static_cast<double>(c.hdd_cmds)), "ratio");
  m.set("hdd.spin_ups", static_cast<double>(c.hdd_spin_ups), "count");
  m.set("power.stop_rigs_s", span_s({"power.stop_rigs"}), "s");
  m.set("power.take_trace_s", span_s({"power.take_trace"}), "s");
  m.set("power.analyze_s", span_s({"power.analyze"}), "s");
  m.set("power.samples", static_cast<double>(c.rig_samples), "count");
  m.set("model.plans", static_cast<double>(c.plans), "count");
  m.set("model.plan_s", span_s({"core.controller.set_power_budget"}), "s");
  m.set("model.split_s", span_s({"model.split_budget"}), "s");
  m.set("shard.epochs", static_cast<double>(c.epochs), "count");
  m.set("shard.epoch_s_p50", median(epoch_s), "s");
  m.set("shard.epoch_s_max", max_of(epoch_s), "s");
  double imbalance = 0.0;
  if (!c.shard_events.empty()) {
    double sum = 0.0;
    double top = 0.0;
    for (const std::uint64_t e : c.shard_events) {
      sum += static_cast<double>(e);
      top = std::max(top, static_cast<double>(e));
    }
    imbalance = ratio(top, sum / static_cast<double>(c.shard_events.size()));
  }
  m.set("shard.event_imbalance", imbalance, "ratio");
  m.set("alloc.per_io", median(alloc_per_io), "allocs/IO");
  for (const char* layer : kSelfLayers) {
    m.set(std::string("self_s.") + layer, self_s(layer), "s");
  }
  m.set("trace.spans", spans.empty() ? 0.0 : static_cast<double>(spans.back().size()), "count");
  m.set("trace.overhead_s", median(traced_wall) - median(untraced_wall), "s");
  m.set("host.reference_s", reference, "s");
  m.set("host.wall_unscaled_s", median(untraced_wall), "s");
}

int run(const Options& o) {
  Tracer& tracer = Tracer::instance();
  std::vector<Iteration> untraced, traced;
  std::vector<std::vector<SpanRecord>> spans;
  Checks checks;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // The reference kernel runs before every iteration, after the last and
  // between the rack's phases (whose iterations are long).
  std::vector<double> references;
  const auto time_reference = [&] {
    for (int r = 0; r < kReferenceRepeats; ++r) references.push_back(reference_s(kSimThreads));
  };
  // --trace 1 alternates untraced and traced iterations (both at least once);
  // --trace 0 runs untraced iterations only.
  for (int i = 0;; ++i) {
    const bool trace_this = o.trace == 1 && i % 2 == 1;
    time_reference();
    tracer.clear();
    tracer.set_enabled(trace_this);
    Iteration it = run_iteration(o, time_reference);
    tracer.set_enabled(false);
    std::fprintf(stderr, "iteration %d%s: setup_s %.4f wall_s %.4f reference_s %.4f\n", i,
                 trace_this ? " (traced)" : "", it.setup_s, it.wall_s, references.back());
    checks.merge(it.checks);
    if (trace_this) {
      spans.push_back(tracer.spans());
      traced.push_back(std::move(it));
    } else {
      untraced.push_back(std::move(it));
    }
    const bool enough = o.trace == 0 || !traced.empty();
    if (enough && elapsed() >= o.seconds) break;
  }
  tracer.clear();
  time_reference();
  const double reference = median(references);

  // Every iteration simulated the same inputs: the digests must agree,
  // traced and untraced alike.
  const std::uint64_t digest = untraced.front().digest;
  for (const auto* group : {&untraced, &traced}) {
    for (const Iteration& it : *group) {
      checks.expect(it.digest == digest, "simulated outputs differ between iterations");
    }
  }
  if (o.workload != "rack_diurnal") {
    checks.merge(check_cells_match_run_cell(o.workload == "cells_write", o.seed, o.size));
  }
  for (const std::string& msg : checks.messages) std::fprintf(stderr, "check failed: %s\n", msg.c_str());

  if (!o.spans_path.empty() && !spans.empty() && !write_spans_json(o.spans_path, spans.back())) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.spans_path.c_str());
    return 1;
  }

  Metrics m;
  if (o.trace == 0) {
    end_to_end_metrics(m, untraced, kReferenceNominalS / reference);
  } else {
    per_layer_metrics(m, untraced, traced, spans, reference);
  }
  std::printf("digest %s seed=%" PRIu64 " %016" PRIx64 "\n", o.workload.c_str(), o.seed, digest);
  m.print_json(checks.failed == 0, checks.attempted, checks.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
