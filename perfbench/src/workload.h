// Shared types of the benchmark's workloads: what one iteration of a
// workload measures, how its simulated outputs are digested, and how its
// output checks are counted.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

// The workload size. kFull is what the driver measures; kTiny is the
// self-test size (same code paths, a fraction of the simulated work).
enum class Size { kFull, kTiny };

// FNV-1a over every simulated count and result of an iteration, in a fixed
// order. Host times never enter it, so a change that only speeds up the
// simulator leaves it unchanged.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    add(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Output checks: every check is one attempted operation; a check that does
// not hold is a failed one and keeps its message for stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      messages.push_back(what);
    }
  }
  void merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    messages.insert(messages.end(), other.messages.begin(), other.messages.end());
  }
};

// Simulated counts of one iteration, summed over its devices (and, for the
// cell workloads, over its cells). Deterministic for a given seed.
struct Counts {
  std::uint64_t devices = 0;
  std::uint64_t cells = 0;
  std::uint64_t events = 0;
  std::uint64_t engines = 0;
  std::uint64_t ios = 0;
  std::uint64_t bytes = 0;
  std::uint64_t slo_ios = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t ssd_write_cmds = 0;
  std::uint64_t ssd_read_cmds = 0;
  std::uint64_t ssd_buffer_stalls = 0;
  std::uint64_t ftl_host_units = 0;
  std::uint64_t ftl_gc_units = 0;
  std::uint64_t ftl_programs = 0;
  std::uint64_t ftl_page_reads = 0;
  std::uint64_t ftl_erases = 0;
  std::uint64_t ftl_gc_runs = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t hdd_cmds = 0;
  std::uint64_t hdd_cache_hits = 0;
  std::uint64_t hdd_seeks = 0;
  std::uint64_t hdd_media_ops = 0;
  std::uint64_t hdd_spin_ups = 0;
  std::uint64_t rig_samples = 0;
  std::uint64_t plans = 0;
  std::uint64_t epochs = 0;
  std::vector<std::uint64_t> shard_events;  // rack only, per shard

  void add_to(Digest& d) const {
    for (const std::uint64_t v :
         {devices, cells, events, engines, ios, bytes, slo_ios, slo_violations, ssd_write_cmds,
          ssd_read_cmds, ssd_buffer_stalls, ftl_host_units, ftl_gc_units, ftl_programs,
          ftl_page_reads, ftl_erases, ftl_gc_runs, throttle_events, hdd_cmds, hdd_cache_hits,
          hdd_seeks, hdd_media_ops, hdd_spin_ups, rig_samples, plans, epochs}) {
      d.add(v);
    }
    for (const std::uint64_t v : shard_events) d.add(v);
  }
};

// One iteration of a workload: set-up, then the timed simulate phase.
struct Iteration {
  double setup_s = 0.0;       // host time before the first timed simulated IO
  double wall_s = 0.0;        // host time of the timed simulate phase
  double sim_s = 0.0;         // simulated seconds advanced in the timed phase
  std::uint64_t allocs = 0;   // heap allocations during the timed phase
  Counts counts;
  std::uint64_t digest = 0;   // Digest of every simulated count and result
  double paper_fit_pct = 0.0;
  std::vector<double> cell_s;   // host time per campaign cell (cells only)
  std::vector<double> epoch_s;  // host time per barrier epoch (rack only)
  Checks checks;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The three workloads (cells.cpp, rack.cpp). The rack calls `between`
// between its phases, outside its timed phase.
Iteration run_cells(bool writes, std::uint64_t seed, Size size);
Iteration run_rack(std::uint64_t seed, Size size, const std::function<void()>& between);

// Once per run, outside the timed phase: a seed-chosen sample of cells run
// through the benchmark's layered cell body reproduces core::run_cell's
// ExperimentPoint exactly.
Checks check_cells_match_run_cell(bool writes, std::uint64_t seed, Size size);

}  // namespace perfbench
