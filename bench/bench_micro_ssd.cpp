// Micro-benchmarks (google-benchmark) of the SSD IO datapath: closed-loop
// write / read / mixed traffic at queue depths 1 / 8 / 32 and chunk sizes
// 4 KiB / 256 KiB, plus a heap-allocation-per-IO counter (the datapath's
// contract is zero steady-state allocations on the write path).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/units.h"
#include "sim/block_device.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"

// Global allocation counter: every heap allocation in the process bumps it.
// The benches report the delta across the timed region divided by IOs.
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pas {
namespace {

enum class Mode { kWrite, kRead, kMixed };

ssd::SsdConfig bench_config() {
  ssd::SsdConfig cfg;
  cfg.name = "microssd";
  cfg.capacity_bytes = 1 * GiB;  // small map: fast setup, still GC-active
  cfg.overprovision = 0.25;
  cfg.nand.channels = 8;
  cfg.nand.dies_per_channel = 2;
  cfg.nand.pages_per_block = 64;
  cfg.bg_activity = false;  // measure the datapath, not housekeeping bursts
  return cfg;
}

// Closed-loop driver: keeps `qd` IOs outstanding until `remaining` runs dry.
// The completion lambda captures only {this} so it rides inline through the
// whole pipeline.
struct Loop {
  sim::Simulator* sim = nullptr;
  ssd::SsdDevice* dev = nullptr;
  std::uint64_t capacity = 0;
  std::uint32_t chunk = 0;
  Mode mode = Mode::kWrite;
  int remaining = 0;
  std::uint64_t next_off = 0;
  std::uint64_t op_idx = 0;

  void issue() {
    --remaining;
    const bool read = mode == Mode::kRead || (mode == Mode::kMixed && (op_idx & 1));
    ++op_idx;
    const std::uint64_t off = next_off;
    next_off += chunk;
    if (next_off + chunk > capacity) next_off = 0;
    dev->submit(
        sim::IoRequest{read ? sim::IoOp::kRead : sim::IoOp::kWrite, off, chunk},
        [this](const sim::IoCompletion&) {
          if (remaining > 0) issue();
        });
  }
};

class Harness {
 public:
  Harness() {
    const auto cfg = bench_config();
    capacity_ = cfg.capacity_bytes;
    dev_ = std::make_unique<ssd::SsdDevice>(sim_, cfg, 7);
    dev_->precondition();  // reads hit media; writes overwrite mapped data
  }

  // Runs `ops` IOs closed-loop and drains all induced work (destage, GC).
  void run(int qd, std::uint32_t chunk, Mode mode, int ops) {
    Loop loop;
    loop.sim = &sim_;
    loop.dev = dev_.get();
    loop.capacity = capacity_;
    loop.chunk = chunk;
    loop.mode = mode;
    loop.remaining = ops;
    loop.next_off = next_off_;
    loop.op_idx = op_idx_;
    for (int i = 0; i < qd && loop.remaining > 0; ++i) loop.issue();
    sim_.run_to_completion();
    next_off_ = loop.next_off;  // keep the address stream rolling across runs
    op_idx_ = loop.op_idx;
  }

 private:
  sim::Simulator sim_;
  std::unique_ptr<ssd::SsdDevice> dev_;
  std::uint64_t capacity_ = 0;
  std::uint64_t next_off_ = 0;
  std::uint64_t op_idx_ = 0;
};

void run_case(benchmark::State& state, Mode mode) {
  const int qd = static_cast<int>(state.range(0));
  const std::uint32_t chunk = static_cast<std::uint32_t>(state.range(1)) * KiB;
  const int batch = chunk <= 4 * KiB ? 4096 : 512;
  Harness harness;
  harness.run(qd, chunk, mode, batch);  // warm pools, buffers, FTL tables
  const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  std::int64_t total_ops = 0;
  for (auto _ : state) {
    harness.run(qd, chunk, mode, batch);
    total_ops += batch;
  }
  const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
  state.SetItemsProcessed(total_ops);
  state.counters["allocs_per_io"] =
      static_cast<double>(a1 - a0) / static_cast<double>(total_ops);
}

#define PAS_SSD_BENCH_ARGS       \
  ->Args({1, 4})->Args({8, 4})->Args({32, 4})->Args({1, 256})->Args({8, 256}) \
  ->Args({32, 256})

// Case names keep the Flat suffix they were recorded under in BENCH_ssd.json.
void BM_SsdWriteFlat(benchmark::State& state) { run_case(state, Mode::kWrite); }
BENCHMARK(BM_SsdWriteFlat) PAS_SSD_BENCH_ARGS;
void BM_SsdReadFlat(benchmark::State& state) { run_case(state, Mode::kRead); }
BENCHMARK(BM_SsdReadFlat) PAS_SSD_BENCH_ARGS;
void BM_SsdMixedFlat(benchmark::State& state) { run_case(state, Mode::kMixed); }
BENCHMARK(BM_SsdMixedFlat) PAS_SSD_BENCH_ARGS;

}  // namespace
}  // namespace pas

BENCHMARK_MAIN();
