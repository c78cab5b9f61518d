// Allocation contract of the flat SSD datapath: once its pools, queues and
// tables have grown to a workload's peak, a host write allocates nothing,
// including while the power governor throttles NAND ops and while
// overlapping writes buffer the same units more than once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "common/units.h"
#include "devices/specs.h"
#include "sim/simulator.h"
#include "ssd/device.h"

// Every heap allocation in the process bumps this counter; the tests read
// its delta across a measured pass.
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

namespace pas::ssd {
namespace {

constexpr double kMaxAllocsPerIo = 0.001;

// Closed-loop random writes: `qd` outstanding, each `small` or `large` bytes
// (chosen at random), at `small`-aligned offsets inside [0, region).
struct RandomWrites {
  SsdDevice* dev = nullptr;
  Rng rng{3};
  std::uint64_t region = 0;
  std::uint32_t small = 0;
  std::uint32_t large = 0;
  int remaining = 0;

  void issue() {
    --remaining;
    const std::uint32_t bytes = rng.next_below(2) == 0 ? small : large;
    const std::uint64_t off = rng.next_below((region - bytes) / small + 1) * small;
    // The completion captures only {this}, so it rides inline.
    dev->submit(sim::IoRequest{sim::IoOp::kWrite, off, bytes},
                [this](const sim::IoCompletion&) {
                  if (remaining > 0) issue();
                });
  }

  void run(sim::Simulator& sim, int qd, int ios) {
    remaining = ios;
    for (int i = 0; i < qd && remaining > 0; ++i) issue();
    sim.run_to_completion();
  }
};

// Runs the workload once to warm up, then again measured; returns heap
// allocations per IO of the measured pass.
double allocs_per_io(sim::Simulator& sim, RandomWrites& w, int qd, int ios) {
  w.run(sim, qd, ios);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  w.run(sim, qd, ios);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / ios;
}

TEST(SsdAllocations, CappedRandomWritesAllocateNothing) {
  // SSD2 in its lowest power state: the governor throttles NAND programs
  // throughout, so most ops wait in its queue.
  sim::Simulator sim;
  SsdConfig cfg = devices::ssd2_p5510();
  cfg.bg_activity = false;
  SsdDevice dev(sim, cfg, 7);
  dev.set_power_state(2);
  RandomWrites w;
  w.dev = &dev;
  w.region = cfg.capacity_bytes;
  w.small = 4 * KiB;
  w.large = 256 * KiB;
  const int ios = 20000;
  const std::uint64_t throttled_before = dev.governor().throttle_events();
  const double per_io = allocs_per_io(sim, w, 32, ios);
  EXPECT_GT(dev.governor().throttle_events() - throttled_before,
            static_cast<std::uint64_t>(ios))
      << "the capped case no longer throttles";
  EXPECT_LE(per_io, kMaxAllocsPerIo);
}

TEST(SsdAllocations, OverlappingWritesAllocateNothing) {
  // 4 KiB and 64 KiB writes into a 1 MiB region: most writes land on units
  // another write still holds in the buffer.
  sim::Simulator sim;
  SsdConfig cfg = devices::ssd2_p5510();
  cfg.bg_activity = false;
  SsdDevice dev(sim, cfg, 7);
  RandomWrites w;
  w.dev = &dev;
  w.region = 1 * MiB;
  w.small = 4 * KiB;
  w.large = 64 * KiB;
  EXPECT_LE(allocs_per_io(sim, w, 32, 20000), kMaxAllocsPerIo);
}

}  // namespace
}  // namespace pas::ssd
