#include "host_speed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kTableSize = std::size_t{1} << 19;  // 4 MiB of entries

// The same kinds of work as the simulator's kernel and FTL: a binary heap
// of timestamped events, dependent random reads and writes into a table of a
// few MiB, data-dependent branches. Fixed inputs, so every call does the
// same work. The table is the caller's, allocated once, so that page faults
// do not enter the time.
std::uint64_t reference_kernel(std::vector<std::uint64_t>& table) {
  constexpr int kEvents = 4096;
  constexpr int kSteps = 500'000;
  std::fill(table.begin(), table.end(), 0);
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Event> storage;
  storage.reserve(kEvents + 1);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap(std::greater<>{},
                                                                      std::move(storage));
  std::uint64_t x = 42;
  for (std::uint32_t i = 0; i < kEvents; ++i) heap.emplace(splitmix64(x) & 0xFFFF, i);
  std::uint64_t sum = 0;
  for (int n = 0; n < kSteps; ++n) {
    const auto [t, id] = heap.top();
    heap.pop();
    const std::uint64_t r = splitmix64(x);
    std::uint64_t& slot = table[(r ^ sum) & (kTableSize - 1)];
    if ((slot & 3) == 0) {
      slot += r >> 40;
    } else {
      slot = slot * 31 + id;
    }
    sum += slot;
    heap.emplace(t + 1 + (r >> 52), id);
  }
  return sum;
}

}  // namespace

double reference_s(int threads) {
  static std::vector<std::vector<std::uint64_t>> tables;
  static std::atomic<std::uint64_t> sink{0};
  while (tables.size() < static_cast<std::size_t>(threads)) tables.emplace_back(kTableSize);
  std::vector<double> took(static_cast<std::size_t>(threads));
  const auto timed = [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    sink += reference_kernel(tables[i]);
    took[i] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t i = 1; i < took.size(); ++i) pool.emplace_back(timed, i);
    timed(0);
  }
  double sum = 0.0;
  for (const double t : took) sum += t;
  return sum / static_cast<double>(took.size());
}

}  // namespace perfbench
