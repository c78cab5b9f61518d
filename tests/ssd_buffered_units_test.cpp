// Reference test for the write buffer's per-unit occupancy index: random
// add/remove/for_each_unbuffered sequences run against a per-unit
// std::map<unit, copies> model, and every read must emit the same maximal
// unbuffered runs, in the same ascending order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ssd/runs.h"

namespace pas::ssd {
namespace {

using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// The index under test beside the per-unit model it must agree with.
struct Checked {
  explicit Checked(std::uint64_t units) : index(units), units(units) {}

  void add(std::uint64_t first, std::uint64_t n) {
    index.add(first, n);
    for (std::uint64_t u = first; u < first + n; ++u) ++copies[u];
  }

  void remove(std::uint64_t first, std::uint64_t n) {
    index.remove(first, n);
    for (std::uint64_t u = first; u < first + n; ++u) {
      auto it = copies.find(u);
      ASSERT_NE(it, copies.end()) << "test removed unit " << u << " it never added";
      if (--it->second == 0) copies.erase(it);
    }
  }

  Runs expected(std::uint64_t first, std::uint64_t n) const {
    Runs out;
    for (std::uint64_t u = first; u < first + n; ++u) {
      if (copies.count(u) != 0) continue;
      if (!out.empty() && out.back().first + out.back().second == u) {
        ++out.back().second;
      } else {
        out.emplace_back(u, 1);
      }
    }
    return out;
  }

  Runs actual(std::uint64_t first, std::uint64_t n) const {
    Runs out;
    index.for_each_unbuffered(first, n, [&out](std::uint64_t f, std::uint64_t len) {
      out.emplace_back(f, len);
    });
    return out;
  }

  // Compares a read of [first, first + n) with the model.
  void expect_read(std::uint64_t first, std::uint64_t n) const {
    EXPECT_EQ(actual(first, n), expected(first, n)) << "read [" << first << ", +" << n << ")";
  }

  // Compares the whole drive and a window around every buffered unit.
  void expect_all() const {
    expect_read(0, units);
    for (const auto& [u, c] : copies) {
      const std::uint64_t lo = u >= 70 ? u - 70 : 0;
      expect_read(lo, std::min<std::uint64_t>(units, u + 70) - lo);
    }
  }

  BufferedUnits index;
  std::map<std::uint64_t, int> copies;
  std::uint64_t units;
};

TEST(BufferedUnits, NothingBufferedReadsAsOneRun) {
  Checked c(1000);
  c.expect_read(0, 1000);
  c.expect_read(999, 1);
  c.expect_read(17, 300);
}

TEST(BufferedUnits, RunsOfEveryWordShape) {
  // 1, 63, 64, 65 and 1 024 units, each at a word-aligned start and at starts
  // that straddle one or more 64-unit word boundaries.
  for (const std::uint64_t len : {1u, 63u, 64u, 65u, 1024u}) {
    for (const std::uint64_t first : {0u, 1u, 63u, 64u, 100u, 127u, 128u, 4000u}) {
      Checked c(8192);
      c.add(first, len);
      c.expect_all();
      c.expect_read(first, len);  // fully buffered: emits nothing
      EXPECT_TRUE(c.actual(first, len).empty());
      c.add(first + len / 2, len);  // overlap the back half
      c.expect_all();
      c.remove(first, len);
      c.expect_all();
      c.remove(first + len / 2, len);
      c.expect_all();
      EXPECT_EQ(c.actual(0, 8192), (Runs{{0, 8192}}));
    }
  }
}

TEST(BufferedUnits, RunsStraddlingWordsLeaveExactGaps) {
  Checked c(1024);
  c.add(60, 10);    // 60..69 across the 64 boundary
  c.add(120, 200);  // 120..319 across four boundaries
  c.add(70, 1);     // abuts the first run
  c.add(383, 2);    // 383..384 across the 384 boundary
  c.expect_all();
  EXPECT_EQ(c.actual(0, 1024),
            (Runs{{0, 60}, {71, 49}, {320, 63}, {385, 639}}));
  c.remove(60, 5);
  c.expect_all();
  c.remove(65, 5);
  c.remove(70, 1);
  c.expect_all();
}

TEST(BufferedUnits, OneUnitBufferedHundredsOfTimes) {
  Checked c(4096);
  const std::uint64_t unit = 777;
  for (int i = 0; i < 300; ++i) c.add(unit, 1);
  for (int i = 0; i < 50; ++i) c.add(700, 128);  // wider runs over the same unit
  c.expect_all();
  for (int i = 0; i < 50; ++i) {
    c.remove(700, 128);
    c.expect_read(690, 150);
  }
  for (int i = 0; i < 299; ++i) {
    c.remove(unit, 1);
    ASSERT_TRUE(c.actual(unit, 1).empty()) << "copies left: " << 299 - i;
  }
  c.remove(unit, 1);
  EXPECT_EQ(c.actual(unit, 1), (Runs{{unit, 1}}));
  c.expect_all();
}

TEST(BufferedUnits, RemovalInDestageSizedPieces) {
  // Host writes enter a RunFifo and the buffer index together; stripes of 48
  // units then pop off the FIFO and leave the index one run at a time, as
  // the device's destage does. Writes overlap, so the FIFO holds duplicates.
  Rng rng(11);
  Checked c(1 << 14);
  RunFifo fifo;
  std::vector<ssd::Run> stripe;  // `Run` alone names testing::Test::Run here
  for (int step = 0; step < 400; ++step) {
    const std::uint32_t len = static_cast<std::uint32_t>(1 + rng.next_below(200));
    const std::uint64_t first = rng.next_below((1 << 12) - len);
    fifo.push(first, len);
    c.add(first, len);
    while (fifo.units() >= 48) {
      stripe.clear();
      fifo.pop_units(48, stripe);
      for (const ssd::Run& r : stripe) c.remove(r.first, r.len);
      c.expect_read(0, 1 << 13);
    }
  }
  while (!fifo.empty()) {
    stripe.clear();
    fifo.pop_units(static_cast<std::uint32_t>(std::min<std::uint64_t>(48, fifo.units())),
                   stripe);
    for (const ssd::Run& r : stripe) c.remove(r.first, r.len);
  }
  c.expect_all();
  EXPECT_TRUE(c.copies.empty());
}

TEST(BufferedUnits, ReadsPastTheHighestWrittenUnit) {
  Checked c(100000);
  c.add(10, 10);
  c.add(5000, 3);
  c.expect_read(0, 100000);
  c.expect_read(5003, 100000 - 5003);  // entirely above every written unit
  c.expect_read(99999, 1);             // the drive's last unit
  c.expect_read(4990, 95010);
  EXPECT_EQ(c.actual(0, 100000), (Runs{{0, 10}, {20, 4980}, {5003, 94997}}));
}

TEST(BufferedUnits, ManyOverlappingUnitsGrowTheExtraCopyTable) {
  // 6 000 distinct units with one to three extra copies each make the
  // extra-copy table grow several times; removing them in a shuffled order
  // deletes across every probe-chain shape that forms, including chains that
  // wrap past the end of the slot array.
  Rng rng(5);
  Checked c(1 << 16);
  std::vector<std::uint64_t> removals;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    const std::uint64_t unit = i * 7 + (i % 5);  // spread over words, some adjacent
    const int copies = 2 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < copies; ++k) {
      c.add(unit, 1);
      removals.push_back(unit);
    }
  }
  c.expect_read(0, 1 << 16);
  for (std::size_t i = removals.size(); i > 1; --i) {
    std::swap(removals[i - 1], removals[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < removals.size(); ++i) {
    c.remove(removals[i], 1);
    if (i % 997 == 0) c.expect_read(0, 1 << 16);
  }
  EXPECT_TRUE(c.copies.empty());
  EXPECT_EQ(c.actual(0, 1 << 16), (Runs{{0, 1 << 16}}));
}

TEST(BufferedUnits, DeletesAcrossAWrappedProbeChain) {
  // Units that all hash to the last slot of the initial 64-slot table form a
  // chain that wraps to slot 0 and beyond. Deleting from its head, middle
  // and tail must keep every other unit's extra copy reachable.
  std::vector<std::uint64_t> tail_units;
  for (std::uint64_t u = 0; tail_units.size() < 12; ++u) {
    if ((u * 0x9E3779B97F4A7C15ULL) >> 58 == 63) tail_units.push_back(u);
  }
  for (const std::size_t victim : {std::size_t{0}, std::size_t{5}, std::size_t{11}}) {
    Checked c(tail_units.back() + 1);
    for (const std::uint64_t u : tail_units) {
      c.add(u, 1);
      c.add(u, 1);
    }
    c.remove(tail_units[victim], 1);
    c.remove(tail_units[victim], 1);
    c.expect_all();
    for (const std::uint64_t u : tail_units) {
      if (u == tail_units[victim]) continue;
      c.remove(u, 1);
      ASSERT_TRUE(c.actual(u, 1).empty()) << "unit " << u << " lost its extra copy";
      c.remove(u, 1);
    }
    c.expect_all();
    EXPECT_TRUE(c.copies.empty());
  }
}

TEST(BufferedUnits, RandomSequencesMatchThePerUnitModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    Checked c(5000);  // not a multiple of 64
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pending;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t pick = rng.next_below(10);
      if (pick < 5 || pending.empty()) {
        static constexpr std::uint64_t kLens[] = {1, 2, 7, 63, 64, 65, 130, 1024};
        const std::uint64_t len = kLens[rng.next_below(8)];
        const std::uint64_t first = rng.next_below(5000 - len + 1);
        c.add(first, len);
        pending.emplace_back(first, len);
      } else if (pick < 8) {
        // Drop the front piece of a pending run, as a partial destage would.
        const std::size_t i = rng.next_below(pending.size());
        auto& [first, len] = pending[i];
        const std::uint64_t piece = 1 + rng.next_below(len);
        c.remove(first, piece);
        first += piece;
        len -= piece;
        if (len == 0) {
          pending[i] = pending.back();
          pending.pop_back();
        }
      } else {
        const std::uint64_t len = 1 + rng.next_below(700);
        const std::uint64_t first = rng.next_below(5000 - len + 1);
        c.expect_read(first, len);
      }
    }
    c.expect_all();
    for (const auto& [first, len] : pending) c.remove(first, len);
    EXPECT_TRUE(c.copies.empty());
    EXPECT_EQ(c.actual(0, 5000), (Runs{{0, 5000}}));
  }
}

TEST(BufferedUnitsDeathTest, RemovingAnUnbufferedUnitAborts) {
  EXPECT_DEATH(
      {
        BufferedUnits b(1000);
        b.remove(5, 1);  // nothing was ever buffered
      },
      "PAS_CHECK failed");
  EXPECT_DEATH(
      {
        BufferedUnits b(1000);
        b.add(10, 60);
        b.remove(60, 20);  // 70..79 are not buffered
      },
      "PAS_CHECK failed");
  EXPECT_DEATH(
      {
        BufferedUnits b(1000);
        b.add(10, 1);
        b.add(10, 1);
        b.remove(10, 1);
        b.remove(10, 1);
        b.remove(10, 1);  // both copies already gone
      },
      "PAS_CHECK failed");
}

}  // namespace
}  // namespace pas::ssd
