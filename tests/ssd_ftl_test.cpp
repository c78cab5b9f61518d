#include "ssd/ftl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace pas::ssd {
namespace {

// Small geometry so GC cycles are fast: 4 dies, 512 KiB superblocks,
// 16 MiB logical / 20 MiB physical.
SsdConfig small_config() {
  SsdConfig c;
  c.capacity_bytes = 16 * MiB;
  c.overprovision = 0.25;
  c.sector_bytes = 4096;
  c.nand.channels = 2;
  c.nand.dies_per_channel = 2;
  c.nand.planes_per_die = 2;
  c.nand.page_bytes = 16 * KiB;
  c.nand.pages_per_block = 16;
  c.gc_low_watermark_blocks = 4;
  c.gc_high_watermark_blocks = 6;
  return c;
}

// The lpn list as runs. Only strictly consecutive lpns coalesce, so the runs
// expand back to the identical unit sequence, repeats included.
std::vector<Run> to_runs(const std::vector<std::uint64_t>& lpns) {
  std::vector<Run> runs;
  for (const std::uint64_t lpn : lpns) {
    if (!runs.empty() && runs.back().first + runs.back().len == lpn) {
      ++runs.back().len;
    } else {
      runs.push_back(Run{lpn, 1});
    }
  }
  return runs;
}

// Test harness: completes NAND ops asynchronously after a fixed delay and
// counts them by kind. Every scenario ends with the FTL audit, which the
// destructor runs.
struct FtlHarness {
  sim::Simulator sim;
  int reads = 0;
  int programs = 0;
  int erases = 0;
  std::vector<std::pair<int, std::uint32_t>> gc_reads;  // (die, bytes), in issue order
  Ftl ftl;

  explicit FtlHarness(SsdConfig config = small_config())
      : ftl(config,
            [this](nand::NandOp op) {
              switch (op.kind) {
                case nand::OpKind::kRead:
                  ++reads;
                  if (op.priority) gc_reads.emplace_back(op.die, op.transfer_bytes);
                  break;
                case nand::OpKind::kProgram: ++programs; break;
                case nand::OpKind::kErase: ++erases; break;
              }
              sim.schedule_after(microseconds(10), [done = std::move(op.done)] { done(); });
            },
            [this](TimeNs d, sim::UniqueCallback fn) {
              sim.schedule_after(d, std::move(fn));
            },
            Rng(7)) {}

  ~FtlHarness() { EXPECT_EQ(ftl.audit(), ""); }

  // Programs the given lpns, in order, as one stripe.
  void write_lpns(const std::vector<std::uint64_t>& lpns, sim::UniqueCallback done) {
    const std::vector<Run> runs = to_runs(lpns);
    ftl.write_runs(runs.data(), runs.size(), static_cast<std::uint32_t>(lpns.size()),
                   std::move(done));
  }

  // Reads the given lpns.
  void read_lpns(const std::vector<std::uint64_t>& lpns, sim::UniqueCallback done) {
    const std::vector<Run> runs = to_runs(lpns);
    ftl.read_runs(runs.data(), runs.size(), std::move(done));
  }

  // Writes one stripe of the given lpns and lets it (and any GC) finish.
  void write(const std::vector<std::uint64_t>& lpns) {
    write_lpns(lpns, [] {});
    sim.run_to_completion();
  }

  // Writes `stripes` stripes of consecutive lpns starting at `first`.
  void write_stripes(std::uint64_t first, int stripes) {
    const std::uint32_t per = ftl.units_per_stripe();
    for (int s = 0; s < stripes; ++s) {
      std::vector<std::uint64_t> lpns;
      for (std::uint32_t u = 0; u < per; ++u) lpns.push_back(first + s * per + u);
      write_lpns(lpns, [] {});
    }
    sim.run_to_completion();
  }
};

TEST(Ftl, GeometryDerivation) {
  FtlHarness h;
  EXPECT_EQ(h.ftl.units_per_stripe(), 8u);  // 2 planes * 16 KiB / 4 KiB
  EXPECT_EQ(h.ftl.total_units(), 4096u);    // 16 MiB / 4 KiB
  EXPECT_EQ(h.ftl.free_blocks(), 40);       // 20 MiB / 512 KiB
}

TEST(Ftl, WriteMapsUnits) {
  FtlHarness h;
  EXPECT_FALSE(h.ftl.is_mapped(0));
  h.write_stripes(0, 1);
  for (std::uint64_t l = 0; l < 8; ++l) EXPECT_TRUE(h.ftl.is_mapped(l));
  EXPECT_FALSE(h.ftl.is_mapped(8));
  EXPECT_EQ(h.programs, 1);
  EXPECT_EQ(h.ftl.stats().host_units_written, 8u);
}

TEST(Ftl, WriteCallbackFiresAfterProgram) {
  FtlHarness h;
  bool done = false;
  h.write_lpns({0, 1, 2}, [&] { done = true; });
  EXPECT_FALSE(done);
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
}

TEST(Ftl, PartialStripeAllowed) {
  FtlHarness h;
  h.write_lpns({42}, [] {});
  h.sim.run_to_completion();
  EXPECT_TRUE(h.ftl.is_mapped(42));
  EXPECT_EQ(h.ftl.stats().host_units_written, 1u);
}

TEST(Ftl, OversizeStripeAborts) {
  FtlHarness h;
  std::vector<std::uint64_t> lpns(h.ftl.units_per_stripe() + 1, 0);
  EXPECT_DEATH(h.write_lpns(lpns, [] {}), "");
}

TEST(Ftl, ReadCoalescesByPhysicalPage) {
  FtlHarness h;
  h.write_stripes(0, 1);  // lpns 0..7 in one stripe = 2 physical pages
  h.reads = 0;
  bool done = false;
  h.read_lpns({0, 1, 2, 3}, [&] { done = true; });  // all in page 0
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.reads, 1);
}

TEST(Ftl, ReadSpanningPagesIssuesMultiple) {
  FtlHarness h;
  h.write_stripes(0, 1);
  h.reads = 0;
  h.read_lpns({0, 1, 2, 3, 4, 5, 6, 7}, [] {});
  h.sim.run_to_completion();
  EXPECT_EQ(h.reads, 2);  // two 16 KiB pages in the stripe
}

TEST(Ftl, UnmappedReadHitsPseudoMedia) {
  FtlHarness h;
  bool done = false;
  h.read_lpns({100}, [&] { done = true; });
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.reads, 1);  // pseudo-location read
}

TEST(Ftl, UnmappedReadSkipsMediaWhenDisabled) {
  auto cfg = small_config();
  cfg.unmapped_read_hits_media = false;
  FtlHarness h(cfg);
  bool done = false;
  h.read_lpns({100}, [&] { done = true; });
  EXPECT_TRUE(done);  // synchronous completion, no NAND
  EXPECT_EQ(h.reads, 0);
}

TEST(Ftl, OverwriteInvalidatesOldMapping) {
  FtlHarness h;
  h.write_stripes(0, 1);
  h.write_stripes(0, 1);  // overwrite the same lpns
  EXPECT_EQ(h.ftl.stats().host_units_written, 16u);
  // Still mapped; reading them issues page reads against the new location.
  h.reads = 0;
  h.read_lpns({0}, [] {});
  h.sim.run_to_completion();
  EXPECT_EQ(h.reads, 1);
}

TEST(Ftl, GcTriggersUnderFreePressure) {
  FtlHarness h;
  // Fill logical space once (32 blocks of data on 40 physical), then keep
  // overwriting to force garbage collection.
  const auto total = h.ftl.total_units();
  const std::uint32_t per = h.ftl.units_per_stripe();
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l + per <= total; l += per) {
      std::vector<std::uint64_t> lpns;
      for (std::uint32_t u = 0; u < per; ++u) lpns.push_back(l + u);
      h.write_lpns(lpns, [] {});
      h.sim.run_to_completion();
    }
  }
  EXPECT_GT(h.ftl.stats().erases, 0u);
  // Sequential overwrites kill blocks outright: reclaim is erase-only, so no
  // move "runs" are required.
  EXPECT_GE(h.ftl.free_blocks(), 2);  // host reserve respected
  // Sequential overwrites fully invalidate victim blocks: GC moves little.
  EXPECT_LT(h.ftl.stats().write_amplification(), 1.5);
}

TEST(Ftl, RandomOverwriteWorkloadKeepsMapConsistent) {
  FtlHarness h;
  Rng rng(99);
  const auto total = h.ftl.total_units();
  const std::uint32_t per = h.ftl.units_per_stripe();
  std::vector<bool> written(total, false);
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint64_t> lpns;
    const std::uint64_t base = rng.next_below(total - per);
    for (std::uint32_t u = 0; u < per; ++u) {
      lpns.push_back(base + u);
      written[base + u] = true;
    }
    h.write_lpns(lpns, [] {});
    if (i % 16 == 0) h.sim.run_to_completion();
  }
  h.sim.run_to_completion();
  EXPECT_TRUE(h.ftl.quiescent());
  for (std::uint64_t l = 0; l < total; ++l) {
    EXPECT_EQ(h.ftl.is_mapped(l), written[l]) << "lpn " << l;
  }
  // Write amplification must be sane: >= 1 and bounded. At ~80% space
  // utilization greedy GC theory predicts WA around 4-6.
  EXPECT_GE(h.ftl.stats().write_amplification(), 1.0);
  EXPECT_LT(h.ftl.stats().write_amplification(), 8.0);
}

TEST(Ftl, PreconditionMapsEverything) {
  FtlHarness h;
  h.ftl.precondition_sequential();
  for (std::uint64_t l = 0; l < h.ftl.total_units(); l += 37) {
    EXPECT_TRUE(h.ftl.is_mapped(l));
  }
  // No simulated NAND traffic.
  EXPECT_EQ(h.programs, 0);
  // Free space shrank to roughly the overprovision.
  EXPECT_LE(h.ftl.free_blocks(), 8);
}

TEST(Ftl, PreconditionThenOverwriteTriggersGcButStaysLive) {
  FtlHarness h;
  h.ftl.precondition_sequential();
  ASSERT_EQ(h.ftl.audit(), "");
  // Overwrite a quarter of the space randomly; the audit holds throughout.
  Rng rng(5);
  const auto total = h.ftl.total_units();
  const std::uint32_t per = h.ftl.units_per_stripe();
  for (int i = 0; i < 128; ++i) {
    std::vector<std::uint64_t> lpns;
    const std::uint64_t base = rng.next_below(total - per);
    for (std::uint32_t u = 0; u < per; ++u) lpns.push_back(base + u);
    h.write_lpns(lpns, [] {});
    h.sim.run_to_completion();
    ASSERT_EQ(h.ftl.audit(), "") << "stripe " << i;
  }
  EXPECT_TRUE(h.ftl.quiescent());
  EXPECT_GT(h.ftl.stats().gc_runs, 0u);
  EXPECT_GT(h.ftl.stats().gc_units_moved, 0u);
  EXPECT_GT(h.ftl.stats().write_amplification(), 1.0);
}

// Sealing a block whose older data has all been overwritten must not queue it
// for erase: the sealing stripe is mapped into it right after the seal, and
// the erase would then abort on the block's live units.
// Host stripes go round-robin over the 4 dies, 16 stripes per block, so the
// 61st stripe seals die 0's first block, whose copies of lpns 0-7 are stale.
TEST(Ftl, SealingAnEmptiedBlockDoesNotEraseItsNewData) {
  FtlHarness h;
  for (int i = 0; i < 60; ++i) h.write_stripes(0, 1);
  h.write_stripes(100, 1);
  for (int i = 0; i < 600; ++i) {
    h.write_stripes(0, 1);
    ASSERT_EQ(h.ftl.audit(), "") << "rewrite " << i;
  }
  EXPECT_GT(h.ftl.stats().erases, 0u);
  for (std::uint64_t l = 100; l < 108; ++l) EXPECT_TRUE(h.ftl.is_mapped(l));
}

// The write buffer's RunFifo keeps duplicate lpns from overlapping writes, so
// one stripe can carry an lpn more than once; its last copy is the live one.
TEST(Ftl, StripeCarryingAnLpnTwiceKeepsOnlyTheLastCopy) {
  FtlHarness h;
  h.write_stripes(0, 1);
  h.write({3, 4, 3, 5, 3});
  ASSERT_EQ(h.ftl.audit(), "");
  // The run-based entry point: runs [0, 4) and [2, 6) overlap on lpns 2-3.
  const ssd::Run runs[] = {{0, 4}, {2, 4}};
  h.ftl.write_runs(runs, 2, 8, [] {});
  h.sim.run_to_completion();
  ASSERT_EQ(h.ftl.audit(), "");
  // Keep writing stripes full of repeats over a preconditioned drive until
  // GC has moved data, so repeats meet sealing, erases and moves.
  h.ftl.precondition_sequential();
  Rng rng(3);
  const std::uint32_t per = h.ftl.units_per_stripe();
  for (int i = 0; i < 2000 && h.ftl.stats().gc_units_moved == 0; ++i) {
    const std::uint64_t base = rng.next_below(h.ftl.total_units() - 4);
    std::vector<std::uint64_t> lpns;
    for (std::uint32_t u = 0; u < per; ++u) lpns.push_back(base + rng.next_below(4));
    h.write(lpns);
    ASSERT_EQ(h.ftl.audit(), "") << "stripe " << i;
  }
  EXPECT_GT(h.ftl.stats().gc_units_moved, 0u);
}

// An overwrite whose old unit is the last valid unit of the block its own
// stripe seals: the block's count must not pass through zero (which would
// queue it for erase while it receives the stripe).
TEST(Ftl, OverwriteIntoTheBlockItsStripeSeals) {
  FtlHarness h;
  for (int i = 0; i < 56; ++i) h.write_stripes(0, 1);  // 14 stale stripes per die
  h.write_stripes(1000, 1);  // die 0's 15th stripe: lpns 1000-1007
  h.write({1001, 1002, 1003, 1004, 1005, 1006, 1007, 2000});  // leaves 1000 alone there
  h.write_stripes(2001, 2);
  h.write({1000, 3000, 3001, 3002, 3003, 3004, 3005, 3006});  // die 0's 16th stripe
  ASSERT_EQ(h.ftl.audit(), "");
  for (int i = 0; i < 600; ++i) {
    h.write_stripes(0, 1);
    ASSERT_EQ(h.ftl.audit(), "") << "rewrite " << i;
  }
  EXPECT_GT(h.ftl.stats().erases, 0u);
  EXPECT_TRUE(h.ftl.is_mapped(1000));
  for (std::uint64_t l = 3000; l < 3007; ++l) EXPECT_TRUE(h.ftl.is_mapped(l));
}

// Tables first built by a read read back as fully unmapped, and stay
// consistent once writes land.
TEST(Ftl, UnmappedReadsOnTablesFirstBuiltByARead) {
  FtlHarness h;
  h.read_lpns({0, 1, 4095}, [] {});  // builds the tables
  h.sim.run_to_completion();
  EXPECT_EQ(h.reads, 2);  // two pseudo pages
  for (std::uint64_t l = 0; l < h.ftl.total_units(); ++l) ASSERT_FALSE(h.ftl.is_mapped(l));
  EXPECT_EQ(h.ftl.victim_pick_indexed(), Ftl::kNoVictim);
  ASSERT_EQ(h.ftl.audit(), "");
  h.write_stripes(0, 1);
  h.reads = 0;
  h.read_lpns({0, 1, 2, 3, 4, 5, 6, 7, 8}, [] {});
  h.sim.run_to_completion();
  EXPECT_EQ(h.reads, 3);  // the stripe's two pages and lpn 8's pseudo page
}

// A GC move reads each page that holds the victim's valid units once, sized
// to that page's units, in ascending page order. Preconditioning maps stripe
// k (lpns 8k to 8k + 7) to die k % 4, so die 0's first block holds stripes 0,
// 4, ..., 60 in order, and its page p holds lpns 32 * (p / 2) + 4 * (p % 2)
// + {0, 1, 2, 3}. Overwriting all but p % 5 units of each page leaves that
// block 61 valid units; every other sealed block is full, so it is the one
// block a move can gain space from.
TEST(Ftl, GcMoveReadsEachVictimPageOnce) {
  SsdConfig cfg = small_config();
  cfg.gc_low_watermark_blocks = 9;  // above the 8 blocks preconditioning leaves free
  cfg.gc_high_watermark_blocks = 10;
  FtlHarness h(cfg);
  h.ftl.precondition_sequential();
  std::vector<std::uint64_t> stale;
  std::vector<std::pair<int, std::uint32_t>> expect;
  std::uint64_t survivors = 0;
  for (std::uint32_t p = 0; p < 32; ++p) {
    const std::uint64_t first = 32 * (p / 2) + 4 * (p % 2);
    const std::uint32_t keep = p % 5;
    for (std::uint32_t u = keep; u < 4; ++u) stale.push_back(first + u);
    if (keep > 0) expect.emplace_back(0, keep * cfg.sector_bytes);
    survivors += keep;
  }
  for (std::size_t i = 0; i < stale.size(); i += 8) {
    const auto end = stale.begin() + static_cast<std::ptrdiff_t>(std::min(i + 8, stale.size()));
    h.write_lpns({stale.begin() + static_cast<std::ptrdiff_t>(i), end}, [] {});
  }
  h.sim.run_to_completion();
  EXPECT_EQ(h.ftl.stats().gc_runs, 1u);
  EXPECT_EQ(h.ftl.stats().gc_units_moved, survivors);
  EXPECT_EQ(h.gc_reads, expect);
  EXPECT_EQ(h.ftl.stats().erases, 1u);
}

TEST(Ftl, StatsWriteAmplificationIdentity) {
  FtlStats s;
  EXPECT_DOUBLE_EQ(s.write_amplification(), 1.0);
  s.host_units_written = 100;
  s.gc_units_moved = 50;
  EXPECT_DOUBLE_EQ(s.write_amplification(), 1.5);
}

}  // namespace
}  // namespace pas::ssd
