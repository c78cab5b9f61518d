// Page-mapped flash translation layer.
//
// Logical space is divided into mapping units of one sector (4 KiB). Physical
// space is organized as per-die superblocks; host and GC writes fill one
// stripe (a multi-plane page, e.g. 64 KiB) at a time, striped round-robin
// across dies. Greedy garbage collection (min-valid victim) runs when the
// free-superblock pool falls below a watermark; host allocation back-pressures
// when the pool is nearly exhausted (the classic write cliff).
//
// The FTL issues NAND operations through an injected function so the device
// can route them through the power-cap governor.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nand/array.h"
#include "sim/callback.h"
#include "sim/ring_queue.h"
#include "ssd/config.h"
#include "ssd/runs.h"

namespace pas::ssd {

struct FtlStats {
  std::uint64_t host_units_written = 0;  // mapping units programmed for host
  std::uint64_t gc_units_moved = 0;      // mapping units rewritten by GC
  std::uint64_t nand_page_reads = 0;
  std::uint64_t nand_programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_runs = 0;

  double write_amplification() const {
    if (host_units_written == 0) return 1.0;
    return static_cast<double>(host_units_written + gc_units_moved) /
           static_cast<double>(host_units_written);
  }
};

class Ftl {
 public:
  using IssueNand = sim::UniqueFunction<void(nand::NandOp&&)>;
  // Schedules a callback after a simulated delay (provided by the device, so
  // the FTL can pace lazy GC without holding a simulator reference). The
  // callback is a sim::UniqueCallback so the device's trampoline hands it to
  // the kernel's inline event slot without a heap round-trip.
  using Defer = sim::UniqueFunction<void(TimeNs, sim::UniqueCallback)>;

  Ftl(const SsdConfig& config, IssueNand issue, Defer defer, Rng rng);

  // Programs up to one stripe's worth of mapping units for the host: the
  // `units` units of `runs`, each run expanded to its units in order (a unit
  // may repeat; its last copy is the live one). Maps the units when it sends
  // the program to NAND; `done` fires when the program completes. May stall
  // internally when free space requires GC first. `runs` only needs to stay
  // alive for the duration of the call.
  void write_runs(const Run* runs, std::size_t nruns, std::uint32_t units,
                  sim::UniqueCallback done);

  // Reads the units of `runs`; coalesces units sharing a physical page into
  // one NAND read. `done` fires when all page reads complete.
  void read_runs(const Run* runs, std::size_t nruns, sim::UniqueCallback done);

  // Instantly maps the whole logical space sequentially (no simulated time):
  // models a drive filled with data before the experiment.
  void precondition_sequential();

  const FtlStats& stats() const { return stats_; }
  const SsdConfig& config() const { return config_; }

  std::uint64_t total_units() const { return total_lpns_; }
  std::uint32_t units_per_stripe() const { return units_per_stripe_; }
  int free_blocks() const { return static_cast<int>(total_free_blocks_); }
  bool gc_active() const { return moves_in_flight_ > 0 || erases_in_flight_ > 0; }
  std::size_t stalled_writes() const { return stalled_writes_.size(); }
  bool is_mapped(std::uint64_t lpn) const;
  // True when no deferred work (stalled host writes or an active GC) remains.
  bool quiescent() const { return !gc_active() && stalled_writes_.empty(); }

  // GC victim-selection hooks, exposed so tests can assert the bucketed index
  // always agrees with a linear scan over the block table. Both return the
  // lowest-index sealed block with the fewest valid units (kNoVictim when no
  // candidate exists); neither mutates selection state beyond the index's
  // min-bucket hint.
  static constexpr std::uint32_t kNoVictim = 0xFFFFFFFFu;
  std::uint32_t victim_pick_indexed();
  std::uint32_t victim_scan_linear() const;

  // Checks the mapping and GC bookkeeping against each other and returns the
  // first violated invariant, or an empty string when all hold: map and
  // reverse map agree on every valid unit (a bijection), every block's valid
  // count equals its bitmap popcount, the GC index holds exactly the
  // candidate blocks, each in its valid count's bucket, and every block on
  // the dead queue is empty. O(logical + physical units); for tests.
  std::string audit() const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;  // no block / slot / list entry

  struct Block {
    enum class State : std::uint8_t { kFree, kOpen, kSealed } state = State::kFree;
    bool queued_dead = false;  // already on the dead list / being erased
    bool moving = false;       // a GC move of this block is in flight
    std::uint32_t valid = 0;
    std::uint32_t next_unit = 0;  // allocation cursor while open
  };

  // A write stream (host or GC) keeps one open block per die and stripes
  // consecutive allocations round-robin across dies, so programs spread over
  // the whole array (this is what gives an SSD its write bandwidth).
  struct WriteStream {
    std::vector<std::uint32_t> open_block;  // per die; kNone when none
    int rr = 0;
  };

  // Mapping tables come from calloc/malloc rather than std::vector, which
  // would fill them; see ensure_tables().
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using Table = std::unique_ptr<T[], FreeDeleter>;

  // Builds the mapping tables on the first IO (write, read or precondition).
  // The constructor only does geometry arithmetic: a fleet bench constructs
  // hundreds of drives whose tables would otherwise dominate setup, and a
  // drive that is merely monitored never needs them at all.
  void ensure_tables();

  std::uint32_t block_of(std::uint32_t ppn) const { return ppn / units_per_block_; }
  int die_of_block(std::uint32_t blk) const {
    return static_cast<int>(blk / blocks_per_die_);
  }
  std::uint32_t page_of(std::uint32_t ppn) const { return ppn / units_per_page_; }
  std::uint32_t block_first_ppn(std::uint32_t blk) const { return blk * units_per_block_; }

  // Points the next `units` lpns drawn from `next_lpn()` at the stripe
  // starting at `ppn_start`, invalidating the units they replace. Bits and
  // map entries change per unit; block valid counts (and GC-index buckets)
  // change once per run of replaced units that share a block.
  template <typename NextLpn>
  void map_stripe(std::uint32_t ppn_start, std::uint32_t units, NextLpn next_lpn);
  void drop_valid(std::uint32_t blk_idx, std::uint32_t units);
  void set_block_valid(std::uint32_t blk_idx, std::uint32_t valid);

  // Flat valid bitmap, one bit per ppn. Range helpers work a 64-bit word at
  // a time; for_each_valid visits set bits of [first, first + n) ascending.
  bool test_valid(std::uint32_t ppn) const { return (valid_bits_[ppn / 64] >> (ppn % 64)) & 1u; }
  void set_valid_range(std::uint32_t first, std::uint32_t n);
  template <typename Fn>
  void for_each_valid(std::uint32_t first, std::uint32_t n, Fn fn) const;

  // Allocates a stripe on the next die in round-robin order; returns the
  // first ppn, or kNone when no block is available (caller must wait).
  std::uint32_t allocate_stripe(WriteStream& stream, bool for_gc);
  bool open_block_on_die(int die, WriteStream& stream, bool for_gc);

  // Performs the allocation + mapping + program issue; returns false (with
  // no state mutated, `done` left intact) when free space is exhausted and
  // the write must stall.
  bool try_write_runs(const Run* runs, std::uint32_t units, sim::UniqueCallback& done);

  // One coalesced physical page in a read batch; kept in pages_scratch_ in
  // insertion order so NAND ops issue in a portable, deterministic order.
  struct PageRef {
    std::uint64_t key;
    int die;
    std::uint32_t units;
  };
  void add_page_unit(std::uint64_t key, int die);
  void append_page_unit(std::uint64_t key, int die);
  void add_read_unit(std::uint64_t lpn);
  void issue_page_reads(sim::UniqueCallback done);

  // Pooled fan-in counters for multi-page read batches: each page op's
  // completion captures only {this, index} (16 bytes, inline in the op), and
  // the joined continuation fires when the last page read lands. Slots are
  // free-listed so steady-state reads allocate nothing.
  std::uint32_t fanin_create(std::size_t count, sim::UniqueCallback done);
  void fanin_complete(std::uint32_t idx);
  // Garbage collection. Fully-invalid ("dead") blocks are tracked eagerly
  // and erased in a pipeline; victims that still hold valid data are moved
  // lazily (deferring briefly while the host is actively invalidating), with
  // a few moves in flight at once so reclaim parallelizes across dies.
  void note_possibly_dead(std::uint32_t blk_idx);
  void gc_pump();
  void start_move();
  // Victim index maintenance: a block sits in the victim index exactly
  // while it is a GC candidate (sealed, not queued dead, not mid-move).
  void gc_index_insert(std::uint32_t blk_idx);
  void gc_index_remove(std::uint32_t blk_idx);
  void gc_refresh(std::uint32_t blk_idx);
  // (lpn, old ppn) snapshots that travel through a move's read/program
  // pipeline. The vectors recycle through gc_vec_pool_ so reclaim at the
  // write cliff does not allocate per move (or per stripe).
  using MovePair = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<MovePair> gc_vec_take();
  void gc_vec_put(std::vector<MovePair> v);
  // `programs_left` carries a +1 batch guard across allocation retries; pass
  // nullptr on first entry.
  void gc_move_batch(std::vector<MovePair> pairs, std::uint32_t victim_blk,
                     std::shared_ptr<int> programs_left);
  void issue_erase(std::uint32_t blk_idx);
  void drain_stalled();

  SsdConfig config_;
  IssueNand issue_;
  Defer defer_;
  Rng rng_;
  FtlStats stats_;

  std::uint64_t total_lpns_ = 0;
  std::uint32_t units_per_page_ = 0;
  std::uint32_t units_per_stripe_ = 0;
  std::uint32_t units_per_block_ = 0;
  std::uint32_t blocks_per_die_ = 0;
  int dies_ = 0;

  bool tables_ready_ = false;
  Table<std::uint32_t> map_;         // lpn -> ppn + 1; 0 = unmapped
  Table<std::uint32_t> rmap_;        // ppn -> lpn; uninitialised, read only under a valid bit
  Table<std::uint64_t> valid_bits_;  // ppn -> valid bit
  std::vector<Block> blocks_;        // global block index = die*blocks_per_die+i
  std::vector<std::deque<std::uint32_t>> free_lists_;  // per die, block indices
  std::size_t total_free_blocks_ = 0;

  WriteStream host_stream_;
  WriteStream gc_stream_;

  std::deque<std::uint32_t> dead_blocks_;
  int erases_in_flight_ = 0;
  int moves_in_flight_ = 0;  // concurrent victim moves (parallel across dies)
  bool gc_defer_armed_ = false;
  int consecutive_defers_ = 0;

  // GC victim index: per valid-count intrusive doubly-linked list of
  // candidate blocks, threaded through two fixed arrays (per-bucket vectors
  // would re-grow as counts wander, a steady trickle of heap traffic). The
  // pick scans the minimum non-empty bucket's list for the lowest block
  // index, matching the legacy linear scan's tie-break. gc_min_bucket_ is a
  // monotone hint: no candidate lives below it; inserts lower it, picks
  // advance it past drained buckets.
  static constexpr std::uint32_t kGcHead = 0xFFFFFFFEu;  // prev-link front marker
  std::vector<std::uint32_t> gc_head_;  // valid -> first candidate, or kNone
  std::vector<std::uint32_t> gc_next_;  // block -> next in bucket, or kNone
  std::vector<std::uint32_t> gc_prev_;  // block -> prev / kGcHead; kNone = not indexed
  std::uint32_t gc_min_bucket_ = 0;

  // Host writes waiting for free space (write cliff back-pressure). Drained
  // nodes park in stalled_spare_ with their run-vector capacity intact, so a
  // stall storm at the write cliff allocates each node once, not per stall.
  struct StalledWrite {
    std::vector<Run> runs;
    std::uint32_t units = 0;
    sim::UniqueCallback done;
  };
  sim::RingQueue<StalledWrite> stalled_writes_;
  std::vector<StalledWrite> stalled_spare_;
  std::vector<std::vector<MovePair>> gc_vec_pool_;

  // Reused scratch buffer (capacity persists across IOs: steady-state reads
  // build their page lists without allocating).
  std::vector<PageRef> pages_scratch_;

  struct FanIn {
    std::size_t remaining = 0;
    sim::UniqueCallback done;
    std::uint32_t next_free = kNone;
  };
  std::deque<FanIn> fanins_;  // stable addresses; grows to peak fan-out
  std::uint32_t fanin_free_ = kNone;
};

}  // namespace pas::ssd
