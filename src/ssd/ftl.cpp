#include "ssd/ftl.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/check.h"

namespace pas::ssd {
namespace {

// Host allocation refuses to dip below this many free superblocks so GC can
// always make forward progress.
constexpr std::size_t kHostReserveBlocks = 2;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// Bits of bitmap word `w` that fall inside the ppn range [first, end).
std::uint64_t range_mask(std::uint32_t w, std::uint32_t first, std::uint32_t end) {
  const std::uint64_t lo = static_cast<std::uint64_t>(w) * 64;
  std::uint64_t mask = ~0ULL;
  if (first > lo) mask &= ~0ULL << (first - lo);
  if (end < lo + 64) mask &= ~0ULL >> (lo + 64 - end);
  return mask;
}

// A table of `n` elements from calloc (zeroed) or malloc (uninitialised).
template <typename T>
T* alloc_table(std::uint64_t n, bool zeroed) {
  void* p = zeroed ? std::calloc(n, sizeof(T)) : std::malloc(n * sizeof(T));
  PAS_CHECK_MSG(p != nullptr, "out of memory for FTL tables");
  return static_cast<T*>(p);
}

}  // namespace

Ftl::Ftl(const SsdConfig& config, IssueNand issue, Defer defer, Rng rng)
    : config_(config), issue_(std::move(issue)), defer_(std::move(defer)), rng_(rng) {
  PAS_CHECK(issue_ != nullptr);
  PAS_CHECK(defer_ != nullptr);
  const auto& n = config_.nand;
  units_per_page_ = n.page_bytes / config_.sector_bytes;
  PAS_CHECK(units_per_page_ >= 1);
  units_per_stripe_ = n.stripe_bytes() / config_.sector_bytes;
  units_per_block_ = static_cast<std::uint32_t>(n.block_bytes() / config_.sector_bytes);
  dies_ = n.total_dies();
  blocks_per_die_ = static_cast<std::uint32_t>(config_.physical_bytes() /
                                               static_cast<std::uint64_t>(dies_) /
                                               n.block_bytes());
  PAS_CHECK_MSG(blocks_per_die_ >= 4, "physical capacity too small for this geometry");
  total_lpns_ = config_.capacity_bytes / config_.sector_bytes;

  const std::uint64_t total_blocks = static_cast<std::uint64_t>(dies_) * blocks_per_die_;
  const std::uint64_t total_punits = total_blocks * units_per_block_;
  PAS_CHECK_MSG(total_punits < kNone, "physical space exceeds 32-bit ppn encoding");
  PAS_CHECK_MSG(total_punits >= total_lpns_ + kHostReserveBlocks * units_per_block_,
                "overprovisioning too small");

  // The tables themselves (tens of MB per device) are NOT built here — see
  // ensure_tables(). A monitored fleet constructs hundreds of drives that
  // may never see one IO.
  total_free_blocks_ = total_blocks;
}

void Ftl::ensure_tables() {
  if (tables_ready_) return;
  tables_ready_ = true;
  const std::uint64_t total_blocks = static_cast<std::uint64_t>(dies_) * blocks_per_die_;
  const std::uint64_t total_punits = total_blocks * units_per_block_;
  // Zero means "unmapped" (map_ holds ppn + 1) and "invalid", so map_ and
  // the bitmap come from calloc: it hands out untouched zero pages when the
  // allocator has no free memory, and zeroes already-resident memory when it
  // does, either way without a fill pass over fresh pages. rmap_ is never
  // read where it was not written (only under a valid bit), so it stays
  // uninitialised.
  map_.reset(alloc_table<std::uint32_t>(total_lpns_, /*zeroed=*/true));
  rmap_.reset(alloc_table<std::uint32_t>(total_punits, /*zeroed=*/false));
  valid_bits_.reset(alloc_table<std::uint64_t>((total_punits + 63) / 64, /*zeroed=*/true));
  blocks_.resize(total_blocks);
  free_lists_.resize(static_cast<std::size_t>(dies_));
  for (int d = 0; d < dies_; ++d) {
    for (std::uint32_t i = 0; i < blocks_per_die_; ++i) {
      free_lists_[static_cast<std::size_t>(d)].push_back(
          static_cast<std::uint32_t>(d) * blocks_per_die_ + i);
    }
  }
  gc_head_.assign(units_per_block_ + 1, kNone);
  gc_next_.assign(total_blocks, kNone);
  gc_prev_.assign(total_blocks, kNone);
  gc_min_bucket_ = static_cast<std::uint32_t>(gc_head_.size());  // all empty
}

void Ftl::gc_index_insert(std::uint32_t blk_idx) {
  const std::uint32_t v = blocks_[blk_idx].valid;
  const std::uint32_t old_head = gc_head_[v];
  gc_next_[blk_idx] = old_head;
  gc_prev_[blk_idx] = kGcHead;
  if (old_head != kNone) gc_prev_[old_head] = blk_idx;
  gc_head_[v] = blk_idx;
  if (v < gc_min_bucket_) gc_min_bucket_ = v;
}

void Ftl::gc_index_remove(std::uint32_t blk_idx) {
  const std::uint32_t next = gc_next_[blk_idx];
  const std::uint32_t prev = gc_prev_[blk_idx];
  PAS_DCHECK(prev != kNone);
  if (prev == kGcHead) {
    gc_head_[blocks_[blk_idx].valid] = next;
  } else {
    gc_next_[prev] = next;
  }
  if (next != kNone) gc_prev_[next] = prev;
  gc_prev_[blk_idx] = kNone;
}

void Ftl::gc_refresh(std::uint32_t blk_idx) {
  const auto& blk = blocks_[blk_idx];
  const bool candidate =
      blk.state == Block::State::kSealed && !blk.queued_dead && !blk.moving;
  const bool indexed = gc_prev_[blk_idx] != kNone;
  if (candidate && !indexed) {
    gc_index_insert(blk_idx);
  } else if (!candidate && indexed) {
    gc_index_remove(blk_idx);
  }
}

bool Ftl::is_mapped(std::uint64_t lpn) const {
  PAS_CHECK(lpn < total_lpns_);
  return tables_ready_ && map_[lpn] != 0;
}

void Ftl::set_valid_range(std::uint32_t first, std::uint32_t n) {
  const std::uint32_t end = first + n;
  for (std::uint32_t w = first / 64; w * 64 < end; ++w) {
    const std::uint64_t mask = range_mask(w, first, end);
    PAS_DCHECK((valid_bits_[w] & mask) == 0);
    valid_bits_[w] |= mask;
  }
}

template <typename Fn>
void Ftl::for_each_valid(std::uint32_t first, std::uint32_t n, Fn fn) const {
  const std::uint32_t end = first + n;
  for (std::uint32_t w = first / 64; w * 64 < end; ++w) {
    for (std::uint64_t bits = valid_bits_[w] & range_mask(w, first, end); bits != 0;
         bits &= bits - 1) {
      fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
}

void Ftl::set_block_valid(std::uint32_t blk_idx, std::uint32_t valid) {
  // An indexed candidate changes buckets (valid can rise on a sealed block:
  // the stripe that sealed it is mapped after the seal).
  const bool indexed = gc_prev_[blk_idx] != kNone;
  if (indexed) gc_index_remove(blk_idx);
  blocks_[blk_idx].valid = valid;
  if (indexed) gc_index_insert(blk_idx);
}

void Ftl::drop_valid(std::uint32_t blk_idx, std::uint32_t units) {
  const std::uint32_t valid = blocks_[blk_idx].valid;
  PAS_CHECK(valid >= units);
  set_block_valid(blk_idx, valid - units);
  if (valid == units) note_possibly_dead(blk_idx);
}

template <typename NextLpn>
void Ftl::map_stripe(std::uint32_t ppn_start, std::uint32_t units, NextLpn next_lpn) {
  // The whole stripe lies in one block, whose count rises once, up front:
  // units this stripe then replaces in its own block (an lpn it carries
  // twice, or older data of the block it seals) can never take that count
  // to zero and queue a block that is receiving live data.
  set_valid_range(ppn_start, units);
  const std::uint32_t stripe_blk = block_of(ppn_start);
  set_block_valid(stripe_blk, blocks_[stripe_blk].valid + units);
  // Replaced units are counted per run of units that share a block. A
  // block other than the stripe's only loses units here, so it reaches zero
  // at the end of its last run: dead blocks queue in the order a per-unit
  // count would have queued them.
  std::uint32_t run_blk = kNone;
  std::uint32_t run_units = 0;
  for (std::uint32_t i = 0; i < units; ++i) {
    const std::uint64_t lpn = next_lpn();
    if (const std::uint32_t old = map_[lpn]; old != 0) {
      const std::uint32_t old_ppn = old - 1;
      PAS_DCHECK(test_valid(old_ppn));
      valid_bits_[old_ppn / 64] &= ~(1ULL << (old_ppn % 64));
      const std::uint32_t blk = block_of(old_ppn);
      if (blk != run_blk) {
        if (run_units > 0) drop_valid(run_blk, run_units);
        run_blk = blk;
        run_units = 0;
      }
      ++run_units;
    }
    map_[lpn] = ppn_start + i + 1;
    rmap_[ppn_start + i] = static_cast<std::uint32_t>(lpn);
  }
  if (run_units > 0) drop_valid(run_blk, run_units);
}

bool Ftl::open_block_on_die(int die, WriteStream& stream, bool for_gc) {
  const std::size_t reserve = for_gc ? 0 : kHostReserveBlocks;
  if (total_free_blocks_ <= reserve) return false;
  auto& fl = free_lists_[static_cast<std::size_t>(die)];
  if (fl.empty()) return false;
  const std::uint32_t blk_idx = fl.front();
  fl.pop_front();
  --total_free_blocks_;
  auto& blk = blocks_[blk_idx];
  PAS_CHECK(blk.state == Block::State::kFree);
  PAS_CHECK(blk.valid == 0);
  blk.state = Block::State::kOpen;
  blk.next_unit = 0;
  stream.open_block[static_cast<std::size_t>(die)] = blk_idx;
  return true;
}

std::uint32_t Ftl::allocate_stripe(WriteStream& stream, bool for_gc) {
  if (stream.open_block.empty()) stream.open_block.assign(static_cast<std::size_t>(dies_), kNone);
  for (int probe = 0; probe < dies_; ++probe) {
    const int die = (stream.rr + probe) % dies_;
    std::uint32_t blk_idx = stream.open_block[static_cast<std::size_t>(die)];
    if (blk_idx == kNone || blocks_[blk_idx].state != Block::State::kOpen) {
      if (!open_block_on_die(die, stream, for_gc)) continue;  // die (or pool) exhausted
      blk_idx = stream.open_block[static_cast<std::size_t>(die)];
    }
    auto& blk = blocks_[blk_idx];
    const std::uint32_t ppn = blk_idx * units_per_block_ + blk.next_unit;
    blk.next_unit += units_per_stripe_;
    if (blk.next_unit >= units_per_block_) {
      // No dead check here: the caller is about to map this stripe into the
      // block, which leaves at least one valid unit, so an emptied block is
      // caught when its count next reaches zero.
      blk.state = Block::State::kSealed;
      gc_refresh(blk_idx);  // becomes a victim candidate
    }
    stream.rr = (die + 1) % dies_;
    return ppn;
  }
  return kNone;
}

void Ftl::write_runs(const Run* runs, std::size_t nruns, std::uint32_t units,
                     sim::UniqueCallback done) {
  PAS_CHECK(nruns > 0);
  PAS_CHECK(units > 0 && units <= units_per_stripe_);
  PAS_CHECK(done != nullptr);
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < nruns; ++r) {
    PAS_CHECK(runs[r].first + runs[r].len <= total_lpns_);
    total += runs[r].len;
  }
  PAS_CHECK(total == units);
  ensure_tables();
  // Preserve FIFO order with any writes already stalled on free space.
  if (!stalled_writes_.empty() || !try_write_runs(runs, units, done)) {
    StalledWrite s;
    if (!stalled_spare_.empty()) {
      s = std::move(stalled_spare_.back());
      stalled_spare_.pop_back();
    }
    s.runs.assign(runs, runs + nruns);
    s.units = units;
    s.done = std::move(done);
    stalled_writes_.push_back(std::move(s));
    gc_pump();
  }
}

bool Ftl::try_write_runs(const Run* runs, std::uint32_t units, sim::UniqueCallback& done) {
  gc_pump();
  const std::uint32_t ppn_start = allocate_stripe(host_stream_, /*for_gc=*/false);
  if (ppn_start == kNone) return false;

  const Run* run = runs;
  std::uint32_t k = 0;
  map_stripe(ppn_start, units, [&] {
    while (k == run->len) {
      ++run;
      k = 0;
    }
    return run->first + k++;
  });
  stats_.host_units_written += units;
  ++stats_.nand_programs;

  nand::NandOp op;
  op.kind = nand::OpKind::kProgram;
  op.die = die_of_block(block_of(ppn_start));
  op.transfer_bytes = units * config_.sector_bytes;
  op.done = std::move(done);
  issue_(std::move(op));
  return true;
}

std::uint32_t Ftl::fanin_create(std::size_t count, sim::UniqueCallback done) {
  std::uint32_t idx;
  if (fanin_free_ != kNone) {
    idx = fanin_free_;
    fanin_free_ = fanins_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(fanins_.size());
    fanins_.emplace_back();
  }
  auto& f = fanins_[idx];
  f.remaining = count;
  f.done = std::move(done);
  return idx;
}

void Ftl::fanin_complete(std::uint32_t idx) {
  auto& f = fanins_[idx];
  PAS_CHECK(f.remaining > 0);
  if (--f.remaining > 0) return;
  // Free the slot before running the continuation: the cascade may start a
  // new batch that reuses it.
  sim::UniqueCallback done = std::move(f.done);
  f.next_free = fanin_free_;
  fanin_free_ = idx;
  done();
}

// Adds one unit to pages_scratch_, coalescing with an existing entry for the
// same page. Kept in insertion order: NAND ops must issue in a portable,
// deterministic order (hash-map iteration order is stdlib-specific, and
// issue order decides both the per-op power-jitter RNG pairing and
// same-timestamp event sequence). A host read's ppns arrive in any order, so
// a unit on a new page scans the whole list, newest entry first: a host read
// is at most a few dozen pages, and consecutive units mostly share a page.
void Ftl::add_page_unit(std::uint64_t key, int die) {
  for (auto p = pages_scratch_.rbegin(); p != pages_scratch_.rend(); ++p) {
    if (p->key == key) {
      p->units += 1;
      return;
    }
  }
  pages_scratch_.push_back(PageRef{key, die, 1});
}

// add_page_unit for keys that arrive in ascending order: a unit's page is
// the last one added or a new one, so nothing before the last entry is read.
void Ftl::append_page_unit(std::uint64_t key, int die) {
  if (!pages_scratch_.empty() && pages_scratch_.back().key == key) {
    pages_scratch_.back().units += 1;
  } else {
    pages_scratch_.push_back(PageRef{key, die, 1});
  }
}

// Coalesces one mapping unit into pages_scratch_; unmapped units optionally
// read from a pseudo location (preconditioned-drive behaviour).
void Ftl::add_read_unit(std::uint64_t lpn) {
  PAS_CHECK(lpn < total_lpns_);
  if (const std::uint32_t entry = map_[lpn]; entry != 0) {
    const std::uint32_t ppn = entry - 1;
    add_page_unit(page_of(ppn), die_of_block(block_of(ppn)));
  } else if (config_.unmapped_read_hits_media) {
    const std::uint64_t pseudo_page = mix64(lpn / units_per_page_);
    // Tag pseudo pages so they never collide with real page keys.
    add_page_unit((1ULL << 63) | pseudo_page,
                  static_cast<int>(pseudo_page % static_cast<std::uint64_t>(dies_)));
  }
}

void Ftl::issue_page_reads(sim::UniqueCallback done) {
  if (pages_scratch_.empty()) {
    done();
    return;
  }
  // Single-page batches (the common host case) skip the fan-in counter and
  // carry the continuation in the op itself.
  const std::uint32_t fanin = pages_scratch_.size() > 1
                                  ? fanin_create(pages_scratch_.size(), std::move(done))
                                  : kNone;
  for (const auto& p : pages_scratch_) {
    ++stats_.nand_page_reads;
    nand::NandOp op;
    op.kind = nand::OpKind::kRead;
    op.die = p.die;
    op.transfer_bytes = p.units * config_.sector_bytes;
    if (fanin == kNone) {
      op.done = std::move(done);
    } else {
      op.done = [this, fanin] { fanin_complete(fanin); };
    }
    issue_(std::move(op));
  }
}

void Ftl::read_runs(const Run* runs, std::size_t nruns, sim::UniqueCallback done) {
  PAS_CHECK(nruns > 0);
  PAS_CHECK(done != nullptr);
  ensure_tables();
  pages_scratch_.clear();
  for (std::size_t r = 0; r < nruns; ++r) {
    for (std::uint32_t k = 0; k < runs[r].len; ++k) add_read_unit(runs[r].first + k);
  }
  issue_page_reads(std::move(done));
}

void Ftl::note_possibly_dead(std::uint32_t blk_idx) {
  auto& blk = blocks_[blk_idx];
  if (blk.state != Block::State::kSealed || blk.valid != 0 || blk.queued_dead) return;
  blk.queued_dead = true;
  gc_refresh(blk_idx);  // dead blocks leave the victim index
  dead_blocks_.push_back(blk_idx);
  consecutive_defers_ = 0;  // fresh reclaim supply: lazy GC can keep waiting
}

void Ftl::gc_pump() {
  // Erase pipeline: reclaim fully-invalid blocks up to the high watermark.
  constexpr int kMaxConcurrentErases = 4;
  while (erases_in_flight_ < kMaxConcurrentErases && !dead_blocks_.empty() &&
         static_cast<int>(total_free_blocks_) + erases_in_flight_ <
             config_.gc_high_watermark_blocks) {
    const std::uint32_t blk = dead_blocks_.front();
    dead_blocks_.pop_front();
    issue_erase(blk);
  }
  // Move path: only when space is low and the erase pipeline has nothing.
  constexpr int kMaxConcurrentMoves = 4;
  if (static_cast<int>(total_free_blocks_) >= config_.gc_low_watermark_blocks) return;
  if (erases_in_flight_ > 0 || !dead_blocks_.empty()) return;
  if (moves_in_flight_ >= kMaxConcurrentMoves) return;
  const bool desperate = total_free_blocks_ <= kHostReserveBlocks + 1;
  if (!desperate && consecutive_defers_ < 50) {
    // Lazy GC: every candidate victim still holds valid data and space is
    // not critical. The host is typically mid-way through invalidating the
    // best victim (sequential sweeps and hot ranges kill blocks within
    // milliseconds), so a short wait usually yields a free erase instead of
    // an expensive move — the classic fix for over-eager greedy collection.
    // Bounded, so a quiet drive still makes forward progress.
    if (gc_defer_armed_) return;
    gc_defer_armed_ = true;
    ++consecutive_defers_;
    defer_(milliseconds(2), [this] {
      gc_defer_armed_ = false;
      gc_pump();
    });
    return;
  }
  consecutive_defers_ = 0;
  while (moves_in_flight_ < kMaxConcurrentMoves) {
    const int before = moves_in_flight_;
    start_move();
    if (moves_in_flight_ == before) break;  // no further victim available
  }
}

void Ftl::issue_erase(std::uint32_t blk_idx) {
  auto& blk = blocks_[blk_idx];
  PAS_CHECK(blk.state == Block::State::kSealed);
  PAS_CHECK(blk.valid == 0);
  ++erases_in_flight_;
  nand::NandOp op;
  op.kind = nand::OpKind::kErase;
  op.die = die_of_block(blk_idx);
  op.transfer_bytes = 0;
  op.priority = true;
  op.done = [this, blk_idx] {
    --erases_in_flight_;
    auto& b = blocks_[blk_idx];
    b.state = Block::State::kFree;
    b.queued_dead = false;
    b.moving = false;
    b.next_unit = 0;
    ++stats_.erases;
    free_lists_[static_cast<std::size_t>(die_of_block(blk_idx))].push_back(blk_idx);
    ++total_free_blocks_;
    drain_stalled();
    gc_pump();
  };
  issue_(std::move(op));
}

std::uint32_t Ftl::victim_pick_indexed() {
  if (!tables_ready_) return kNoVictim;
  while (gc_min_bucket_ < gc_head_.size() && gc_head_[gc_min_bucket_] == kNone) {
    ++gc_min_bucket_;
  }
  if (gc_min_bucket_ >= gc_head_.size()) return kNoVictim;  // no candidate
  // Bucket lists are head-inserted and therefore unordered; scanning the
  // (small) minimum bucket for the lowest block index reproduces the legacy
  // linear scan's first-lowest-index tie-break exactly.
  std::uint32_t best = kNoVictim;
  for (std::uint32_t b = gc_head_[gc_min_bucket_]; b != kNone; b = gc_next_[b]) {
    best = std::min(best, b);
  }
  return best;
}

std::uint32_t Ftl::victim_scan_linear() const {
  // The retired O(blocks) scan, kept verbatim as the reference the bucketed
  // index is tested against.
  std::uint32_t victim = kNoVictim;
  std::uint32_t best_valid = 0xFFFFFFFFu;
  for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
    const auto& blk = blocks_[i];
    if (blk.state != Block::State::kSealed || blk.queued_dead || blk.moving) continue;
    if (blk.valid < best_valid) {
      best_valid = blk.valid;
      victim = i;
    }
  }
  return victim;
}

std::vector<Ftl::MovePair> Ftl::gc_vec_take() {
  if (gc_vec_pool_.empty()) return {};
  auto v = std::move(gc_vec_pool_.back());
  gc_vec_pool_.pop_back();
  return v;
}

void Ftl::gc_vec_put(std::vector<MovePair> v) {
  v.clear();
  gc_vec_pool_.push_back(std::move(v));
}

void Ftl::start_move() {
  // Greedy victim: sealed block with the fewest valid units, via the
  // valid-count bucket index (O(min-bucket) instead of O(blocks)).
  const std::uint32_t victim = victim_pick_indexed();
  if (victim == kNoVictim) return;  // nothing sealed: wait for seals
  const std::uint32_t best_valid = blocks_[victim].valid;
  // Moving must gain at least one stripe of net free space, or GC would
  // churn data forever on a logically-full drive without freeing anything.
  if (best_valid + units_per_stripe_ > units_per_block_) return;
  ++stats_.gc_runs;
  ++moves_in_flight_;
  auto& blk = blocks_[victim];
  blk.moving = true;
  gc_refresh(victim);  // mid-move blocks leave the victim index
  PAS_CHECK(blk.valid > 0);  // dead blocks go through the erase pipeline
  // Snapshot the valid units, then read the pages that hold them. The scan
  // walks the block's bitmap a word at a time in ascending ppn order, so
  // each page coalesces against the last entry alone, and the page list
  // comes out in ascending page order: one pass over the victim.
  std::vector<MovePair> pairs = gc_vec_take();
  pairs.reserve(blk.valid);
  pages_scratch_.clear();
  const int die = die_of_block(victim);
  for_each_valid(block_first_ppn(victim), units_per_block_, [&](std::uint32_t ppn) {
    pairs.emplace_back(rmap_[ppn], ppn);
    append_page_unit(page_of(ppn), die);
  });
  const std::uint32_t fanin =
      fanin_create(pages_scratch_.size(), [this, pairs = std::move(pairs), victim]() mutable {
        gc_move_batch(std::move(pairs), victim, nullptr);
      });
  for (const auto& p : pages_scratch_) {
    ++stats_.nand_page_reads;
    nand::NandOp op;
    op.kind = nand::OpKind::kRead;
    op.die = p.die;
    op.transfer_bytes = p.units * config_.sector_bytes;
    op.priority = true;  // reclaim must not starve behind host traffic
    op.done = [this, fanin] { fanin_complete(fanin); };
    issue_(std::move(op));
  }
}

void Ftl::gc_move_batch(std::vector<MovePair> pairs, std::uint32_t victim_blk,
                        std::shared_ptr<int> programs_left) {
  if (programs_left == nullptr) programs_left = std::make_shared<int>(1);  // batch guard
  auto finish_move = [this, victim_blk] {
    blocks_[victim_blk].moving = false;
    gc_refresh(victim_blk);  // back in the index if still sealed with survivors
    --moves_in_flight_;
    note_possibly_dead(victim_blk);
    gc_pump();
  };
  std::size_t i = 0;
  std::vector<MovePair> chunk = gc_vec_take();
  while (i < pairs.size()) {
    // Assemble one stripe of still-valid units; drop units the host
    // overwrote while the GC read was in flight.
    chunk.clear();
    while (i < pairs.size() && chunk.size() < units_per_stripe_) {
      const auto& [lpn, old_ppn] = pairs[i];
      ++i;
      if (map_[lpn] == old_ppn + 1) chunk.push_back({lpn, old_ppn});
    }
    if (chunk.empty()) continue;
    const std::uint32_t ppn_start = allocate_stripe(gc_stream_, /*for_gc=*/true);
    if (ppn_start == kNone) {
      // Concurrent reclaim transiently exhausted the pool: retry the rest of
      // this batch once in-flight erases release blocks. The batch guard on
      // `programs_left` keeps the move alive across the retry.
      std::vector<MovePair> rest = gc_vec_take();
      rest.reserve(chunk.size() + (pairs.size() - i));
      rest.insert(rest.end(), chunk.begin(), chunk.end());
      rest.insert(rest.end(), pairs.begin() + static_cast<std::ptrdiff_t>(i), pairs.end());
      gc_vec_put(std::move(chunk));
      gc_vec_put(std::move(pairs));
      defer_(milliseconds(2), [this, rest = std::move(rest), victim_blk, programs_left]() mutable {
        gc_move_batch(std::move(rest), victim_blk, programs_left);
      });
      return;
    }
    // Every unit of the chunk is still mapped to its victim ppn, so
    // map_stripe replaces exactly those.
    auto next = chunk.begin();
    map_stripe(ppn_start, static_cast<std::uint32_t>(chunk.size()),
               [&] { return (next++)->first; });
    stats_.gc_units_moved += chunk.size();
    ++stats_.nand_programs;
    ++*programs_left;
    nand::NandOp op;
    op.kind = nand::OpKind::kProgram;
    op.die = die_of_block(block_of(ppn_start));
    op.transfer_bytes = static_cast<std::uint32_t>(chunk.size()) * config_.sector_bytes;
    op.priority = true;
    op.done = [programs_left, finish_move] {
      if (--*programs_left == 0) finish_move();
    };
    issue_(std::move(op));
  }
  gc_vec_put(std::move(chunk));
  gc_vec_put(std::move(pairs));
  // Release the batch guard; if no programs remain (or none were needed —
  // everything was overwritten while the reads ran), the move is done.
  if (--*programs_left == 0) finish_move();
}

void Ftl::drain_stalled() {
  while (!stalled_writes_.empty()) {
    auto& s = stalled_writes_.front();
    if (!try_write_runs(s.runs.data(), s.units, s.done)) return;
    stalled_spare_.push_back(std::move(s));  // recycle the run-vector capacity
    stalled_writes_.pop_front();
  }
}

void Ftl::precondition_sequential() {
  ensure_tables();
  for (std::uint64_t lpn = 0; lpn < total_lpns_; lpn += units_per_stripe_) {
    const std::uint32_t ppn_start = allocate_stripe(host_stream_, /*for_gc=*/false);
    PAS_CHECK(ppn_start != kNone);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(units_per_stripe_, total_lpns_ - lpn));
    std::uint64_t next = lpn;
    map_stripe(ppn_start, n, [&] { return next++; });
  }
}

std::string Ftl::audit() const {
  if (!tables_ready_) return {};
  const auto nblocks = static_cast<std::uint32_t>(blocks_.size());
  const std::uint32_t total_punits = nblocks * units_per_block_;
  auto at = [](const char* what, std::uint64_t i) { return what + std::to_string(i); };

  // Map and reverse map: every mapped lpn points at a valid ppn that maps
  // back to it. rmap_ is single-valued, so no two lpns share a ppn, and
  // equal totals of mapped lpns and valid units make it a bijection.
  std::uint64_t mapped = 0;
  for (std::uint64_t lpn = 0; lpn < total_lpns_; ++lpn) {
    if (map_[lpn] == 0) continue;
    ++mapped;
    const std::uint32_t ppn = map_[lpn] - 1;
    if (ppn >= total_punits || !test_valid(ppn)) {
      return at("map_ points at an invalid ppn: lpn ", lpn);
    }
    if (rmap_[ppn] != lpn) return at("rmap_ disagrees with map_: lpn ", lpn);
  }
  std::uint64_t valid_units = 0;
  for (std::uint32_t blk = 0; blk < nblocks; ++blk) {
    std::uint32_t popcount = 0;
    for_each_valid(block_first_ppn(blk), units_per_block_, [&](std::uint32_t) { ++popcount; });
    if (popcount != blocks_[blk].valid) {
      return at("valid count differs from bitmap popcount: block ", blk);
    }
    valid_units += popcount;
  }
  if (valid_units != mapped) return at("valid units no lpn maps to: ", valid_units - mapped);

  // GC index: walk every bucket list, checking links, then require that a
  // block is listed exactly when it is a candidate, in its count's bucket.
  std::vector<std::uint32_t> bucket_of(nblocks, kNone);
  for (std::uint32_t v = 0; v < gc_head_.size(); ++v) {
    if (gc_head_[v] != kNone && v < gc_min_bucket_) {
      return at("candidate below the min-bucket hint: bucket ", v);
    }
    std::uint32_t prev = kGcHead;
    for (std::uint32_t b = gc_head_[v]; b != kNone; prev = b, b = gc_next_[b]) {
      if (b >= nblocks || bucket_of[b] != kNone) return at("GC index list corrupt: bucket ", v);
      if (gc_prev_[b] != prev) return at("GC index back link wrong: block ", b);
      bucket_of[b] = v;
    }
  }
  for (std::uint32_t blk = 0; blk < nblocks; ++blk) {
    const auto& b = blocks_[blk];
    const bool candidate = b.state == Block::State::kSealed && !b.queued_dead && !b.moving;
    if (candidate != (bucket_of[blk] != kNone)) {
      return at("GC index membership wrong: block ", blk);
    }
    if (candidate && bucket_of[blk] != b.valid) {
      return at("block in the wrong GC bucket: block ", blk);
    }
    if (!candidate && gc_prev_[blk] != kNone) {
      return at("unlisted block marked indexed: block ", blk);
    }
  }

  for (const std::uint32_t blk : dead_blocks_) {
    if (!blocks_[blk].queued_dead || blocks_[blk].valid != 0) {
      return at("dead-queued block holds valid units: block ", blk);
    }
  }
  return {};
}

}  // namespace pas::ssd
