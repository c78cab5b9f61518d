// Structures for the SSD write-buffer bookkeeping.
//
// The device keeps the destage order as runs (RunFifo: one append per host
// write) and buffer occupancy in a per-unit bitmap (BufferedUnits: one OR
// per 64 units). A hash map keyed by 4 KiB mapping unit would cost 64
// inserts on admission and 64 erases on destage per 256 KiB write, and a
// probe per unit per read. An ordered map of equal-count spans would take
// one operation per run, but each would be two cache-cold red-black-tree
// descents plus splits and merges, and a rand 4 KiB QD1 run keeps up to
// 16 384 disjoint spans in a 64 MiB buffer; the bitmap answers the same
// questions with a word OR, AND or scan at an address computed from the
// unit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/check.h"
#include "sim/ring_queue.h"

namespace pas::ssd {

// One contiguous run of logical mapping units: [first, first + len).
struct Run {
  std::uint64_t first = 0;
  std::uint32_t len = 0;
};

// FIFO of buffered logical units awaiting destage, stored as coalesced runs.
// Expanding the runs in order reproduces the exact per-unit arrival
// sequence, so stripe assembly (pop_units) hands the FTL the same lpn
// sequence a per-unit queue would — including duplicate lpns from
// overlapping writes, which never coalesce (a merge requires strict
// first+len == next contiguity).
class RunFifo {
 public:
  bool empty() const { return runs_.empty(); }
  std::uint64_t units() const { return units_; }

  void push(std::uint64_t first, std::uint32_t len) {
    PAS_CHECK(len > 0);
    units_ += len;
    if (!runs_.empty()) {
      Run& back = runs_.back();
      if (back.first + back.len == first) {
        back.len += len;
        return;
      }
    }
    runs_.push_back(Run{first, len});
  }

  // Pops exactly `n` units off the front, appending them to `out` as runs.
  // `n` units span at most `n` runs, so once `out` holds a run and must grow,
  // it grows straight to that bound: a vector reused for stripes of one size
  // reallocates at most twice, and one that only ever takes a single run
  // stays at one.
  void pop_units(std::uint32_t n, std::vector<Run>& out) {
    PAS_CHECK(n <= units_);
    units_ -= n;
    const std::size_t most = out.size() + n;
    while (n > 0) {
      if (out.size() == out.capacity() && !out.empty()) out.reserve(most);
      Run& front = runs_.front();
      if (front.len <= n) {
        n -= front.len;
        out.push_back(front);
        runs_.pop_front();
      } else {
        out.push_back(Run{front.first, n});
        front.first += n;
        front.len -= n;
        n = 0;
      }
    }
  }

 private:
  sim::RingQueue<Run> runs_;
  std::uint64_t units_ = 0;
};

// Write-buffer occupancy per logical unit: how many copies of each unit sit
// in the buffer awaiting destage (overlapping writes buffer a unit more than
// once). A bitmap holds one bit per unit, set while at least one copy is
// buffered; `ExtraCopies` counts the copies beyond the first for the few
// units buffered more than once. `add` and `remove` work a 64-bit word at a
// time and probe the table only for units already buffered (add) or holding
// extra copies (remove); a read scans the bits a word at a time. The bitmap
// (512 KiB for a 16 GiB drive) comes zeroed from calloc on the first add, so
// a drive that is only read or monitored pays nothing.
class BufferedUnits {
 public:
  explicit BufferedUnits(std::uint64_t units) : units_(units), extra_((units + 63) / 64) {}

  // Buffers one more copy of each unit in [first, first + n).
  void add(std::uint64_t first, std::uint64_t n) {
    check_range(first, n);
    if (bits_ == nullptr) bits_ = zeroed<std::uint64_t>((units_ + 63) / 64);
    for_each_word(first, n, [this](std::uint64_t w, std::uint64_t mask) {
      std::uint64_t again = bits_[w] & mask;  // units already buffered
      bits_[w] |= mask;
      for (; again != 0; again &= again - 1) {
        extra_.add(w * 64 + static_cast<std::uint64_t>(std::countr_zero(again)));
      }
    });
  }

  // Drops one copy of each unit in [first, first + n). Every unit in the
  // range must currently be buffered.
  void remove(std::uint64_t first, std::uint64_t n) {
    check_range(first, n);
    PAS_CHECK(bits_ != nullptr);
    for_each_word(first, n, [this](std::uint64_t w, std::uint64_t mask) {
      PAS_CHECK((bits_[w] & mask) == mask);
      std::uint64_t clear = mask;
      if (extra_.in_word(w)) {
        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
          const int b = std::countr_zero(m);
          // A unit with an extra copy keeps its bit.
          if (extra_.drop(w * 64 + static_cast<std::uint64_t>(b))) {
            clear &= ~(std::uint64_t{1} << b);
          }
        }
      }
      bits_[w] &= ~clear;
    });
  }

  // Invokes emit(first, len) for each maximal sub-run of [first, first + n)
  // with no buffered copy, in ascending order. The device uses this to route
  // the unbuffered part of a host read to NAND.
  template <typename Emit>
  void for_each_unbuffered(std::uint64_t first, std::uint64_t n, Emit&& emit) const {
    check_range(first, n);
    const std::uint64_t end = first + n;
    if (bits_ == nullptr) {
      emit(first, n);
      return;
    }
    std::uint64_t pos = first;
    while (pos < end) {
      const std::uint64_t start = find(pos, end, /*buffered=*/false);
      if (start == end) return;
      pos = find(start, end, /*buffered=*/true);
      emit(start, pos - start);
    }
  }

 private:
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using Table = std::unique_ptr<T[], FreeDeleter>;

  template <typename T>
  static Table<T> zeroed(std::uint64_t n) {
    Table<T> t(static_cast<T*>(std::calloc(n, sizeof(T))));
    PAS_CHECK_MSG(t != nullptr, "out of memory for the write-buffer index");
    return t;
  }

  // Open-addressing map from unit to its extra buffered copies, plus a count
  // per 64-unit word of the units it holds there, so `remove` can skip the
  // table for words without any. Linear probing at load <= 1/2; erasing
  // shifts the rest of the probe chain back instead of leaving tombstones, so
  // chains stay short under churn. The slot array only grows, so steady-state
  // traffic never allocates.
  class ExtraCopies {
   public:
    explicit ExtraCopies(std::uint64_t words) : words_(words) {}

    // True when some unit of word `w` has an extra copy.
    bool in_word(std::uint64_t w) const { return size_ != 0 && per_word_[w] != 0; }

    // Adds one extra copy of `unit`.
    void add(std::uint64_t unit) {
      if (2 * (size_ + 1) > slots_.size()) grow();
      std::size_t i = home(unit);
      for (; slots_[i].unit != kEmpty; i = (i + 1) & mask_) {
        if (slots_[i].unit == unit) {
          ++slots_[i].extra;
          return;
        }
      }
      slots_[i] = Slot{unit, 1};
      ++size_;
      ++per_word_[unit / 64];
    }

    // Drops one extra copy of `unit`; false when it had none. Only valid
    // when in_word(unit / 64), which also guarantees the slots exist.
    bool drop(std::uint64_t unit) {
      std::size_t i = home(unit);
      for (; slots_[i].unit != unit; i = (i + 1) & mask_) {
        if (slots_[i].unit == kEmpty) return false;
      }
      if (--slots_[i].extra == 0) {
        erase_at(i);
        --per_word_[unit / 64];
      }
      return true;
    }

   private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    struct Slot {
      std::uint64_t unit;
      std::uint64_t extra;
    };

    std::size_t home(std::uint64_t unit) const {
      return static_cast<std::size_t>((unit * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    // Backward-shift deletion: walks the chain after slot i and moves back
    // every entry whose home does not lie cyclically in (i, j].
    void erase_at(std::size_t i) {
      for (std::size_t j = (i + 1) & mask_; slots_[j].unit != kEmpty; j = (j + 1) & mask_) {
        if (((j - home(slots_[j].unit)) & mask_) >= ((j - i) & mask_)) {
          slots_[i] = slots_[j];
          i = j;
        }
      }
      slots_[i].unit = kEmpty;
      --size_;
    }

    void grow() {
      if (per_word_ == nullptr) per_word_ = zeroed<std::uint8_t>(words_);
      std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()), Slot{kEmpty, 0});
      old.swap(slots_);
      mask_ = slots_.size() - 1;
      shift_ = 64 - std::countr_zero(slots_.size());
      for (const Slot& s : old) {
        if (s.unit == kEmpty) continue;
        std::size_t i = home(s.unit);
        while (slots_[i].unit != kEmpty) i = (i + 1) & mask_;
        slots_[i] = s;
      }
    }

    std::uint64_t words_;
    Table<std::uint8_t> per_word_;  // units held, per 64-unit word
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
  };

  void check_range(std::uint64_t first, std::uint64_t n) const {
    PAS_CHECK(n > 0 && first < units_ && n <= units_ - first);
  }

  // Calls f(word, mask) for each 64-unit word [first, first + n) touches,
  // `mask` selecting the word's units inside the range.
  template <typename F>
  static void for_each_word(std::uint64_t first, std::uint64_t n, F&& f) {
    const std::uint64_t last = (first + n - 1) / 64;
    for (std::uint64_t w = first / 64; w <= last; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w == first / 64) mask <<= first % 64;
      if (w == last) mask &= ~std::uint64_t{0} >> (63 - (first + n - 1) % 64);
      f(w, mask);
    }
  }

  // First unit in [from, end) whose bit equals `buffered`, or `end`.
  std::uint64_t find(std::uint64_t from, std::uint64_t end, bool buffered) const {
    const std::uint64_t flip = buffered ? 0 : ~std::uint64_t{0};
    std::uint64_t w = from / 64;
    std::uint64_t word = (bits_[w] ^ flip) & (~std::uint64_t{0} << (from % 64));
    while (word == 0) {
      if (++w * 64 >= end) return end;
      word = bits_[w] ^ flip;
    }
    return std::min(end, w * 64 + static_cast<std::uint64_t>(std::countr_zero(word)));
  }

  std::uint64_t units_;
  Table<std::uint64_t> bits_;  // bit set: at least one copy buffered
  ExtraCopies extra_;
};

}  // namespace pas::ssd
