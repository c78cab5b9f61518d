// Discrete-event simulation kernel.
//
// The whole library runs on simulated time: devices, workload generators
// (open-loop arrivals included), and the measurement rig all schedule
// callbacks here, so step() and run_until() advance everything and nothing
// waits outside the queue. Events with equal timestamps fire in scheduling
// order (a sequence number that rises with every schedule breaks ties), the
// one ordering rule, which makes every run deterministic.
//
// Internals (see DESIGN.md "Event-kernel internals"): callbacks live in a
// paged slab of fixed-size slots recycled through a free list, EventIds carry
// a generation tag so cancel() is an O(1) slot probe and a stale id from a
// reused slot safely returns false, and the ready queue is one index-based
// 4-ary min-heap with lazy deletion of cancelled entries. The schedule and
// fire paths are header-inline on purpose: schedule_at() constructs the
// caller's capture directly into its slab slot, and fire_next() runs the
// callback in place, so the hot loop does no callback moves and no heap
// allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/callback.h"

namespace pas::sim {

class Simulator {
 public:
  using Callback = UniqueCallback;
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute simulated time `t` (>= now). The
  // callable is constructed directly into its event slot.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(TimeNs t, F&& cb) {
    PAS_CHECK_MSG(t >= now_, "cannot schedule into the past");
    // Reject empty std::functions / null function pointers up front, like the
    // kernel always has; plain lambdas are never null and skip the branch.
    if constexpr (std::is_constructible_v<bool, std::decay_t<F>&>) {
      PAS_CHECK_MSG(static_cast<bool>(cb), "null callback");
    }
    std::uint32_t idx;
    Slot& s = alloc_slot(idx);
    s.cb.construct(std::forward<F>(cb));  // slot callbacks are always empty here
    const EventId id = make_id(idx, s.gen);
    heap_push(t, next_seq_++, id);
    ++live_;
    return id;
  }

  // Schedules `cb` to run `delay` nanoseconds from now (>= 0).
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_after(TimeNs delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event. Returns false if it already ran or was cancelled.
  bool cancel(EventId id) {
    const std::uint32_t idx = slot_of(id);
    // kInvalidEvent decodes to idx 0xFFFFFFFF, which always fails the range
    // check; a stale id from a recycled slot fails the generation check.
    if (idx >= slot_count_) return false;
    Slot& s = slot(idx);
    if (s.gen != gen_of(id)) return false;
    s.cb.reset();
    release_slot(idx);
    --live_;
    ++stale_in_heap_;  // the heap entry stays behind as a tombstone
    if (stale_in_heap_ >= 64 && stale_in_heap_ * 2 >= heap_size_) {
      prune_heap();
    }
    return true;
  }

  // Runs the next pending event, advancing time to it. Returns false if none.
  bool step() { return fire_next(std::numeric_limits<TimeNs>::max()); }

  // Runs all events with timestamp <= t, then sets now() to exactly t.
  void run_until(TimeNs t) {
    PAS_CHECK(t >= now_);
    while (fire_next(t)) {
    }
    now_ = t;
  }

  // Runs until the event queue drains.
  void run_to_completion() {
    while (fire_next(std::numeric_limits<TimeNs>::max())) {
    }
  }

  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  // A scheduled (or free) event slot. `gen` is bumped every time the slot's
  // occupancy ends, so an EventId minted for an earlier occupancy can never
  // match again; `next_free` threads the free list while the slot is vacant.
  // `gen` leads so the cancel/fire probe and the callback's dispatch pointer
  // share the slot's first cache line; `next_free` is only meaningful while
  // the slot sits on the free list, so it starts uninitialized.
  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t next_free;
    Callback cb;
  };

  // The ready queue orders by (t, seq): `seq` increments per schedule, giving
  // same-timestamp FIFO. It is stored structure-of-arrays — timestamps in
  // `heap_t_`, (seq, id) in `heap_meta_` — so the child scans of the 4-ary
  // sift read one contiguous 32-byte run of timestamps instead of striding
  // over 24-byte records; the seq tie-break is only loaded on equal stamps.
  struct Meta {
    std::uint64_t seq;
    EventId id;
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // Heap arity: 4 children per node halves the depth of a binary heap while
  // a full node's timestamps still fit one 32-byte scan; 8-ary measured
  // slower here (more compares per level than the depth saving pays for).
  static constexpr std::size_t kArityShift = 2;
  static constexpr std::size_t kArity = std::size_t{1} << kArityShift;

  // Slots live in fixed-size pages so their addresses are stable: the kernel
  // can run a callback in place (no per-fire move of the 80-byte callback)
  // while that callback schedules new events, and page growth never touches
  // existing slots.
  static constexpr std::uint32_t kPageShift = 8;
  static constexpr std::uint32_t kPageSize = 1u << kPageShift;  // slots per page
  static constexpr std::uint32_t kPageMask = kPageSize - 1;

  // EventId layout: generation in the high 32 bits, slot index + 1 in the low
  // 32 (the +1 keeps kInvalidEvent = 0 unreachable).
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }

  // (t, seq) is a total order — seq is unique per schedule — so heap pop
  // order, and therefore event execution order, is fully deterministic.
  bool entry_before(std::size_t a, std::size_t b) const {
    if (heap_t_[a] != heap_t_[b]) return heap_t_[a] < heap_t_[b];
    return heap_meta_[a].seq < heap_meta_[b].seq;
  }
  bool key_before(TimeNs t, std::uint64_t seq, std::size_t b) const {
    if (t != heap_t_[b]) return t < heap_t_[b];
    return seq < heap_meta_[b].seq;
  }

  // Both heap arrays always share one size/capacity, so a push pays a single
  // bounds check (vs one per std::vector) and pops are a bare decrement.

  // Slots are lazily placement-constructed into raw page storage: a fresh
  // page costs one allocation, not kPageSize constructor runs, and only the
  // slots actually used are ever touched.
  Slot& slot(std::uint32_t idx) {
    return *std::launder(reinterpret_cast<Slot*>(
        pages_[idx >> kPageShift].get() + sizeof(Slot) * (idx & kPageMask)));
  }
  const Slot& slot(std::uint32_t idx) const {
    return *std::launder(reinterpret_cast<const Slot*>(
        pages_[idx >> kPageShift].get() + sizeof(Slot) * (idx & kPageMask)));
  }

  bool id_live(EventId id) const { return slot(slot_of(id)).gen == gen_of(id); }

  Slot& alloc_slot(std::uint32_t& idx) {
    if (free_head_ != kNoSlot) {
      idx = free_head_;
      Slot& s = slot(idx);
      free_head_ = s.next_free;
      return s;
    }
    idx = slot_count_++;
    if ((idx & kPageMask) == 0) grow_pages();
    return *::new (static_cast<void*>(pages_[idx >> kPageShift].get() +
                                      sizeof(Slot) * (idx & kPageMask))) Slot();
  }

  void release_slot(std::uint32_t idx) {
    Slot& s = slot(idx);
    ++s.gen;  // invalidate every outstanding id minted for this occupancy
    s.next_free = free_head_;
    free_head_ = idx;
  }

  // The single skip/fire path shared by step()/run_until()/
  // run_to_completion(): drops cancelled entries off the root lazily, then
  // fires the earliest live event if its timestamp is <= limit. Returns false
  // (firing nothing) when the queue drains or the next event is past `limit`.
  bool fire_next(TimeNs limit) {
    while (heap_size_ != 0) {
      const TimeNs top_t = heap_t_[0];
      const EventId top_id = heap_meta_[0].id;
      const std::uint32_t idx = slot_of(top_id);
      Slot& s = slot(idx);
      if (s.gen != gen_of(top_id)) {  // cancelled: lazy removal
        heap_pop_root();
        --stale_in_heap_;
        continue;
      }
      if (top_t > limit) return false;
      heap_pop_root();
      // Bump the generation *before* invoking so a cancel() of the
      // now-running id returns false, but keep the slot off the free list
      // until the callback returns: its captures stay valid in place (pages
      // never move) and no new schedule can overwrite them, so the callback
      // is never moved on the fire path.
      ++s.gen;
      --live_;
      now_ = top_t;
      ++executed_;
      s.cb.invoke_and_reset();
      s.next_free = free_head_;
      free_head_ = idx;
      return true;
    }
    return false;
  }

  void heap_push(TimeNs t, std::uint64_t seq, EventId id) {
    if (heap_size_ == heap_cap_) grow_heap();
    std::size_t i = heap_size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> kArityShift;
      if (!key_before(t, seq, parent)) break;
      heap_t_[i] = heap_t_[parent];
      heap_meta_[i] = heap_meta_[parent];
      i = parent;
    }
    heap_t_[i] = t;
    heap_meta_[i] = Meta{seq, id};
  }

  void heap_pop_root() {
    const std::size_t n = --heap_size_;
    const TimeNs back_t = heap_t_[n];
    const Meta back_m = heap_meta_[n];
    if (n == 0) return;
    // Bottom-up (Wegener) pop: walk the hole to a leaf along min-children —
    // no compare against the displaced element per level — then place the
    // former back element there and bubble it up, which is usually zero
    // steps since the freshest entry almost always belongs near a leaf.
    TimeNs* const t = heap_t_.get();
    Meta* const m = heap_meta_.get();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = (hole << kArityShift) + 1;
      if (first + (kArity - 1) < n) {  // full node: fixed 4-way min scan
        static_assert(kArity == 4, "update the unrolled scan with the arity");
        std::size_t best = first;
        if (entry_before(first + 1, best)) best = first + 1;
        if (entry_before(first + 2, best)) best = first + 2;
        if (entry_before(first + 3, best)) best = first + 3;
        t[hole] = t[best];
        m[hole] = m[best];
        hole = best;
        continue;
      }
      if (first >= n) break;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (entry_before(c, best)) best = c;
      }
      t[hole] = t[best];
      m[hole] = m[best];
      hole = best;
      break;  // a partial (last) node's children would start past n
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> kArityShift;
      if (!key_before(back_t, back_m.seq, parent)) break;
      t[hole] = t[parent];
      m[hole] = m[parent];
      hole = parent;
    }
    t[hole] = back_t;
    m[hole] = back_m;
  }

  void grow_pages();
  void grow_heap();
  void sift_down(std::size_t i);
  void prune_heap();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;          // scheduled, not yet fired or cancelled
  std::size_t stale_in_heap_ = 0; // cancelled entries awaiting lazy removal
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;
  std::vector<std::unique_ptr<unsigned char[]>> pages_;  // raw Slot storage
  std::unique_ptr<TimeNs[]> heap_t_;
  std::unique_ptr<Meta[]> heap_meta_;
  std::size_t heap_size_ = 0;
  std::size_t heap_cap_ = 0;
};

// Repeats a callback every `period` until stop() or the owning simulator
// drains. Used for ADC sampling ticks and governor accounting windows.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, TimeNs period, Simulator::Callback cb);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  bool running() const { return !stopped_; }
  // Re-times the task; only while stopped (the pending tick would be stale).
  void set_period(TimeNs period) {
    PAS_CHECK_MSG(stopped_, "set_period on a running task");
    PAS_CHECK(period > 0);
    period_ = period;
  }

 private:
  // The rearm closure is this pointer-sized struct, not a fresh lambda over
  // the user callback: `cb_` is constructed once and each tick only copies
  // `this` into the scheduler.
  struct Tick {
    PeriodicTask* task;
    void operator()() const { task->tick(); }
  };

  void arm();
  void tick();

  Simulator& sim_;
  TimeNs period_;
  Simulator::Callback cb_;
  Simulator::EventId pending_ = Simulator::kInvalidEvent;
  bool stopped_ = true;
};

}  // namespace pas::sim
