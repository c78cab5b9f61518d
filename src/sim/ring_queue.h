// Never-shrinking circular FIFO for the datapath's waiter queues, from
// callbacks of 80 B and more (resource and governor waiters) down to 4 B
// indices (NAND die queues and channel waiters).
//
// std::deque allocates a 512 B chunk every few pushes when its size
// oscillates across a chunk boundary — every ~6 pushes for an 80 B callback —
// which would dominate the datapath's otherwise allocation-free steady
// state. This queue doubles to its peak capacity once and then recycles
// slots forever.
//
// T must be default-constructible and move-assignable. References returned by
// front()/back()/operator[] are invalidated by any push (growth reallocates).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace pas::sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() {
    PAS_DCHECK(count_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    PAS_DCHECK(count_ > 0);
    return slots_[head_];
  }
  T& back() {
    PAS_DCHECK(count_ > 0);
    return slots_[wrap(head_ + count_ - 1)];
  }
  T& operator[](std::size_t i) {
    PAS_DCHECK(i < count_);
    return slots_[wrap(head_ + i)];
  }

  void push_back(T v) {
    grow_if_full();
    slots_[wrap(head_ + count_)] = std::move(v);
    ++count_;
  }

  void push_front(T v) {
    grow_if_full();
    head_ = wrap(head_ + slots_.size() - 1);
    slots_[head_] = std::move(v);
    ++count_;
  }

  // Inserts behind the front element (NAND priority ops land behind the op
  // the die is executing but ahead of everything queued). The value arrives
  // by parameter, so passing std::move(front()) is safe across growth.
  void insert_second(T v) {
    PAS_DCHECK(count_ >= 1);
    push_front(std::move(slots_[head_]));
    slots_[wrap(head_ + 1)] = std::move(v);
  }

  // Resets the slot so popped payloads (callbacks) release immediately
  // instead of lingering until the slot is overwritten.
  void pop_front() {
    PAS_DCHECK(count_ > 0);
    slots_[head_] = T();
    head_ = wrap(head_ + 1);
    --count_;
  }

 private:
  // Capacity is always a power of two, so wrap is a mask.
  std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

  void grow_if_full() {
    if (count_ < slots_.size()) return;
    std::vector<T> next(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(slots_[wrap(head_ + i)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pas::sim
