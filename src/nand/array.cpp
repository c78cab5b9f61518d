#include "nand/array.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pas::nand {

NandArray::NandArray(sim::Simulator& sim, const NandConfig& config, std::uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {
  PAS_CHECK(config_.channels > 0);
  PAS_CHECK(config_.dies_per_channel > 0);
  PAS_CHECK(config_.channel_mib_s > 0.0);
  dies_.resize(static_cast<std::size_t>(config_.total_dies()));
  channels_.resize(static_cast<std::size_t>(config_.channels));
}

Watts NandArray::jittered(Watts nominal) {
  if (config_.p_die_sigma <= 0.0) return nominal;
  const double factor =
      std::clamp(1.0 + rng_.next_gaussian(0.0, config_.p_die_sigma), 0.5, 1.5);
  return nominal * factor;
}

TimeNs NandArray::transfer_time(std::uint32_t bytes) const {
  if (bytes == 0) return 0;
  const double secs = static_cast<double>(bytes) / (config_.channel_mib_s * static_cast<double>(MiB));
  return std::max<TimeNs>(1, seconds(secs));
}

void NandArray::submit(NandOp&& op) {
  PAS_CHECK(op.die >= 0 && op.die < config_.total_dies());
  PAS_CHECK(op.done != nullptr);
  if (op.kind == OpKind::kErase) {
    PAS_CHECK(op.transfer_bytes == 0);
  } else {
    PAS_CHECK(op.transfer_bytes > 0);
    PAS_CHECK(op.transfer_bytes <= config_.stripe_bytes());
  }
  ++outstanding_;
  const int die_idx = op.die;
  const bool priority = op.priority;
  const std::uint32_t slot = alloc_slot(std::move(op));
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  if (priority && die.busy) {
    // Behind the in-flight op (front) but ahead of everything queued.
    die.queue.insert_second(slot);
  } else {
    die.queue.push_back(slot);
  }
  if (!die.busy) start_next(die_idx);
}

std::uint32_t NandArray::alloc_slot(NandOp&& op) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(op));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(op);
  return slot;
}

void NandArray::schedule_event(TimeNs delay, int die_idx) {
  sim_.schedule_after(delay, [this, die_idx] { on_event(die_idx); });
}

void NandArray::start_next(int die_idx) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  PAS_CHECK(!die.busy);
  if (die.queue.empty()) return;
  die.busy = true;
  ++busy_dies_;
  switch (slots_[die.queue.front()].kind) {
    case OpKind::kRead:
      die.stage = Stage::kSense;
      set_die_draw(die_idx, jittered(config_.p_die_read_w));
      schedule_event(config_.t_read, die_idx);
      return;
    case OpKind::kProgram:
      die.stage = Stage::kProgramTransfer;
      acquire_channel(die_idx);
      return;
    case OpKind::kErase:
      die.stage = Stage::kErase;
      set_die_draw(die_idx, jittered(config_.p_die_erase_w));
      schedule_event(config_.t_erase, die_idx);
      return;
  }
}

void NandArray::on_event(int die_idx) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  switch (die.stage) {
    case Stage::kSense:  // sense done; wait for the channel
      set_die_draw(die_idx, 0.0);
      die.stage = Stage::kReadTransfer;
      acquire_channel(die_idx);
      return;
    case Stage::kReadTransfer:
      release_channel(channel_of(die_idx));
      finish(die_idx);
      return;
    case Stage::kProgramTransfer:
      release_channel(channel_of(die_idx));
      die.stage = Stage::kProgram;
      set_die_draw(die_idx, jittered(config_.p_die_program_w));
      schedule_event(config_.t_program, die_idx);
      return;
    case Stage::kProgram:
    case Stage::kErase:
      set_die_draw(die_idx, 0.0);
      finish(die_idx);
      return;
  }
}

void NandArray::finish(int die_idx) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  const std::uint32_t slot = die.queue.front();
  die.queue.pop_front();
  die.busy = false;
  --busy_dies_;
  ++completed_ops_;
  --outstanding_;
  // Free the slot before the completion runs: it may submit into it.
  sim::UniqueCallback done = std::move(slots_[slot].done);
  free_slots_.push_back(slot);
  // Complete the op before starting the next so completion-driven
  // submissions interleave fairly.
  done();
  if (!die.busy) start_next(die_idx);
}

void NandArray::set_die_draw(int die_idx, Watts w) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  if (die.draw == w) return;
  power_ += w - die.draw;
  die.draw = w;
  recompute_power();
}

void NandArray::acquire_channel(int die_idx) {
  auto& channel = channels_[static_cast<std::size_t>(channel_of(die_idx))];
  if (channel.busy) {
    channel.waiters.push_back(die_idx);
    return;
  }
  channel.busy = true;
  ++busy_channels_;
  power_ += config_.p_channel_xfer_w;
  recompute_power();
  start_transfer(die_idx);
}

void NandArray::start_transfer(int die_idx) {
  const auto& die = dies_[static_cast<std::size_t>(die_idx)];
  const std::uint32_t bytes = slots_[die.queue.front()].transfer_bytes;
  transferred_bytes_ += bytes;
  schedule_event(transfer_time(bytes), die_idx);
}

void NandArray::release_channel(int ch) {
  auto& channel = channels_[static_cast<std::size_t>(ch)];
  PAS_CHECK(channel.busy);
  if (!channel.waiters.empty()) {
    const int next = channel.waiters.front();
    channel.waiters.pop_front();
    // Channel stays busy (power unchanged); hand it to the next transfer
    // before the releasing die moves on.
    start_transfer(next);
    return;
  }
  channel.busy = false;
  --busy_channels_;
  power_ -= config_.p_channel_xfer_w;
  recompute_power();
}

void NandArray::recompute_power() {
  if (power_ < 1e-12) power_ = 0.0;  // absorb float residue
  if (on_power_change_) on_power_change_();
}

}  // namespace pas::nand
