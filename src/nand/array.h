// Event-driven model of a NAND flash array: dies execute read / program /
// erase operations serially, channels serialize data transfers among their
// dies, and the array reports the instantaneous power of everything active.
//
// The FTL (pas::ssd) decides *where* data lives; this model only provides
// timing and power for operations addressed to a die.
//
// Operation phasing follows real NAND command flow:
//   read:    [die: sense t_read] -> [channel: transfer out]
//   program: [channel: transfer in] -> [die: program t_program]
//   erase:   [die: erase t_erase]
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "nand/config.h"
#include "sim/callback.h"
#include "sim/ring_queue.h"
#include "sim/simulator.h"

namespace pas::nand {

enum class OpKind : std::uint8_t { kRead, kProgram, kErase };

struct NandOp {
  OpKind kind = OpKind::kRead;
  int die = 0;                   // global die index [0, total_dies)
  std::uint32_t transfer_bytes = 0;  // data moved over the channel (0 for erase)
  // Priority ops (GC reclaim) jump ahead of queued host ops on their die, as
  // firmware must reclaim space promptly even under host write floods.
  bool priority = false;
  // Fires when the op fully completes. The array moves it out of the op's
  // slot, and frees the slot, before invoking it.
  sim::UniqueCallback done;
};

class NandArray {
 public:
  NandArray(sim::Simulator& sim, const NandConfig& config, std::uint64_t seed = 1);

  // Enqueues an operation on its die. Ops on one die execute in FIFO order.
  // The op is moved into a pooled slot once and stays there until it
  // completes.
  void submit(NandOp&& op);

  // Ground-truth instantaneous draw of dies + channels.
  Watts instantaneous_power() const { return power_; }

  // Invoked whenever instantaneous_power() changes (device recomputes its
  // total and updates its energy meter).
  void set_power_listener(std::function<void()> cb) { on_power_change_ = std::move(cb); }

  const NandConfig& config() const { return config_; }

  // Observability for tests and stats.
  int busy_dies() const { return busy_dies_; }
  int busy_channels() const { return busy_channels_; }
  std::size_t queued_ops(int die) const { return dies_[static_cast<std::size_t>(die)].queue.size(); }
  std::uint64_t completed_ops() const { return completed_ops_; }
  std::uint64_t transferred_bytes() const { return transferred_bytes_; }
  // Total outstanding (queued + in flight) ops across all dies.
  std::size_t outstanding() const { return outstanding_; }

 private:
  // What a busy die's in-flight op (its queue's front) waits on. A transfer
  // stage is entered when the die asks for its channel, so it covers both
  // the wait for the channel and the transfer itself.
  enum class Stage : std::uint8_t { kSense, kReadTransfer, kProgramTransfer, kProgram, kErase };
  struct Die {
    sim::RingQueue<std::uint32_t> queue;  // slot indices; front is in flight while busy
    Stage stage = Stage::kSense;
    bool busy = false;
    Watts draw = 0.0;
  };
  struct Channel {
    sim::RingQueue<int> waiters;  // dies waiting to transfer, FIFO
    bool busy = false;
  };

  int channel_of(int die) const { return die / config_.dies_per_channel; }
  TimeNs transfer_time(std::uint32_t bytes) const;
  // Per-op power with the configured variation applied.
  Watts jittered(Watts nominal);

  std::uint32_t alloc_slot(NandOp&& op);
  // Every event the array schedules is [this, die] { on_event(die); }, and
  // on_event ends the die's current stage and enters the next one.
  void schedule_event(TimeNs delay, int die_idx);
  void on_event(int die_idx);
  void start_next(int die_idx);
  void finish(int die_idx);
  void set_die_draw(int die_idx, Watts w);
  void acquire_channel(int die_idx);
  void start_transfer(int die_idx);
  void release_channel(int ch);
  void recompute_power();

  sim::Simulator& sim_;
  NandConfig config_;
  Rng rng_;
  std::vector<Die> dies_;
  std::vector<Channel> channels_;
  // Slot table: every queued or in-flight op, recycled through a LIFO free
  // list, so it grows to the peak number outstanding and then stays put.
  std::vector<NandOp> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::function<void()> on_power_change_;
  Watts power_ = 0.0;
  int busy_dies_ = 0;
  int busy_channels_ = 0;
  std::size_t outstanding_ = 0;
  std::uint64_t completed_ops_ = 0;
  std::uint64_t transferred_bytes_ = 0;
};

}  // namespace pas::nand
