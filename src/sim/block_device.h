// Abstract block device, the boundary between the IO generator / host stack
// and the device models (pas::ssd::SsdDevice, pas::hdd::HddDevice).
//
// Devices also expose their ground-truth instantaneous power draw; the
// measurement rig (pas::power) samples it through a modeled shunt + ADC
// chain, exactly as the paper's physical rig samples a drive's power rails.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "sim/callback.h"
#include "sim/power_signal.h"

namespace pas::sim {

enum class IoOp : std::uint8_t { kRead, kWrite, kFlush };

inline const char* to_string(IoOp op) {
  switch (op) {
    case IoOp::kRead: return "read";
    case IoOp::kWrite: return "write";
    case IoOp::kFlush: return "flush";
  }
  return "?";
}

struct IoRequest {
  IoOp op = IoOp::kRead;
  std::uint64_t offset = 0;  // bytes; must be sector-aligned
  std::uint32_t bytes = 0;   // length; must be sector-aligned (0 ok for flush)
};

struct IoCompletion {
  IoRequest request;
  TimeNs submit_time = 0;
  TimeNs complete_time = 0;

  TimeNs latency() const { return complete_time - submit_time; }
};

// Move-only with inline storage (sim/callback.h): a completion traverses the
// device pipeline by relocation, never by wrapping in a fresh heap closure.
// The 24-byte buffer keeps sizeof(IoCallback) at 32 — the footprint of the
// std::function it replaced — so the HDD's per-stage capture
// ({this, PendingOp} = 8 + 64 bytes) still rides inline in the kernel's
// event slots; completion lambdas capturing more than 24 bytes pay one heap
// allocation at submit, exactly as they did under std::function.
using IoCallback = UniqueFunction<void(const IoCompletion&), 24>;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual const std::string& name() const = 0;
  virtual std::uint64_t capacity_bytes() const = 0;
  virtual std::uint32_t sector_bytes() const = 0;

  // Submits an asynchronous IO. The callback fires on the simulator at
  // completion time. Devices accept any number of outstanding requests;
  // internal queueing is part of the model.
  virtual void submit(const IoRequest& req, IoCallback done) = 0;

  // Ground-truth instantaneous power draw at the current simulated time.
  virtual Watts instantaneous_power() const = 0;

  // Ground-truth energy consumed since construction, integrated exactly over
  // the piecewise-constant power signal. Used by conservation tests to
  // validate the sampled measurement path.
  virtual Joules consumed_energy() const = 0;

  // The meter's current segment (see sim/power_signal.h):
  // consumed_energy() == power_segment() evaluated at now, bit for bit.
  // Devices that can host a measurement rig override both methods (the real
  // models delegate to their EnergyMeter); the defaults abort loudly so a
  // rig attached to a device without a segment stream cannot silently
  // produce wrong samples. Plain IO test doubles need not override.
  virtual PowerSegment power_segment() const;

  // Registers the single observer notified on every power update (nullptr
  // detaches). The measurement rig attaches here while running; devices must
  // abort if a second distinct observer tries to attach.
  virtual void set_power_observer(PowerObserver* observer);
};

inline PowerSegment BlockDevice::power_segment() const {
  PAS_CHECK_MSG(false, "device does not publish a power-segment stream");
  return PowerSegment{};
}

inline void BlockDevice::set_power_observer(PowerObserver*) {
  PAS_CHECK_MSG(false, "device does not publish a power-segment stream");
}

}  // namespace pas::sim
