// SSD device configuration: host interface, controller, write buffer, NVMe
// power states, SATA link power management, and the NAND backend.
//
// Calibrated instances for the paper's devices live in src/devices/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "nand/config.h"

namespace pas::ssd {

// One NVMe operational power state: caps the average device power over any
// 10-second window (NVM Express Base spec, section 8.15).
struct SsdPowerState {
  Watts cap_w = 0.0;        // 0 means uncapped
  double ctrl_speed = 1.0;  // relative controller clock in this state
  // Relative speed of the write datapath (DMA engines, buffer/parity logic)
  // in this state. Firmware derates the power-hungry write path while
  // keeping the read path at full speed, which is why the paper measures
  // up to 2x random-write latency under ps2 (Figure 5) but no change for
  // reads (Figure 6).
  double write_speed = 1.0;
};

struct SsdConfig {
  std::string name = "ssd";

  // Logical geometry. Simulated capacity is smaller than the marketed drives
  // (the FTL map is held in host memory); experiments address a 4 GiB region
  // as the paper's fio jobs do, so results are unaffected. See DESIGN.md.
  std::uint64_t capacity_bytes = 16 * GiB;
  double overprovision = 0.125;  // physical = logical * (1 + overprovision)
  std::uint32_t sector_bytes = 4096;

  nand::NandConfig nand;

  // Host link (PCIe x4 Gen3 or SATA 3). One transfer at a time.
  double link_mib_s = 3200.0;
  Watts p_link_idle_w = 1.0;          // PHY in L0 / PHY ready
  Watts p_link_active_extra_w = 0.4;  // added while data moves
  Watts p_link_slumber_w = 0.05;      // ALPM SLUMBER

  // Controller.
  Watts p_ctrl_static_w = 3.0;   // controller + DRAM floor while operational
  Watts p_ctrl_slumber_w = 0.1;  // retained logic in SLUMBER
  Watts p_cmd_proc_w = 0.9;      // per busy firmware core
  int cmd_cores = 2;
  TimeNs t_proc_read = microseconds(1.5);   // per-command core occupancy
  TimeNs t_proc_write = microseconds(2.2);
  TimeNs t_fw_read = microseconds(6);       // fixed pipeline latency (not a
  TimeNs t_fw_write = microseconds(8);      // throughput limit)

  // Power-delivery loss: dissipation rises superlinearly with load because
  // voltage-regulator efficiency drops at high current. Modeled as
  // loss = vr_loss_w_per_w2 * (dynamic power)^2 and calibrated against the
  // throughput ratios the paper reports across power states.
  double vr_loss_w_per_w2 = 0.0;

  // Power-loss-protected DRAM write buffer.
  std::uint64_t write_buffer_bytes = 64 * MiB;
  // Buffered data older than this destages even in a partial stripe.
  TimeNs destage_idle_timeout = milliseconds(1);
  // Flush scheduling: firmware destages in batches — it waits for this much
  // buffered data, then drains the buffer before pausing again. The
  // resulting NAND duty cycles are a large part of the millisecond-scale
  // power variability in the paper's Figure 2a. 0 = destage continuously.
  std::uint64_t destage_batch_bytes = 0;

  // NVMe-style power states; index 0 is ps0. Empty => single uncapped state.
  std::vector<SsdPowerState> power_states;

  // NVMe caps average power over a 10 s window. The governor's burst
  // allowance is cap * governor_burst_seconds; firmware keeps it far below
  // the window so even short bursts stay near the cap.
  double governor_burst_seconds = 0.01;
  // Once the budget is exhausted the governor pauses NAND issue until this
  // many cap-seconds of credit accumulate (coarse duty-cycled enforcement).
  double governor_hysteresis_seconds = 0.002;

  // DMA segmentation: one command's data moves as segments whose descriptor
  // round-trips pipeline across commands but serialize within one. This adds
  // per-command latency for large chunks at low queue depth without limiting
  // aggregate throughput (visible in the paper's section 3.3 example: SSD1
  // at qd1 / 256 KiB keeps only ~60% of its qd64 write throughput).
  std::uint32_t dma_segment_bytes = 32 * KiB;
  TimeNs t_dma_segment_gap = microseconds(5);

  // Autonomous low-power entry (NVMe APST / host ALPM policy): after the
  // device has been fully idle for this long, it enters the SLUMBER-class
  // low-power state by itself. 0 disables (the paper drives transitions with
  // explicit commands; autonomous entry is the deployment-mode extension).
  TimeNs auto_idle_timeout = 0;

  // SATA aggressive link power management.
  bool alpm_supported = false;
  TimeNs alpm_entry_time = milliseconds(250);
  TimeNs alpm_exit_time = milliseconds(120);
  Watts p_alpm_transition_w = 1.1;  // transient draw while (de)activating

  // Garbage collection watermarks, in free superblocks across the device.
  int gc_low_watermark_blocks = 16;
  int gc_high_watermark_blocks = 24;

  // Reads of never-written LBAs behave like media reads from a pseudo
  // location (models a preconditioned drive); when false they complete from
  // the controller without touching NAND.
  bool unmapped_read_hits_media = true;

  // Background housekeeping (metadata journaling, patrol reads, wear
  // leveling): short NAND bursts issued while the host keeps the device
  // busy, deferred when idle. Together with per-op NAND power variation this
  // produces the millisecond-scale power variability the paper's Figure 2
  // shows; throughput impact is <1%.
  bool bg_activity = true;
  TimeNs bg_mean_interval = milliseconds(30);
  int bg_burst_ops = 18;

  std::uint64_t physical_bytes() const {
    return static_cast<std::uint64_t>(static_cast<double>(capacity_bytes) *
                                      (1.0 + overprovision));
  }
};

}  // namespace pas::ssd
