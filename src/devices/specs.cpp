#include "devices/specs.h"

#include "common/check.h"

namespace pas::devices {

const char* label(DeviceId id) {
  switch (id) {
    case DeviceId::kSsd1: return "SSD1";
    case DeviceId::kSsd2: return "SSD2";
    case DeviceId::kSsd3: return "SSD3";
    case DeviceId::kHdd: return "HDD";
    case DeviceId::kEvo860: return "860EVO";
  }
  return "?";
}

const char* model_name(DeviceId id) {
  switch (id) {
    case DeviceId::kSsd1: return "Samsung PM9A3";
    case DeviceId::kSsd2: return "Intel D7-P5510";
    case DeviceId::kSsd3: return "Intel D3-P4510";
    case DeviceId::kHdd: return "Seagate Exos 7E2000";
    case DeviceId::kEvo860: return "Samsung 860 EVO";
  }
  return "?";
}

ssd::SsdConfig ssd1_pm9a3() {
  ssd::SsdConfig c;
  c.name = "SSD1 (Samsung PM9A3)";
  c.capacity_bytes = 16 * GiB;

  c.nand.channels = 8;
  c.nand.dies_per_channel = 4;
  c.nand.planes_per_die = 4;
  c.nand.page_bytes = 16 * KiB;
  c.nand.t_read = microseconds(55);
  c.nand.t_program = microseconds(520);
  c.nand.t_erase = milliseconds(3);
  c.nand.channel_mib_s = 1400.0;
  c.nand.p_die_read_w = 0.28;
  c.nand.p_die_program_w = 0.11;
  c.nand.p_die_erase_w = 0.20;
  c.nand.p_channel_xfer_w = 0.30;

  // Host PCIe3 x4 (the paper's testbed limits read bandwidth to ~3.5 GiB/s).
  c.link_mib_s = 3400.0;
  c.p_link_idle_w = 1.2;
  c.p_link_active_extra_w = 0.3;

  c.p_ctrl_static_w = 2.3;  // idle = 2.3 + 1.2 = 3.5 W (Table 1 minimum)
  c.p_cmd_proc_w = 0.50;
  c.cmd_cores = 2;
  c.t_proc_read = microseconds(1.5);
  c.t_proc_write = microseconds(4.0);
  c.t_fw_read = microseconds(6);
  c.t_fw_write = microseconds(8);
  c.vr_loss_w_per_w2 = 0.02;

  c.write_buffer_bytes = 64 * MiB;
  c.destage_batch_bytes = 24 * MiB;
  // "A similar trend in the impact of the power cap ... is also seen for
  // SSD1" (section 3.2.1): three operational states.
  c.power_states = {{0.0, 1.0, 1.0}, {7.0, 1.0, 0.80}, {6.0, 1.0, 0.60}};
  return c;
}

ssd::SsdConfig ssd2_p5510() {
  ssd::SsdConfig c;
  c.name = "SSD2 (Intel D7-P5510)";
  c.capacity_bytes = 16 * GiB;

  c.nand.channels = 8;
  c.nand.dies_per_channel = 4;
  c.nand.planes_per_die = 4;
  c.nand.page_bytes = 16 * KiB;
  c.nand.t_read = microseconds(70);
  c.nand.t_program = microseconds(600);
  c.nand.t_erase = milliseconds(3);
  c.nand.channel_mib_s = 1200.0;
  c.nand.p_die_read_w = 0.13;
  c.nand.p_die_program_w = 0.23;
  c.nand.p_die_erase_w = 0.25;
  c.nand.p_channel_xfer_w = 0.30;

  c.link_mib_s = 3200.0;
  c.p_link_idle_w = 1.8;
  c.p_link_active_extra_w = 0.4;

  c.p_ctrl_static_w = 3.2;  // idle = 3.2 + 1.8 = 5.0 W (Table 1 minimum)
  c.p_cmd_proc_w = 0.9;
  c.cmd_cores = 1;
  c.t_proc_read = microseconds(1.5);
  c.t_proc_write = microseconds(2.2);
  c.t_fw_read = microseconds(6);
  c.t_fw_write = microseconds(8);
  c.vr_loss_w_per_w2 = 0.031;

  c.write_buffer_bytes = 64 * MiB;
  c.destage_batch_bytes = 24 * MiB;
  // Section 3.2.1: "SSD2 implements three power caps: ps0 limits maximum
  // power to below 25 W (the maximum device power), ps1 to 12 W, ps2 to 10 W."
  c.power_states = {{25.0, 1.0, 1.0}, {12.0, 1.0, 0.75}, {10.0, 1.0, 0.55}};
  return c;
}

ssd::SsdConfig ssd3_p4510() {
  ssd::SsdConfig c;
  c.name = "SSD3 (Intel D3-P4510)";
  c.capacity_bytes = 8 * GiB;

  c.nand.channels = 2;
  c.nand.dies_per_channel = 4;
  c.nand.planes_per_die = 4;
  c.nand.page_bytes = 16 * KiB;
  c.nand.t_read = microseconds(70);
  c.nand.t_program = microseconds(600);
  c.nand.t_erase = milliseconds(3);
  c.nand.channel_mib_s = 800.0;
  c.nand.p_die_read_w = 0.10;
  c.nand.p_die_program_w = 0.34;
  c.nand.p_die_erase_w = 0.22;
  c.nand.p_channel_xfer_w = 0.25;

  // SATA 3.
  c.link_mib_s = 530.0;
  c.p_link_idle_w = 0.25;
  c.p_link_active_extra_w = 0.25;

  c.p_ctrl_static_w = 0.75;  // idle = 1.0 W (Table 1 minimum)
  c.p_cmd_proc_w = 0.45;
  c.cmd_cores = 1;
  c.t_proc_read = microseconds(2.5);
  c.t_proc_write = microseconds(10.0);
  c.t_fw_read = microseconds(10);
  c.t_fw_write = microseconds(12);
  c.vr_loss_w_per_w2 = 0.075;

  c.write_buffer_bytes = 32 * MiB;
  c.destage_batch_bytes = 8 * MiB;
  c.power_states = {};  // SATA: no NVMe power states
  return c;
}

ssd::SsdConfig evo860() {
  ssd::SsdConfig c;
  c.name = "Samsung 860 EVO";
  c.capacity_bytes = 8 * GiB;

  c.nand.channels = 2;
  c.nand.dies_per_channel = 2;
  c.nand.planes_per_die = 2;
  c.nand.page_bytes = 16 * KiB;
  c.nand.t_read = microseconds(80);
  c.nand.t_program = microseconds(700);
  c.nand.t_erase = milliseconds(3.5);
  c.nand.channel_mib_s = 640.0;
  c.nand.p_die_read_w = 0.12;
  c.nand.p_die_program_w = 0.40;
  c.nand.p_die_erase_w = 0.30;
  c.nand.p_channel_xfer_w = 0.20;

  c.link_mib_s = 530.0;
  c.p_link_idle_w = 0.10;
  c.p_link_active_extra_w = 0.20;

  c.p_ctrl_static_w = 0.25;  // idle = 0.35 W (section 3.2.2)
  c.p_ctrl_slumber_w = 0.12;
  c.p_link_slumber_w = 0.05;  // SLUMBER total = 0.17 W (section 3.2.2)
  c.p_cmd_proc_w = 0.35;
  c.cmd_cores = 1;
  c.t_proc_read = microseconds(3);
  c.t_proc_write = microseconds(3.5);
  c.t_fw_read = microseconds(15);
  c.t_fw_write = microseconds(18);
  c.vr_loss_w_per_w2 = 0.05;

  c.write_buffer_bytes = 16 * MiB;
  c.destage_batch_bytes = 4 * MiB;
  c.power_states = {};
  // Figure 7: the EVO transitions within 0.5 s with a transient power bump.
  c.alpm_supported = true;
  c.alpm_entry_time = milliseconds(250);
  c.alpm_exit_time = milliseconds(120);
  c.p_alpm_transition_w = 1.2;
  return c;
}

hdd::HddConfig hdd_exos_7e2000() {
  hdd::HddConfig c;
  c.name = "HDD (Seagate Exos 7E2000)";
  c.capacity_bytes = 2 * TiB;
  c.rpm = 7200.0;
  c.zones = 16;
  c.outer_mib_s = 210.0;
  c.inner_mib_s = 105.0;
  c.seek_settle = microseconds(800);
  c.seek_full_extra = milliseconds(12.6);  // avg seek ~ 8.1 ms at d = 1/3
  c.track_switch = microseconds(900);
  c.cache_bytes = 128 * MiB;
  c.link_mib_s = 530.0;
  // Idle = 1.60 + 2.16 = 3.76 W; peak seek+transfer = 5.31 W; standby 1.05 W
  // (section 3.2.2: standby 1.1 W vs 3.76 W idle; Table 1: 1 - 5.3 W).
  c.p_electronics_w = 1.60;
  c.p_spindle_w = 2.16;
  c.p_seek_w = 1.30;
  c.p_transfer_w = 0.25;
  c.p_standby_w = 1.05;
  c.p_spinup_w = 5.30;
  c.spinup_time = seconds(8);
  c.spindown_time = seconds(1.5);
  return c;
}

double rail_voltage(DeviceId id) {
  switch (id) {
    case DeviceId::kSsd1:
    case DeviceId::kSsd2:
    case DeviceId::kHdd:
      return 12.0;  // U.2 / 3.5" drives are powered from the 12 V rail
    case DeviceId::kSsd3:
    case DeviceId::kEvo860:
      return 5.0;  // 2.5" SATA SSDs draw from the 5 V rail
  }
  return 12.0;
}

power::RigConfig rig_for(DeviceId id) {
  power::RigConfig rc;
  rc.rail_voltage_v = rail_voltage(id);
  return rc;
}

std::unique_ptr<ssd::SsdDevice> make_ssd(DeviceId id, sim::Simulator& sim, std::uint64_t seed) {
  ssd::SsdConfig c;
  switch (id) {
    case DeviceId::kSsd1:
      c = ssd1_pm9a3();
      break;
    case DeviceId::kSsd2:
      c = ssd2_p5510();
      break;
    case DeviceId::kSsd3:
      c = ssd3_p4510();
      break;
    case DeviceId::kEvo860:
      c = evo860();
      break;
    case DeviceId::kHdd:
      PAS_CHECK_MSG(false, "not an SSD");
      return nullptr;
  }
  return std::make_unique<ssd::SsdDevice>(sim, std::move(c), seed);
}

std::unique_ptr<hdd::HddDevice> make_hdd(sim::Simulator& sim, std::uint64_t seed) {
  return std::make_unique<hdd::HddDevice>(sim, hdd_exos_7e2000(), seed);
}

DeviceBundle make_device(sim::Simulator& sim, DeviceId id, std::uint64_t seed) {
  DeviceBundle b;
  b.id = id;
  b.seed = seed;
  if (id == DeviceId::kHdd) {
    auto hdd = make_hdd(sim, seed);
    b.hdd = hdd.get();
    b.pm = hdd.get();
    b.device = std::move(hdd);
  } else {
    auto ssd = make_ssd(id, sim, seed);
    b.ssd = ssd.get();
    b.pm = ssd.get();
    b.device = std::move(ssd);
  }
  b.nvme = std::make_unique<devmgmt::NvmeAdmin>(*b.pm);
  b.alpm = std::make_unique<devmgmt::SataAlpm>(*b.pm);
  // The rig draws its imperfect chain constants from its own RNG at
  // construction and schedules nothing until start(), so building it here
  // leaves the simulator timeline untouched.
  b.rig = std::make_unique<power::MeasurementRig>(sim, *b.device, rig_for(id),
                                                  seed ^ kRigNoiseSeedMix);
  return b;
}

}  // namespace pas::devices
