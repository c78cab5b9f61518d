// Micro-benchmarks (google-benchmark) of measurement-rig sampling: a fleet
// of 1 / 10 / 100 rigs over power-toggling devices, advanced one simulated
// second at 1 kHz and the rack's decimated 100 Hz.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "power/energy_meter.h"
#include "power/rig.h"
#include "sim/block_device.h"
#include "sim/simulator.h"

namespace pas {
namespace {

// Minimal instrumentable device: controllable power, no IO path.
class BenchDevice : public sim::BlockDevice {
 public:
  explicit BenchDevice(sim::Simulator& sim) : sim_(sim), meter_(sim.now(), 2.5) {}

  void set_power(Watts w) { meter_.set_power(sim_.now(), w); }

  const std::string& name() const override { return name_; }
  std::uint64_t capacity_bytes() const override { return 1ULL << 30; }
  std::uint32_t sector_bytes() const override { return 4096; }
  void submit(const sim::IoRequest&, sim::IoCallback) override {}
  Watts instantaneous_power() const override { return meter_.power(); }
  Joules consumed_energy() const override { return meter_.energy_at(sim_.now()); }
  sim::PowerSegment power_segment() const override { return meter_.segment(); }
  void set_power_observer(sim::PowerObserver* o) override { meter_.set_observer(o); }

 private:
  sim::Simulator& sim_;
  power::EnergyMeter meter_;
  std::string name_ = "bench";
};

// One simulated second: `rigs` rigs sampling at `period`, every device
// stepping its power on an off-grid 5 ms-ish cadence (the interesting
// regime: power changes are ~5-50x sparser than 1 kHz ADC ticks).
void BM_RigSegmentLazy(benchmark::State& state) {
  const std::size_t rigs = static_cast<std::size_t>(state.range(0));
  const TimeNs period = microseconds(state.range(1));
  const TimeNs horizon = seconds(1);
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<BenchDevice>> devs;
    std::vector<std::unique_ptr<power::MeasurementRig>> fleet;
    power::RigConfig rc;
    rc.sample_period = period;
    for (std::size_t d = 0; d < rigs; ++d) {
      devs.push_back(std::make_unique<BenchDevice>(sim));
      fleet.push_back(
          std::make_unique<power::MeasurementRig>(sim, *devs[d], rc, d + 1));
      BenchDevice* dev = devs[d].get();
      for (TimeNs t = microseconds(997); t < horizon; t += microseconds(4993)) {
        const Watts w = ((t / microseconds(4993)) % 2 == 0) ? 7.5 : 2.5;
        sim.schedule_at(t, [dev, w] { dev->set_power(w); });
      }
    }
    for (auto& r : fleet) r->start();
    sim.run_until(horizon);
    for (auto& r : fleet) r->stop();
    benchmark::DoNotOptimize(fleet[0]->trace().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rigs) *
                          (horizon / period));
}
BENCHMARK(BM_RigSegmentLazy)
    ->Args({1, 1000})
    ->Args({10, 1000})
    ->Args({100, 1000})
    ->Args({1, 10000})
    ->Args({10, 10000})
    ->Args({100, 10000});

}  // namespace
}  // namespace pas

BENCHMARK_MAIN();
