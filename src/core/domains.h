// Power-domain hierarchy with breaker protection (paper section 4.1).
//
// "A power-adaptive storage system could be designed for incremental
// deployment at the sub-rack granularity, i.e., below the lowest tier of
// the data center power hierarchy. Local failures of the storage system to
// control power can safely be identified before a failure threatens to
// exceed the power budget of rack-level breakers. ... small-scale test
// deployments should be distributed among power domains so that coordinated
// failures of deployments to reduce power do not overwhelm a single domain."
//
// PowerDomain models one node of that hierarchy: it aggregates live device
// draw, and a BreakerMonitor trips when the sustained draw exceeds the
// breaker rating — cutting everything below it (devices read as 0 W and
// reject IO, like a real branch-circuit trip). Tests demonstrate the
// section's deployment guidance: distributing deployments across domains
// contains the blast radius of a misbehaving power controller.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/block_device.h"
#include "sim/simulator.h"

namespace pas::core {

class PowerDomain {
 public:
  // breaker_limit_w <= 0 means unprotected (no breaker at this level).
  PowerDomain(std::string name, Watts breaker_limit_w);

  const std::string& name() const { return name_; }
  Watts breaker_limit() const { return breaker_limit_w_; }

  // Hierarchy construction.
  PowerDomain* add_subdomain(std::string name, Watts breaker_limit_w);
  void attach(sim::BlockDevice* device);

  const std::vector<std::unique_ptr<PowerDomain>>& subdomains() const { return children_; }
  const std::vector<sim::BlockDevice*>& devices() const { return devices_; }

  // Live aggregate draw of everything under this domain. A tripped domain
  // draws nothing.
  Watts draw() const;

  bool tripped() const { return tripped_; }
  // Trips this domain's breaker: every device beneath it loses power.
  void trip();
  // Manual reset (an operator closing the breaker).
  void reset();

  // True when this domain or any ancestor is tripped; devices in a tripped
  // domain must not be sent IO (the caller checks powered(device)).
  bool powered() const { return !tripped_; }

  // Finds the domain containing a device (depth first), or nullptr.
  PowerDomain* find_domain_of(const sim::BlockDevice* device);

 private:
  std::string name_;
  Watts breaker_limit_w_;
  bool tripped_ = false;
  std::vector<std::unique_ptr<PowerDomain>> children_;
  std::vector<sim::BlockDevice*> devices_;
};

// Watches one domain and trips its breaker when the draw stays above the
// rating for `overload_grace` (thermal-magnetic breakers tolerate brief
// overloads; sustained ones trip). Its poll reads, and a trip cuts, every
// device of the domain, so it needs one simulator shared by all of them: it
// cannot run on a core::Testbed, where each device has its own timeline and
// an event may touch only its own device (DESIGN.md section 3.2).
class BreakerMonitor {
 public:
  BreakerMonitor(sim::Simulator& sim, PowerDomain& domain, TimeNs poll_period,
                 TimeNs overload_grace);

  void start();
  void stop();

  // Called when the breaker trips (alerting / telemetry).
  void set_trip_listener(std::function<void(const PowerDomain&)> cb) {
    on_trip_ = std::move(cb);
  }

  int trips() const { return trips_; }

 private:
  void poll();

  sim::Simulator& sim_;
  PowerDomain& domain_;
  TimeNs overload_grace_;
  sim::PeriodicTask task_;
  std::function<void(const PowerDomain&)> on_trip_;
  TimeNs overload_since_ = -1;
  int trips_ = 0;
};

}  // namespace pas::core
