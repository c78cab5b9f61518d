// The host's current speed, from a fixed reference kernel that runs none of
// the simulator's code.
//
// A shared host's speed drifts by tens of percent over minutes as other
// tenants come and go, and every host-time metric drifts with it. The
// benchmark times the reference between iterations (and between the rack's
// phases), on as many threads as the workload simulates on, and reports host
// times scaled to the speed at which the reference takes kReferenceNominalS:
// seconds at the reference speed. A change to the simulator moves the scaled
// times; a change in the host's load moves the reference and the workload
// alike, and the scaling cancels much of it.
#pragma once

namespace perfbench {

// The reference kernel's time at the nominal speed: about its median on a
// 4-vCPU KVM guest (Xeon, 2.0 GHz) when the host is lightly loaded.
constexpr double kReferenceNominalS = 0.125;

// Host seconds the reference kernel takes now, run once on each of
// `threads` threads at the same time (the mean of the threads' times).
double reference_s(int threads);

}  // namespace perfbench
