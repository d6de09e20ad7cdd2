// Reference simulator: the original brute-force control-plane simulator,
// kept verbatim as a test oracle for src/simulate/.
//
// It recomputes every route table from scratch for every policy and every
// failure set, looks configuration up by name inside Dijkstra, and
// enumerates all link subsets up to the bound. That makes it slow but
// obviously faithful to the simulator's semantics, so the differential tests
// require the indexed, pruned simulator to return exactly the same
// violation lists. Feed it k >= 1 and failure caps >= 0 only: with a bound
// below zero the enumeration never reaches its base case and walks every
// subset of links.

#ifndef CPR_TESTS_REFERENCE_SIMULATOR_H_
#define CPR_TESTS_REFERENCE_SIMULATOR_H_

#include <optional>
#include <set>
#include <vector>

#include "topo/network.h"
#include "verify/policy.h"

namespace cpr::reference {

struct ForwardingOutcome {
  enum class Kind {
    kDelivered,   // Reached the destination subnet.
    kAclDropped,  // A packet filter discarded the traffic.
    kNoRoute,     // A device had no route (blackhole).
    kLoop,        // Forwarding revisited a device.
  };
  Kind kind = Kind::kNoRoute;
  std::vector<DeviceId> path;   // Devices visited, in order.
  std::vector<LinkId> links;    // Links traversed.
  bool crossed_waypoint = false;
};

class Simulator {
 public:
  explicit Simulator(const Network& network) : network_(&network) {}

  // Forwards one packet of the (src subnet -> dst subnet) traffic class with
  // the given links failed.
  ForwardingOutcome Forward(SubnetId src, SubnetId dst,
                            const std::set<LinkId>& failed = {}) const;

  // The best route each device holds toward `dst` under the failure set:
  // the link to forward on, or nullopt for no route / local delivery.
  struct RouteEntry {
    int admin_distance = 255;
    std::optional<LinkId> out_link;  // nullopt: locally attached.
  };
  std::vector<std::optional<RouteEntry>> ComputeRoutes(
      SubnetId dst, const std::set<LinkId>& failed) const;

 private:
  const Network* network_;
};

// Checks `policy` by failure enumeration. PC3 enumerates exactly the failure
// sets its semantics quantify over (< k failed links); PC1/PC2 quantify over
// *arbitrary* failures, so enumeration is truncated at `failure_cap`
// simultaneous failures (pass the link count for an exhaustive check on
// small networks). PC4 is checked in the no-failure state.
bool CheckPolicyBySimulation(const Network& network, const Policy& policy,
                             int failure_cap = 2);

// All policies that fail simulation.
std::vector<Policy> FindSimulationViolations(const Network& network,
                                             const std::vector<Policy>& policies,
                                             int failure_cap = 2);

}  // namespace cpr::reference

#endif  // CPR_TESTS_REFERENCE_SIMULATOR_H_
