// Control-plane simulator: independent, execution-based validation of
// repairs.
//
// The paper's guarantee is that after applying CPR's patches "the network is
// guaranteed to compute policy-compliant paths for all traffic classes under
// arbitrary failures". This module checks that property the way a network
// would realize it — not through the ETG abstraction, but by actually
// computing per-destination routing tables (connected > static-by-AD > BGP >
// OSPF > RIP, with redistribution), walking the forwarding path hop by hop
// with ACL evaluation at each interface crossing, and enumerating link
// failure sets.
//
// Deliberate semantic alignment with ARC (and its documented deviation from
// some real OSPF deployments, paper §2.1 footnote 1): a process whose route
// filter blocks a destination neither uses nor relays routes for it.
//
// Cost model. The constructor indexes the network once (processes per kind,
// incident links, per-protocol adjacency, OSPF costs, ACL pointers, statics
// with resolved next-hop links), so a route computation touches no strings.
// Facts that depend only on the destination (membership after distribute
// lists, failure-independent origination, covering statics in preference
// order) are computed once per destination. Failure sets are flat masks.
// FindSimulationViolations works destination-major: one route table per
// (destination, failure set), on which every open policy toward that
// destination is judged (a PC5 policy is judged on the tables of both of its
// destinations, enumerated together).
//
// Exact pruning. A route table R(F) comes with Used(F): the links over which
// some label settled in either pass of any protocol's Dijkstra, plus the
// next-hop link of every chosen static route. Failure enumeration starts
// from the empty set and branches only on links in Used(F), deduplicating
// sets. This is exact, not a heuristic:
//
//   * Lemma. If l is not in Used(F), then R(F ∪ {l}) = R(F) and
//     Used(F ∪ {l}) = Used(F). Failing l removes only (a) queue entries that
//     arrived over l, none of which settled, so each was rejected when popped
//     and pushed nothing — the remaining entries pop in the same total order
//     against the same settled labels — and (b) static candidates over l,
//     none of which was chosen, so every device picks the same static. The
//     computation replays identically in both passes and all three
//     protocols, redistribution included.
//   * Coverage. Every failure set G within the bound has the same tables as
//     some explored S ⊆ G: start from S = ∅; if some l ∈ G \ S is in
//     Used(S), S ∪ {l} is explored and still inside G; otherwise the lemma
//     adds the rest of G one link at a time without changing the tables.
//   * Forwarding reads only the route tables (and failure-independent ACLs),
//     so every verdict on G equals the verdict on S.
//
// The argument holds for BGP, RIP, redistribution and statics alike, so no
// protocol needs a brute-force fallback.

#ifndef CPR_SRC_SIMULATE_SIMULATOR_H_
#define CPR_SRC_SIMULATE_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "topo/network.h"
#include "verify/policy.h"

namespace cpr {

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

// Work counters of one FindSimulationViolations call.
struct SimulationCounters {
  int64_t route_tables = 0;      // Route tables computed.
  int64_t failure_sets = 0;      // Distinct failure sets judged.
  int64_t branches_pruned = 0;   // Alive links not branched on (not in Used).
  int64_t early_exits = 0;       // Destinations abandoned once all policies
                                 // toward them were violated.
};

class Simulator {
 public:
  // Indexes `network`, which must outlive the simulator.
  explicit Simulator(const Network& network);

  // Forwards one packet of the (src subnet -> dst subnet) traffic class with
  // the given links failed.
  ForwardingOutcome Forward(SubnetId src, SubnetId dst,
                            const std::set<LinkId>& failed = {}) const;

  // The best route each device holds toward `dst` under the failure set:
  // the link to forward on, or nullopt for no route / local delivery. When
  // `used` is given it receives Used(failed), sorted.
  struct RouteEntry {
    int admin_distance = 255;
    std::optional<LinkId> out_link;  // nullopt: locally attached.

    bool operator==(const RouteEntry&) const = default;
  };
  using RouteTable = std::vector<std::optional<RouteEntry>>;
  RouteTable ComputeRoutes(SubnetId dst, const std::set<LinkId>& failed,
                           std::vector<LinkId>* used = nullptr) const;

  // The policies (in input order) that some enumerated failure set violates.
  std::vector<Policy> Violations(const std::vector<Policy>& policies, int failure_cap,
                                 SimulationCounters* counters = nullptr) const;

 private:
  static constexpr size_t kProtocols = 3;  // BGP, OSPF, RIP, in that order.

  // One side of a physical link: its device and the ACLs on its interface.
  struct LinkSide {
    DeviceId device = -1;
    const AccessList* acl_in = nullptr;
    const AccessList* acl_out = nullptr;
  };
  struct IndexedLink {
    std::array<LinkSide, 2> sides;  // [0] = device_a, [1] = device_b.
    bool waypoint = false;
  };
  // A protocol adjacency seen from one device: routes learned over `link`
  // reach `peer` at `cost` more.
  struct Adjacency {
    LinkId link = -1;
    DeviceId peer = -1;
    double cost = 1.0;
  };
  struct ResolvedStatic {
    Ipv4Prefix prefix;
    int distance = 1;
    LinkId link = -1;
  };
  struct Destination;
  struct Workspace;
  struct Table {
    RouteTable routes;
    std::vector<LinkId> used;  // Used(F), sorted.
  };

  Destination MakeDestination(SubnetId dst) const;
  // Fills `table` with R(F) and Used(F) for the flat mask `failed`.
  void Compute(const Destination& dest, const std::vector<uint8_t>& failed,
               Workspace& ws, Table* table) const;
  void Walk(SubnetId src, SubnetId dst, const RouteTable& routes, ForwardingOutcome* out,
            std::vector<uint8_t>& visited) const;
  std::vector<uint8_t> MaskOf(const std::set<LinkId>& failed) const;

  const Network* network_;
  std::vector<IndexedLink> links_;
  // adjacency_[protocol][device], in increasing link order.
  std::array<std::vector<std::vector<Adjacency>>, kProtocols> adjacency_;
  // process_[protocol][device]: the device's first process of that kind.
  std::array<std::vector<std::optional<ProcessId>>, kProtocols> process_;
  // Per process: bit (1 << RouteSource) for every source it redistributes.
  std::vector<uint32_t> redistributes_;
  // Per device: static routes whose next hop resolves, in config order.
  std::vector<std::vector<ResolvedStatic>> statics_;
  // Per subnet: ACLs on the host-facing interface.
  std::vector<const AccessList*> subnet_acl_in_;
  std::vector<const AccessList*> subnet_acl_out_;
};

// Checks `policy` by failure enumeration. PC3 quantifies over exactly the
// failure sets of its semantics (< k failed links; k <= 0 holds vacuously,
// as in the graph checker); PC1/PC2/PC5 quantify over *arbitrary* failures,
// so enumeration is truncated at `failure_cap` simultaneous failures
// (negative caps count as 0; pass the link count for an exhaustive check).
// PC4 is checked in the no-failure state. Same as
// FindSimulationViolations(network, {policy}, failure_cap).empty().
bool CheckPolicyBySimulation(const Network& network, const Policy& policy,
                             int failure_cap = 2);

// All policies that fail simulation, in input order. Adds the call's work to
// the simulate.* counters of obs::CurrentRegistry().
std::vector<Policy> FindSimulationViolations(const Network& network,
                                             const std::vector<Policy>& policies,
                                             int failure_cap = 2);

}  // namespace cpr

#endif  // CPR_SRC_SIMULATE_SIMULATOR_H_
