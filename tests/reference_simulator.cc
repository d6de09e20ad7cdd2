#include "tests/reference_simulator.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "arc/harc.h"

namespace cpr::reference {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Whether `process` on `device` participates on its side of `link` for
// adjacency formation. (Duplicated from the HARC builder on purpose: the
// simulator is an independent check of the same configuration semantics.)
bool SideConfigured(const Network& network, ProcessId process, LinkId link,
                    DeviceId device) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  if (proc.device != device) {
    return false;
  }
  auto [intf, peer_intf] = network.LinkInterfaces(link, device);
  if (!network.ProcessUsesInterface(process, intf)) {
    return false;
  }
  if (proc.kind == RouteSource::kOspf) {
    const OspfConfig* ospf = network.config_for(device).FindOspf(proc.protocol_id);
    if (ospf != nullptr && ospf->passive_interfaces.count(intf) > 0) {
      return false;
    }
  }
  return true;
}

// The process of the given kind on a device (nullopt if none).
std::optional<ProcessId> ProcessOfKind(const Network& network, DeviceId device,
                                       RouteSource kind) {
  for (ProcessId p : network.devices()[static_cast<size_t>(device)].processes) {
    if (network.processes()[static_cast<size_t>(p)].kind == kind) {
      return p;
    }
  }
  return std::nullopt;
}

bool ProcessRedistributes(const Network& network, ProcessId process, RouteSource from) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  const Config& config = network.config_for(proc.device);
  const std::vector<Redistribution>* redists = nullptr;
  switch (proc.kind) {
    case RouteSource::kOspf: {
      const OspfConfig* ospf = config.FindOspf(proc.protocol_id);
      redists = ospf != nullptr ? &ospf->redistributes : nullptr;
      break;
    }
    case RouteSource::kBgp:
      redists = config.bgp.has_value() ? &config.bgp->redistributes : nullptr;
      break;
    case RouteSource::kRip:
      redists = config.rip.has_value() ? &config.rip->redistributes : nullptr;
      break;
    default:
      break;
  }
  if (redists == nullptr) {
    return false;
  }
  return std::any_of(redists->begin(), redists->end(),
                     [from](const Redistribution& r) { return r.from == from; });
}

int InterfaceCost(const Network& network, DeviceId device, const std::string& interface) {
  const InterfaceConfig* intf = network.config_for(device).FindInterface(interface);
  return intf != nullptr ? intf->ospf_cost : 1;
}

bool AclAt(const Network& network, DeviceId device, const std::string& interface,
           bool inbound, const TrafficClass& tc) {
  const Config& config = network.config_for(device);
  const InterfaceConfig* intf = config.FindInterface(interface);
  if (intf == nullptr) {
    return false;
  }
  const std::optional<std::string>& name = inbound ? intf->acl_in : intf->acl_out;
  if (!name.has_value()) {
    return false;
  }
  const AccessList* acl = config.FindAccessList(*name);
  return acl != nullptr && !acl->Permits(tc);
}

}  // namespace

std::vector<std::optional<Simulator::RouteEntry>> Simulator::ComputeRoutes(
    SubnetId dst, const std::set<LinkId>& failed) const {
  const Network& network = *network_;
  const size_t device_count = network.devices().size();
  const Subnet& subnet = network.subnets()[static_cast<size_t>(dst)];

  std::vector<std::optional<RouteEntry>> best(device_count);

  // Connected route on the attachment device.
  best[static_cast<size_t>(subnet.device)] = RouteEntry{kAdConnected, std::nullopt};

  // Static routes with a resolvable next hop over an alive link.
  std::vector<std::optional<std::pair<int, LinkId>>> static_routes(device_count);
  for (size_t d = 0; d < device_count; ++d) {
    const Config& config = network.configs()[network.devices()[d].config_index];
    const StaticRouteConfig* chosen = nullptr;
    std::optional<LinkId> chosen_link;
    for (const StaticRouteConfig& route : config.static_routes) {
      if (!route.prefix.Contains(subnet.prefix)) {
        continue;
      }
      auto next_hop = network.ResolveNextHop(static_cast<DeviceId>(d), route.next_hop);
      if (!next_hop.has_value() || failed.count(next_hop->link) > 0) {
        continue;
      }
      // Prefer more-specific prefixes, then lower administrative distance.
      if (chosen == nullptr || route.prefix.length() > chosen->prefix.length() ||
          (route.prefix.length() == chosen->prefix.length() &&
           route.distance < chosen->distance)) {
        chosen = &route;
        chosen_link = next_hop->link;
      }
    }
    if (chosen != nullptr) {
      static_routes[d] = {chosen->distance, *chosen_link};
      if (!best[d].has_value() || chosen->distance < best[d]->admin_distance) {
        best[d] = RouteEntry{chosen->distance, chosen_link};
      }
    }
  }

  // Protocol routes; two passes so redistribution between protocols
  // stabilizes (redistribution chains in the supported config model are
  // acyclic and short).
  struct ProtocolSpec {
    RouteSource kind;
    int admin_distance;
    bool use_interface_costs;
  };
  const ProtocolSpec specs[] = {
      {RouteSource::kBgp, kAdBgp, false},
      {RouteSource::kOspf, kAdOspf, true},
      {RouteSource::kRip, kAdRip, false},
  };
  // proto_dist[kind index][device]: metric within that protocol (kInf: none).
  std::vector<std::vector<double>> proto_dist(3,
                                              std::vector<double>(device_count, kInf));

  for (int pass = 0; pass < 2; ++pass) {
    for (int si = 0; si < 3; ++si) {
      const ProtocolSpec& spec = specs[si];
      // Participating process per device: runs the protocol and does not
      // filter this destination (ARC semantics: filtered processes neither
      // use nor relay routes for the destination).
      std::vector<std::optional<ProcessId>> member(device_count);
      for (size_t d = 0; d < device_count; ++d) {
        std::optional<ProcessId> p =
            ProcessOfKind(network, static_cast<DeviceId>(d), spec.kind);
        if (p.has_value() && !ProcessBlocksDestination(network, *p, subnet.prefix)) {
          member[d] = p;
        }
      }

      // Origination: who advertises dst into this protocol? Advertisements
      // carry a starting metric: 0 for directly participating interfaces and
      // connected redistribution, a small penalty for redistributed routes —
      // mirroring OSPF's preference for internal routes over externals and
      // keeping backup-static advertisers from attracting ties.
      constexpr double kRedistPenalty = 0.5;
      std::vector<double> advertises(device_count, kInf);
      for (size_t d = 0; d < device_count; ++d) {
        if (!member[d].has_value()) {
          continue;
        }
        const Config& config = network.configs()[network.devices()[d].config_index];
        bool attached = static_cast<DeviceId>(d) == subnet.device;
        // Direct participation: the destination interface is covered by a
        // `network` statement.
        if (attached) {
          const InterfaceConfig* intf = config.FindInterface(subnet.interface);
          if (intf != nullptr && intf->address.has_value() &&
              network.ProcessUsesInterface(*member[d], subnet.interface)) {
            advertises[d] = 0.0;
          }
          if (ProcessRedistributes(network, *member[d], RouteSource::kConnected)) {
            advertises[d] = 0.0;
          }
        }
        if (ProcessRedistributes(network, *member[d], RouteSource::kStatic) &&
            static_routes[d].has_value()) {
          advertises[d] = std::min(advertises[d], kRedistPenalty);
        }
        // BGP `network` statements originate configured prefixes.
        if (spec.kind == RouteSource::kBgp && config.bgp.has_value() && attached) {
          for (const Ipv4Prefix& net : config.bgp->networks) {
            if (net.Contains(subnet.prefix)) {
              advertises[d] = 0.0;
            }
          }
        }
        // Redistribution from other protocols (uses the previous pass's
        // routes).
        for (int sj = 0; sj < 3; ++sj) {
          if (sj != si && ProcessRedistributes(network, *member[d], specs[sj].kind) &&
              proto_dist[static_cast<size_t>(sj)][d] != kInf) {
            advertises[d] = std::min(advertises[d], kRedistPenalty);
          }
        }
      }

      // Multi-source Dijkstra toward the advertisers over established
      // adjacencies, keeping the two best labels with *distinct* sources per
      // device. An advertiser routes toward the nearest other advertiser
      // (real OSPF: an ASBR does not install its self-originated external,
      // but does install other ASBRs' — exactly how a backup static route
      // stays a backup).
      struct Label {
        double dist = kInf;
        DeviceId source = -1;
        std::optional<LinkId> via;
      };
      std::vector<std::vector<Label>> labels(device_count);
      struct QueueEntry {
        double dist;
        DeviceId device;
        DeviceId source;
        std::optional<LinkId> via;
        // Deterministic total order: distance first, then stable tie-breaks.
        bool operator>(const QueueEntry& other) const {
          if (dist != other.dist) {
            return dist > other.dist;
          }
          if (source != other.source) {
            return source > other.source;
          }
          if (device != other.device) {
            return device > other.device;
          }
          return via.value_or(-1) > other.via.value_or(-1);
        }
      };
      std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
      for (size_t d = 0; d < device_count; ++d) {
        if (advertises[d] != kInf && member[d].has_value()) {
          queue.push({advertises[d], static_cast<DeviceId>(d), static_cast<DeviceId>(d),
                      std::nullopt});
        }
      }
      // Entries pop in nondecreasing distance; a device settles at most two
      // labels, each for a distinct source.
      auto try_settle = [&labels](const QueueEntry& entry) {
        auto& settled = labels[static_cast<size_t>(entry.device)];
        if (settled.size() >= 2) {
          return false;
        }
        for (const Label& label : settled) {
          if (label.source == entry.source) {
            return false;
          }
        }
        settled.push_back(Label{entry.dist, entry.source, entry.via});
        return true;
      };
      while (!queue.empty()) {
        QueueEntry entry = queue.top();
        queue.pop();
        if (!try_settle(entry)) {
          continue;
        }
        DeviceId v = entry.device;
        for (size_t l = 0; l < network.links().size(); ++l) {
          LinkId link = static_cast<LinkId>(l);
          if (failed.count(link) > 0) {
            continue;
          }
          const TopoLink& topo_link = network.links()[l];
          DeviceId u;
          if (topo_link.device_a == v) {
            u = topo_link.device_b;
          } else if (topo_link.device_b == v) {
            u = topo_link.device_a;
          } else {
            continue;
          }
          if (!member[static_cast<size_t>(u)].has_value() ||
              !member[static_cast<size_t>(v)].has_value()) {
            continue;
          }
          bool adjacent =
              SideConfigured(network, *member[static_cast<size_t>(u)], link, u) &&
              SideConfigured(network, *member[static_cast<size_t>(v)], link, v);
          if (!adjacent) {
            continue;
          }
          auto [u_intf, v_intf] = network.LinkInterfaces(link, u);
          double edge_cost =
              spec.use_interface_costs ? InterfaceCost(network, u, u_intf) : 1.0;
          queue.push({entry.dist + edge_cost, u, entry.source, link});
        }
      }

      // Install protocol routes where they beat the current best; a device
      // never uses a route sourced at itself.
      std::vector<double>& dist = proto_dist[static_cast<size_t>(si)];
      std::fill(dist.begin(), dist.end(), kInf);
      for (size_t d = 0; d < device_count; ++d) {
        const Label* chosen = nullptr;
        for (const Label& label : labels[d]) {
          if (label.source != -1 && label.source != static_cast<DeviceId>(d) &&
              label.via.has_value() && (chosen == nullptr || label.dist < chosen->dist)) {
            chosen = &label;
          }
        }
        // Record protocol-level reachability for redistribution chains: the
        // device "has" a route if it can reach any advertiser, itself
        // included.
        for (const Label& label : labels[d]) {
          dist[d] = std::min(dist[d], label.dist);
        }
        if (chosen == nullptr) {
          continue;
        }
        if (!best[d].has_value() || spec.admin_distance < best[d]->admin_distance) {
          best[d] = RouteEntry{spec.admin_distance, chosen->via};
        }
      }
    }
  }
  return best;
}

ForwardingOutcome Simulator::Forward(SubnetId src, SubnetId dst,
                                     const std::set<LinkId>& failed) const {
  const Network& network = *network_;
  const Subnet& src_subnet = network.subnets()[static_cast<size_t>(src)];
  const Subnet& dst_subnet = network.subnets()[static_cast<size_t>(dst)];
  const TrafficClass tc(src_subnet.prefix, dst_subnet.prefix);

  ForwardingOutcome outcome;
  // Entering the first router from the source subnet.
  if (AclAt(network, src_subnet.device, src_subnet.interface, /*inbound=*/true, tc)) {
    outcome.kind = ForwardingOutcome::Kind::kAclDropped;
    return outcome;
  }

  std::vector<std::optional<RouteEntry>> routes = ComputeRoutes(dst, failed);
  std::set<DeviceId> visited;
  DeviceId current = src_subnet.device;
  while (true) {
    outcome.path.push_back(current);
    if (!visited.insert(current).second) {
      outcome.kind = ForwardingOutcome::Kind::kLoop;
      return outcome;
    }
    if (current == dst_subnet.device) {
      // Local delivery through the destination-facing interface.
      if (AclAt(network, current, dst_subnet.interface, /*inbound=*/false, tc)) {
        outcome.kind = ForwardingOutcome::Kind::kAclDropped;
        return outcome;
      }
      outcome.kind = ForwardingOutcome::Kind::kDelivered;
      return outcome;
    }
    const std::optional<RouteEntry>& route = routes[static_cast<size_t>(current)];
    if (!route.has_value() || !route->out_link.has_value()) {
      outcome.kind = ForwardingOutcome::Kind::kNoRoute;
      return outcome;
    }
    LinkId link = *route->out_link;
    DeviceId next = network.LinkPeer(link, current);
    auto [egress_intf, ingress_intf] = network.LinkInterfaces(link, current);
    if (AclAt(network, current, egress_intf, /*inbound=*/false, tc) ||
        AclAt(network, next, ingress_intf, /*inbound=*/true, tc)) {
      outcome.kind = ForwardingOutcome::Kind::kAclDropped;
      return outcome;
    }
    outcome.links.push_back(link);
    if (network.links()[static_cast<size_t>(link)].waypoint) {
      outcome.crossed_waypoint = true;
    }
    current = next;
  }
}

namespace {

// Invokes `visit` on every subset of links of size <= max_size; stops early
// when `visit` returns false.
bool ForEachFailureSet(int link_count, int max_size,
                       const std::function<bool(const std::set<LinkId>&)>& visit) {
  std::set<LinkId> failed;
  std::function<bool(int, int)> recurse = [&](int start, int remaining) {
    if (!visit(failed)) {
      return false;
    }
    if (remaining == 0) {
      return true;
    }
    for (int l = start; l < link_count; ++l) {
      failed.insert(l);
      if (!recurse(l + 1, remaining - 1)) {
        return false;
      }
      failed.erase(l);
    }
    return true;
  };
  return recurse(0, std::min(max_size, link_count));
}

}  // namespace

bool CheckPolicyBySimulation(const Network& network, const Policy& policy,
                             int failure_cap) {
  Simulator simulator(network);
  const int link_count = static_cast<int>(network.links().size());
  switch (policy.pc) {
    case PolicyClass::kAlwaysBlocked:
      return ForEachFailureSet(link_count, failure_cap, [&](const std::set<LinkId>& f) {
        return simulator.Forward(policy.src, policy.dst, f).kind !=
               ForwardingOutcome::Kind::kDelivered;
      });
    case PolicyClass::kAlwaysWaypoint:
      return ForEachFailureSet(link_count, failure_cap, [&](const std::set<LinkId>& f) {
        ForwardingOutcome outcome = simulator.Forward(policy.src, policy.dst, f);
        return outcome.kind != ForwardingOutcome::Kind::kDelivered ||
               outcome.crossed_waypoint;
      });
    case PolicyClass::kReachability:
      // "< k failures" is the exact quantifier; enumerate k-1 failures.
      return ForEachFailureSet(link_count, policy.k - 1, [&](const std::set<LinkId>& f) {
        return simulator.Forward(policy.src, policy.dst, f).kind ==
               ForwardingOutcome::Kind::kDelivered;
      });
    case PolicyClass::kPrimaryPath: {
      ForwardingOutcome outcome = simulator.Forward(policy.src, policy.dst, {});
      return outcome.kind == ForwardingOutcome::Kind::kDelivered &&
             outcome.path == policy.primary_path;
    }
    case PolicyClass::kIsolation:
      // Under every enumerated failure set, the two flows must not cross a
      // common link (vacuous when either is not delivered).
      return ForEachFailureSet(link_count, failure_cap, [&](const std::set<LinkId>& f) {
        ForwardingOutcome a = simulator.Forward(policy.src, policy.dst, f);
        ForwardingOutcome b = simulator.Forward(policy.src2, policy.dst2, f);
        if (a.kind != ForwardingOutcome::Kind::kDelivered ||
            b.kind != ForwardingOutcome::Kind::kDelivered) {
          return true;
        }
        std::set<LinkId> links_a(a.links.begin(), a.links.end());
        return std::none_of(b.links.begin(), b.links.end(),
                            [&](LinkId l) { return links_a.count(l) > 0; });
      });
  }
  return false;
}

std::vector<Policy> FindSimulationViolations(const Network& network,
                                             const std::vector<Policy>& policies,
                                             int failure_cap) {
  std::vector<Policy> violations;
  for (const Policy& policy : policies) {
    if (!CheckPolicyBySimulation(network, policy, failure_cap)) {
      violations.push_back(policy);
    }
  }
  return violations;
}

}  // namespace cpr::reference
