#include "simulate/simulator.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>

#include "arc/harc.h"
#include "obs/metrics.h"

namespace cpr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Starting metric of a redistributed advertisement: a small penalty that
// mirrors OSPF's preference for internal routes over externals and keeps
// backup-static advertisers from attracting ties.
constexpr double kRedistPenalty = 0.5;

// Protocol order of route computation, with each protocol's administrative
// distance. Only OSPF uses interface costs; the others count hops.
constexpr RouteSource kProtocolKinds[] = {RouteSource::kBgp, RouteSource::kOspf,
                                          RouteSource::kRip};
constexpr int kProtocolAd[] = {kAdBgp, kAdOspf, kAdRip};
constexpr size_t kBgpIndex = 0;
constexpr size_t kOspfIndex = 1;

uint32_t SourceBit(RouteSource source) { return 1u << static_cast<uint32_t>(source); }

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

// Bit (1 << RouteSource) for every source `process` redistributes.
uint32_t RedistributedSources(const Network& network, ProcessId process) {
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
  uint32_t bits = 0;
  if (redists != nullptr) {
    for (const Redistribution& r : *redists) {
      bits |= SourceBit(r.from);
    }
  }
  return bits;
}

int InterfaceCost(const Network& network, DeviceId device, const std::string& interface) {
  const InterfaceConfig* intf = network.config_for(device).FindInterface(interface);
  return intf != nullptr ? intf->ospf_cost : 1;
}

// The ACL applied in one direction of an interface (nullptr if none, or if
// the named list is undefined).
const AccessList* AclOn(const Network& network, DeviceId device,
                        const std::string& interface, bool inbound) {
  const Config& config = network.config_for(device);
  const InterfaceConfig* intf = config.FindInterface(interface);
  if (intf == nullptr) {
    return nullptr;
  }
  const std::optional<std::string>& name = inbound ? intf->acl_in : intf->acl_out;
  return name.has_value() ? config.FindAccessList(*name) : nullptr;
}

bool Denies(const AccessList* acl, const TrafficClass& tc) {
  return acl != nullptr && !acl->Permits(tc);
}

// How many simultaneous failures a policy quantifies over.
int FailureBound(const Policy& policy, int failure_cap) {
  switch (policy.pc) {
    case PolicyClass::kReachability:
      return policy.k - 1;  // "< k failures"; callers drop k <= 0.
    case PolicyClass::kPrimaryPath:
      return 0;
    default:
      return failure_cap;
  }
}

}  // namespace

// Facts about one destination that no failure set changes.
struct Simulator::Destination {
  DeviceId device = -1;
  // Per protocol, per device: the device's process of that kind runs and
  // does not filter this destination (ARC semantics: filtered processes
  // neither use nor relay routes for the destination).
  std::array<std::vector<uint8_t>, kProtocols> member;
  std::array<bool, kProtocols> any_member{};
  // Per protocol, per member device: 0 when it originates the destination
  // regardless of failures (covering `network` statement, connected
  // redistribution, BGP `network`), kInf otherwise.
  std::array<std::vector<double>, kProtocols> origin;
  // Per protocol, per member device: RedistributedSources of its process.
  std::array<std::vector<uint32_t>, kProtocols> redistributes;
  // Per device: covering static routes, best first (more-specific prefix,
  // then lower distance, then config order). The first alive one is chosen.
  std::vector<std::vector<ResolvedStatic>> statics;
};

// Reusable buffers of one route computation.
struct Simulator::Workspace {
  struct Label {
    double dist = kInf;
    DeviceId source = -1;
    LinkId via = -1;  // -1: originated here.
  };
  struct Entry {
    double dist;
    DeviceId device;
    DeviceId source;
    LinkId via;
  };
  // Deterministic total order: distance first, then stable tie-breaks. Pop
  // order therefore never depends on push order.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.dist != b.dist) {
      return a.dist > b.dist;
    }
    if (a.source != b.source) {
      return a.source > b.source;
    }
    if (a.device != b.device) {
      return a.device > b.device;
    }
    return a.via > b.via;
  }

  std::vector<std::array<Label, 2>> labels;
  std::vector<uint8_t> label_count;
  std::vector<Entry> heap;
  std::array<std::vector<double>, kProtocols> proto_dist;
  std::vector<uint8_t> static_chosen;
  std::vector<uint8_t> used_mark;
};

Simulator::Simulator(const Network& network) : network_(&network) {
  const size_t device_count = network.devices().size();
  for (size_t si = 0; si < kProtocols; ++si) {
    process_[si].resize(device_count);
    adjacency_[si].resize(device_count);
    for (size_t d = 0; d < device_count; ++d) {
      process_[si][d] = ProcessOfKind(network, static_cast<DeviceId>(d), kProtocolKinds[si]);
    }
  }
  redistributes_.resize(network.processes().size());
  for (size_t p = 0; p < redistributes_.size(); ++p) {
    redistributes_[p] = RedistributedSources(network, static_cast<ProcessId>(p));
  }

  links_.resize(network.links().size());
  for (size_t l = 0; l < links_.size(); ++l) {
    const TopoLink& topo = network.links()[l];
    const LinkId link = static_cast<LinkId>(l);
    const DeviceId a = topo.device_a;
    const DeviceId b = topo.device_b;
    links_[l].waypoint = topo.waypoint;
    links_[l].sides[0] = {a, AclOn(network, a, topo.interface_a, true),
                          AclOn(network, a, topo.interface_a, false)};
    links_[l].sides[1] = {b, AclOn(network, b, topo.interface_b, true),
                          AclOn(network, b, topo.interface_b, false)};
    for (size_t si = 0; si < kProtocols; ++si) {
      const std::optional<ProcessId>& pa = process_[si][static_cast<size_t>(a)];
      const std::optional<ProcessId>& pb = process_[si][static_cast<size_t>(b)];
      if (!pa.has_value() || !pb.has_value() || !SideConfigured(network, *pa, link, a) ||
          !SideConfigured(network, *pb, link, b)) {
        continue;
      }
      // A route learned over the link costs the receiving side's interface.
      auto cost_at = [&](DeviceId device) {
        return si == kOspfIndex
                   ? InterfaceCost(network, device, network.LinkInterfaces(link, device).first)
                   : 1.0;
      };
      adjacency_[si][static_cast<size_t>(a)].push_back({link, b, cost_at(b)});
      if (b != a) {
        adjacency_[si][static_cast<size_t>(b)].push_back({link, a, cost_at(a)});
      }
    }
  }

  statics_.resize(device_count);
  for (size_t d = 0; d < device_count; ++d) {
    for (const StaticRouteConfig& route :
         network.config_for(static_cast<DeviceId>(d)).static_routes) {
      auto next_hop = network.ResolveNextHop(static_cast<DeviceId>(d), route.next_hop);
      if (next_hop.has_value()) {
        statics_[d].push_back({route.prefix, route.distance, next_hop->link});
      }
    }
  }

  subnet_acl_in_.resize(network.subnets().size());
  subnet_acl_out_.resize(network.subnets().size());
  for (size_t s = 0; s < network.subnets().size(); ++s) {
    const Subnet& subnet = network.subnets()[s];
    subnet_acl_in_[s] = AclOn(network, subnet.device, subnet.interface, true);
    subnet_acl_out_[s] = AclOn(network, subnet.device, subnet.interface, false);
  }
}

Simulator::Destination Simulator::MakeDestination(SubnetId dst) const {
  const Network& network = *network_;
  const size_t device_count = network.devices().size();
  const Subnet& subnet = network.subnets()[static_cast<size_t>(dst)];

  Destination dest;
  dest.device = subnet.device;
  for (size_t si = 0; si < kProtocols; ++si) {
    dest.member[si].assign(device_count, 0);
    dest.origin[si].assign(device_count, kInf);
    dest.redistributes[si].assign(device_count, 0);
    for (size_t d = 0; d < device_count; ++d) {
      const std::optional<ProcessId>& process = process_[si][d];
      if (!process.has_value() ||
          ProcessBlocksDestination(network, *process, subnet.prefix)) {
        continue;
      }
      dest.member[si][d] = 1;
      dest.any_member[si] = true;
      const uint32_t redist = redistributes_[static_cast<size_t>(*process)];
      dest.redistributes[si][d] = redist;
      if (static_cast<DeviceId>(d) != subnet.device) {
        continue;
      }
      // On the attachment device: direct participation (a `network`
      // statement covers the destination interface), connected
      // redistribution, or a BGP `network` statement originate it.
      const Config& config = network.config_for(subnet.device);
      const InterfaceConfig* intf = config.FindInterface(subnet.interface);
      if (intf != nullptr && intf->address.has_value() &&
          network.ProcessUsesInterface(*process, subnet.interface)) {
        dest.origin[si][d] = 0.0;
      }
      if ((redist & SourceBit(RouteSource::kConnected)) != 0) {
        dest.origin[si][d] = 0.0;
      }
      if (si == kBgpIndex && config.bgp.has_value()) {
        for (const Ipv4Prefix& net : config.bgp->networks) {
          if (net.Contains(subnet.prefix)) {
            dest.origin[si][d] = 0.0;
          }
        }
      }
    }
  }

  dest.statics.resize(device_count);
  for (size_t d = 0; d < device_count; ++d) {
    std::vector<ResolvedStatic>& covering = dest.statics[d];
    for (const ResolvedStatic& route : statics_[d]) {
      if (route.prefix.Contains(subnet.prefix)) {
        covering.push_back(route);
      }
    }
    std::stable_sort(covering.begin(), covering.end(),
                     [](const ResolvedStatic& x, const ResolvedStatic& y) {
                       if (x.prefix.length() != y.prefix.length()) {
                         return x.prefix.length() > y.prefix.length();
                       }
                       return x.distance < y.distance;
                     });
  }
  return dest;
}

void Simulator::Compute(const Destination& dest, const std::vector<uint8_t>& failed,
                        Workspace& ws, Table* table) const {
  const size_t device_count = network_->devices().size();
  RouteTable& best = table->routes;
  best.assign(device_count, std::nullopt);
  ws.used_mark.assign(links_.size(), 0);

  // Connected route on the attachment device.
  best[static_cast<size_t>(dest.device)] = RouteEntry{kAdConnected, std::nullopt};

  // Static routes with a resolvable next hop over an alive link.
  ws.static_chosen.assign(device_count, 0);
  for (size_t d = 0; d < device_count; ++d) {
    for (const ResolvedStatic& route : dest.statics[d]) {
      if (failed[static_cast<size_t>(route.link)] != 0) {
        continue;
      }
      ws.static_chosen[d] = 1;
      ws.used_mark[static_cast<size_t>(route.link)] = 1;
      if (!best[d].has_value() || route.distance < best[d]->admin_distance) {
        best[d] = RouteEntry{route.distance, route.link};
      }
      break;
    }
  }

  // Protocol routes; two passes so redistribution between protocols
  // stabilizes (redistribution chains in the supported config model are
  // acyclic and short). proto_dist[protocol][device]: metric within that
  // protocol (kInf: none).
  for (std::vector<double>& dist : ws.proto_dist) {
    dist.assign(device_count, kInf);
  }
  ws.labels.resize(device_count);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t si = 0; si < kProtocols; ++si) {
      if (!dest.any_member[si]) {
        continue;  // No labels: proto_dist[si] stays all kInf.
      }
      const std::vector<uint8_t>& member = dest.member[si];

      // Origination: who advertises dst into this protocol, and at what
      // starting metric? Redistribution from other protocols uses the
      // routes computed so far.
      ws.heap.clear();
      for (size_t d = 0; d < device_count; ++d) {
        if (member[d] == 0) {
          continue;
        }
        double advertises = dest.origin[si][d];
        const uint32_t redist = dest.redistributes[si][d];
        if ((redist & SourceBit(RouteSource::kStatic)) != 0 && ws.static_chosen[d] != 0) {
          advertises = std::min(advertises, kRedistPenalty);
        }
        for (size_t sj = 0; sj < kProtocols; ++sj) {
          if (sj != si && (redist & SourceBit(kProtocolKinds[sj])) != 0 &&
              ws.proto_dist[sj][d] != kInf) {
            advertises = std::min(advertises, kRedistPenalty);
          }
        }
        if (advertises != kInf) {
          ws.heap.push_back({advertises, static_cast<DeviceId>(d), static_cast<DeviceId>(d), -1});
        }
      }
      std::make_heap(ws.heap.begin(), ws.heap.end(), Workspace::Later);

      // Multi-source Dijkstra toward the advertisers over established
      // adjacencies, keeping the two best labels with *distinct* sources per
      // device. An advertiser routes toward the nearest other advertiser
      // (real OSPF: an ASBR does not install its self-originated external,
      // but does install other ASBRs' — exactly how a backup static route
      // stays a backup). Entries pop in nondecreasing distance; a device
      // settles at most two labels, each for a distinct source.
      ws.label_count.assign(device_count, 0);
      auto accepts = [&ws](DeviceId device, DeviceId source) {
        const size_t d = static_cast<size_t>(device);
        if (ws.label_count[d] >= 2) {
          return false;
        }
        return ws.label_count[d] == 0 || ws.labels[d][0].source != source;
      };
      while (!ws.heap.empty()) {
        std::pop_heap(ws.heap.begin(), ws.heap.end(), Workspace::Later);
        const Workspace::Entry entry = ws.heap.back();
        ws.heap.pop_back();
        if (!accepts(entry.device, entry.source)) {
          continue;
        }
        const size_t v = static_cast<size_t>(entry.device);
        ws.labels[v][ws.label_count[v]++] = {entry.dist, entry.source, entry.via};
        if (entry.via >= 0) {
          ws.used_mark[static_cast<size_t>(entry.via)] = 1;
        }
        for (const Adjacency& adj : adjacency_[si][v]) {
          // Entries the peer would reject on pop are never pushed.
          if (failed[static_cast<size_t>(adj.link)] != 0 ||
              member[static_cast<size_t>(adj.peer)] == 0 || !accepts(adj.peer, entry.source)) {
            continue;
          }
          ws.heap.push_back({entry.dist + adj.cost, adj.peer, entry.source, adj.link});
          std::push_heap(ws.heap.begin(), ws.heap.end(), Workspace::Later);
        }
      }

      // Install protocol routes where they beat the current best; a device
      // never uses a route sourced at itself. Protocol-level reachability
      // for redistribution chains counts any advertiser, itself included.
      std::vector<double>& dist = ws.proto_dist[si];
      std::fill(dist.begin(), dist.end(), kInf);
      for (size_t d = 0; d < device_count; ++d) {
        const Workspace::Label* chosen = nullptr;
        for (size_t i = 0; i < ws.label_count[d]; ++i) {
          const Workspace::Label& label = ws.labels[d][i];
          if (label.source != static_cast<DeviceId>(d) && label.via >= 0 &&
              (chosen == nullptr || label.dist < chosen->dist)) {
            chosen = &label;
          }
          dist[d] = std::min(dist[d], label.dist);
        }
        if (chosen != nullptr &&
            (!best[d].has_value() || kProtocolAd[si] < best[d]->admin_distance)) {
          best[d] = RouteEntry{kProtocolAd[si], chosen->via};
        }
      }
    }
  }

  table->used.clear();
  for (size_t l = 0; l < ws.used_mark.size(); ++l) {
    if (ws.used_mark[l] != 0) {
      table->used.push_back(static_cast<LinkId>(l));
    }
  }
}

void Simulator::Walk(SubnetId src, SubnetId dst, const RouteTable& routes,
                     ForwardingOutcome* out, std::vector<uint8_t>& visited) const {
  const Subnet& src_subnet = network_->subnets()[static_cast<size_t>(src)];
  const Subnet& dst_subnet = network_->subnets()[static_cast<size_t>(dst)];
  const TrafficClass tc(src_subnet.prefix, dst_subnet.prefix);

  out->kind = ForwardingOutcome::Kind::kNoRoute;
  out->path.clear();
  out->links.clear();
  out->crossed_waypoint = false;
  // Entering the first router from the source subnet.
  if (Denies(subnet_acl_in_[static_cast<size_t>(src)], tc)) {
    out->kind = ForwardingOutcome::Kind::kAclDropped;
    return;
  }
  DeviceId current = src_subnet.device;
  while (true) {
    out->path.push_back(current);
    if (visited[static_cast<size_t>(current)] != 0) {
      out->kind = ForwardingOutcome::Kind::kLoop;
      break;
    }
    visited[static_cast<size_t>(current)] = 1;
    if (current == dst_subnet.device) {
      // Local delivery through the destination-facing interface.
      out->kind = Denies(subnet_acl_out_[static_cast<size_t>(dst)], tc)
                      ? ForwardingOutcome::Kind::kAclDropped
                      : ForwardingOutcome::Kind::kDelivered;
      break;
    }
    const std::optional<RouteEntry>& route = routes[static_cast<size_t>(current)];
    if (!route.has_value() || !route->out_link.has_value()) {
      out->kind = ForwardingOutcome::Kind::kNoRoute;
      break;
    }
    const LinkId link = *route->out_link;
    const IndexedLink& indexed = links_[static_cast<size_t>(link)];
    const size_t egress = indexed.sides[0].device == current ? 0 : 1;
    const LinkSide& ingress = indexed.sides[1 - egress];
    if (Denies(indexed.sides[egress].acl_out, tc) ||
        Denies(ingress.acl_in, tc)) {
      out->kind = ForwardingOutcome::Kind::kAclDropped;
      break;
    }
    out->links.push_back(link);
    if (indexed.waypoint) {
      out->crossed_waypoint = true;
    }
    current = ingress.device;
  }
  for (DeviceId device : out->path) {
    visited[static_cast<size_t>(device)] = 0;
  }
}

std::vector<uint8_t> Simulator::MaskOf(const std::set<LinkId>& failed) const {
  std::vector<uint8_t> mask(links_.size(), 0);
  for (LinkId link : failed) {
    if (link >= 0 && static_cast<size_t>(link) < mask.size()) {
      mask[static_cast<size_t>(link)] = 1;
    }
  }
  return mask;
}

Simulator::RouteTable Simulator::ComputeRoutes(SubnetId dst, const std::set<LinkId>& failed,
                                               std::vector<LinkId>* used) const {
  Workspace ws;
  Table table;
  Compute(MakeDestination(dst), MaskOf(failed), ws, &table);
  if (used != nullptr) {
    *used = std::move(table.used);
  }
  return std::move(table.routes);
}

ForwardingOutcome Simulator::Forward(SubnetId src, SubnetId dst,
                                     const std::set<LinkId>& failed) const {
  ForwardingOutcome outcome;
  std::vector<uint8_t> visited(network_->devices().size(), 0);
  Walk(src, dst, ComputeRoutes(dst, failed), &outcome, visited);
  return outcome;
}

std::vector<Policy> Simulator::Violations(const std::vector<Policy>& policies,
                                          int failure_cap,
                                          SimulationCounters* counters) const {
  const int cap = std::max(failure_cap, 0);
  const size_t link_count = links_.size();

  // Destination-major: group policies by the destinations whose tables they
  // read. PC3 with k <= 0 holds vacuously and joins no group.
  std::map<std::vector<SubnetId>, std::vector<size_t>> groups;
  for (size_t i = 0; i < policies.size(); ++i) {
    const Policy& policy = policies[i];
    if (policy.pc == PolicyClass::kReachability && policy.k <= 0) {
      continue;
    }
    std::vector<SubnetId> dsts = {policy.dst};
    if (policy.pc == PolicyClass::kIsolation && policy.dst2 != policy.dst) {
      dsts = {std::min(policy.dst, policy.dst2), std::max(policy.dst, policy.dst2)};
    }
    groups[dsts].push_back(i);
  }

  SimulationCounters local;
  std::map<SubnetId, Destination> facts;
  Workspace ws;
  std::vector<uint8_t> violated(policies.size(), 0);
  std::vector<uint8_t> mask(link_count, 0);
  std::vector<uint8_t> visited(network_->devices().size(), 0);
  ForwardingOutcome a;
  ForwardingOutcome b;
  std::vector<LinkId> used;
  std::vector<LinkId> merged;

  for (const auto& [dsts, members] : groups) {
    std::vector<const Destination*> dests;
    for (SubnetId dst : dsts) {
      auto it = facts.find(dst);
      if (it == facts.end()) {
        it = facts.emplace(dst, MakeDestination(dst)).first;
      }
      dests.push_back(&it->second);
    }
    std::vector<Table> tables(dsts.size());
    auto routes_to = [&](SubnetId dst) -> const RouteTable& {
      return tables[dsts[0] == dst ? 0 : 1].routes;
    };
    auto holds = [&](const Policy& policy) {
      Walk(policy.src, policy.dst, routes_to(policy.dst), &a, visited);
      const bool delivered = a.kind == ForwardingOutcome::Kind::kDelivered;
      switch (policy.pc) {
        case PolicyClass::kAlwaysBlocked:
          return !delivered;
        case PolicyClass::kAlwaysWaypoint:
          return !delivered || a.crossed_waypoint;
        case PolicyClass::kReachability:
          return delivered;
        case PolicyClass::kPrimaryPath:
          return delivered && a.path == policy.primary_path;
        case PolicyClass::kIsolation: {
          // The two flows must not cross a common link (vacuous when either
          // is not delivered).
          Walk(policy.src2, policy.dst2, routes_to(policy.dst2), &b, visited);
          if (!delivered || b.kind != ForwardingOutcome::Kind::kDelivered) {
            return true;
          }
          return std::none_of(b.links.begin(), b.links.end(), [&](LinkId l) {
            return std::find(a.links.begin(), a.links.end(), l) != a.links.end();
          });
        }
      }
      return false;
    };

    size_t open = members.size();
    std::vector<std::vector<LinkId>> level = {{}};
    for (int depth = 0; !level.empty(); ++depth) {
      // Enumerate no deeper than the deepest open policy needs.
      int bound = -1;
      for (size_t i : members) {
        if (violated[i] == 0) {
          bound = std::max(bound, FailureBound(policies[i], cap));
        }
      }
      if (depth > bound) {
        break;
      }
      std::vector<std::vector<LinkId>> next;
      for (size_t s = 0; s < level.size(); ++s) {
        const std::vector<LinkId>& failed = level[s];
        for (LinkId l : failed) {
          mask[static_cast<size_t>(l)] = 1;
        }
        for (size_t t = 0; t < dests.size(); ++t) {
          Compute(*dests[t], mask, ws, &tables[t]);
        }
        for (LinkId l : failed) {
          mask[static_cast<size_t>(l)] = 0;
        }
        local.route_tables += static_cast<int64_t>(dests.size());
        ++local.failure_sets;

        for (size_t i : members) {
          if (violated[i] == 0 && FailureBound(policies[i], cap) >= depth &&
              !holds(policies[i])) {
            violated[i] = 1;
            --open;
          }
        }
        if (open == 0) {
          if (s + 1 < level.size() || depth < bound) {
            ++local.early_exits;
          }
          break;
        }
        if (depth == bound) {
          continue;
        }
        // Branch only on links the tables used: failing any other link
        // leaves every table unchanged (see the header comment).
        used = tables[0].used;
        for (size_t t = 1; t < tables.size(); ++t) {
          merged.clear();
          std::set_union(used.begin(), used.end(), tables[t].used.begin(),
                         tables[t].used.end(), std::back_inserter(merged));
          used.swap(merged);
        }
        local.branches_pruned += static_cast<int64_t>(link_count - failed.size() - used.size());
        for (LinkId l : used) {
          std::vector<LinkId> child = failed;
          child.insert(std::upper_bound(child.begin(), child.end(), l), l);
          next.push_back(std::move(child));
        }
      }
      if (open == 0) {
        break;
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      level = std::move(next);
    }
  }

  if (counters != nullptr) {
    *counters = local;
  }
  std::vector<Policy> violations;
  for (size_t i = 0; i < policies.size(); ++i) {
    if (violated[i] != 0) {
      violations.push_back(policies[i]);
    }
  }
  return violations;
}

bool CheckPolicyBySimulation(const Network& network, const Policy& policy,
                             int failure_cap) {
  return FindSimulationViolations(network, {policy}, failure_cap).empty();
}

std::vector<Policy> FindSimulationViolations(const Network& network,
                                             const std::vector<Policy>& policies,
                                             int failure_cap) {
  SimulationCounters counters;
  std::vector<Policy> violations =
      Simulator(network).Violations(policies, failure_cap, &counters);
  obs::Registry& registry = obs::CurrentRegistry();
  registry.counter("simulate.route_tables").Add(counters.route_tables);
  registry.counter("simulate.failure_sets").Add(counters.failure_sets);
  registry.counter("simulate.branches_pruned").Add(counters.branches_pruned);
  registry.counter("simulate.early_exits").Add(counters.early_exits);
  return violations;
}

}  // namespace cpr
