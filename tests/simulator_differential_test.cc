// Differential tests: the indexed, destination-major, pruned simulator
// against the brute-force reference enumerator (tests/reference_simulator.h).
//
// Both must return identical violation lists, in the same order, for
// failure caps 0-3 on: the 24 data-center networks of the paper's Fig 7
// population (dataset seed 2017, scale 0.25), broken and after a repair made
// with the simulator off; fat-tree (4-port) PC1/PC2/PC3/PC4/PC5 scenarios,
// working and broken; and, with every policy shape over every traffic class,
// the paper's running example and a small network mixing OSPF, BGP, RIP,
// redistribution and statics. Property tests check, for seeded random
// failure sets, the route tables against the reference and the used-link
// lemma the pruning rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "config/parser.h"
#include "core/cpr.h"
#include "simulate/simulator.h"
#include "tests/example_network.h"
#include "tests/reference_simulator.h"
#include "workload/datacenter.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

constexpr int kMaxCap = 3;

Network MustNetwork(const std::vector<std::string>& texts,
                    const NetworkAnnotations& annotations) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    if (!parsed.ok()) {
      throw std::runtime_error(parsed.error().message());
    }
    configs.push_back(std::move(parsed).value());
  }
  Result<Network> network = Network::Build(std::move(configs), annotations);
  if (!network.ok()) {
    throw std::runtime_error(network.error().message());
  }
  return std::move(network).value();
}

std::string Names(const Network& network, const std::vector<Policy>& policies) {
  std::string out;
  for (const Policy& policy : policies) {
    out += "  " + policy.ToString(network) + "\n";
  }
  return out;
}

// The new simulator returns exactly the reference's violation list at one
// failure cap.
void ExpectMatchesReference(const Network& network, const std::vector<Policy>& policies,
                            int cap, const std::string& label) {
  std::vector<Policy> expected = reference::FindSimulationViolations(network, policies, cap);
  std::vector<Policy> actual = FindSimulationViolations(network, policies, cap);
  EXPECT_EQ(actual, expected) << label << " cap " << cap << "\nexpected:\n"
                              << Names(network, expected) << "actual:\n"
                              << Names(network, actual);
}

// ...at every failure cap 0-3.
void ExpectMatchesReference(const Network& network, const std::vector<Policy>& policies,
                            const std::string& label) {
  for (int cap = 0; cap <= kMaxCap; ++cap) {
    ExpectMatchesReference(network, policies, cap, label);
  }
}

// One (DC network, failure cap, snapshot) triple per test: the brute-force
// reference needs over a minute on the largest network at cap 3, so the
// triples run in parallel under ctest.
class SimulatorDifferentialDcTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SimulatorDifferentialDcTest, MatchesReference) {
  const auto [index, cap, repaired] = GetParam();
  DatacenterNetwork dc = GenerateDatacenterNetwork(index, 2017, 0.25);
  const std::string label = "dc " + std::to_string(index);
  if (!repaired) {
    ExpectMatchesReference(MustNetwork(dc.broken_configs, dc.annotations), dc.policies, cap,
                           label + " broken");
    return;
  }
  Result<Cpr> cpr = Cpr::FromConfigTexts(dc.broken_configs, dc.annotations);
  ASSERT_TRUE(cpr.ok()) << cpr.error().message();
  CprOptions options;
  options.validate_with_simulator = false;
  Result<CprReport> report = cpr->Repair(dc.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  Result<Network> patched =
      Network::Build(report->patched_configs, report->patched_annotations);
  ASSERT_TRUE(patched.ok()) << patched.error().message();
  ExpectMatchesReference(*patched, dc.policies, cap, label + " repaired");
}

INSTANTIATE_TEST_SUITE_P(
    Fig7, SimulatorDifferentialDcTest,
    ::testing::Combine(::testing::Range(0, 24), ::testing::Range(0, kMaxCap + 1),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, int, bool>>& info) {
      return "dc" + std::to_string(std::get<0>(info.param)) + "_cap" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_repaired" : "_broken");
    });

class SimulatorDifferentialFatTreeTest : public ::testing::TestWithParam<PolicyClass> {};

TEST_P(SimulatorDifferentialFatTreeTest, WorkingAndBrokenMatchReference) {
  const PolicyClass pc = GetParam();
  // Fat-tree scenarios carry no PC5 policies; pair up the PC3 scenario's
  // traffic classes instead, once with each flow's own destination (two
  // destinations' tables drive the enumeration) and once toward one.
  FatTreeScenario scenario = MakeFatTreeScenario(
      4, pc == PolicyClass::kIsolation ? PolicyClass::kReachability : pc, 12, 3);
  std::vector<Policy> policies = scenario.policies;
  if (pc == PolicyClass::kIsolation) {
    policies.clear();
    for (size_t i = 0; i + 1 < scenario.policies.size(); i += 2) {
      const Policy& x = scenario.policies[i];
      const Policy& y = scenario.policies[i + 1];
      policies.push_back(Policy::Isolated(x.src, x.dst, y.src, y.dst));
      policies.push_back(Policy::Isolated(x.src, x.dst, y.src, x.dst));
    }
  }
  const std::string label = PolicyClassName(pc);
  ExpectMatchesReference(MustNetwork(scenario.working_configs, scenario.annotations),
                         policies, label + " working");
  ExpectMatchesReference(MustNetwork(scenario.broken_configs, scenario.annotations),
                         policies, label + " broken");
}

INSTANTIATE_TEST_SUITE_P(Ft4, SimulatorDifferentialFatTreeTest,
                         ::testing::Values(PolicyClass::kAlwaysBlocked,
                                           PolicyClass::kAlwaysWaypoint,
                                           PolicyClass::kReachability,
                                           PolicyClass::kPrimaryPath,
                                           PolicyClass::kIsolation),
                         [](const ::testing::TestParamInfo<PolicyClass>& info) {
                           return PolicyClassName(info.param);
                         });

// Every policy shape over every traffic class: PC1, PC2, PC3 with k = 1..3,
// PC4 on today's path, and PC5 against every other source toward the same
// destination.
std::vector<Policy> EveryPolicyShape(const Network& network) {
  const SubnetId subnet_count = static_cast<SubnetId>(network.subnets().size());
  Simulator simulator(network);
  std::vector<Policy> policies;
  for (SubnetId s = 0; s < subnet_count; ++s) {
    for (SubnetId d = 0; d < subnet_count; ++d) {
      if (s == d) {
        continue;
      }
      policies.push_back(Policy::AlwaysBlocked(s, d));
      policies.push_back(Policy::AlwaysWaypoint(s, d));
      for (int k = 1; k <= 3; ++k) {
        policies.push_back(Policy::Reachability(s, d, k));
      }
      policies.push_back(Policy::PrimaryPath(s, d, simulator.Forward(s, d).path));
      for (SubnetId s2 = 0; s2 < subnet_count; ++s2) {
        if (s2 != s) {
          policies.push_back(Policy::Isolated(s, d, s2, d));
        }
      }
    }
  }
  return policies;
}

// Checked up to the caps and exhaustively (cap = link count).
TEST(SimulatorDifferentialTest, PaperExampleEveryPolicyShape) {
  Network network = BuildExampleNetwork();
  std::vector<Policy> policies = EveryPolicyShape(network);
  ExpectMatchesReference(network, policies, "paper example");
  const int all = static_cast<int>(network.links().size());
  EXPECT_EQ(FindSimulationViolations(network, policies, all),
            reference::FindSimulationViolations(network, policies, all));
}

// Five routers mixing every route source the simulator models: OSPF with
// costs, a distribute list and passive interfaces; BGP with a `network`
// statement; RIP; mutual redistribution; a primary and a backup static on a
// protocol-free link; ACLs on a transit link; and a waypoint.
Network MixedProtocolNetwork() {
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"R2", "R3"});
  return MustNetwork(
      {
          R"(hostname R1
interface e12
 ip address 10.0.12.1/24
interface e13
 ip address 10.0.13.1/24
 ip ospf cost 5
interface e14
 ip address 10.0.14.1/24
interface host
 ip address 10.101.0.1/24
router ospf 1
 redistribute connected
 redistribute static
 passive-interface host
 network 10.0.12.0/24 area 0
 network 10.0.13.0/24 area 0
ip route 10.104.0.0/24 10.0.14.4 200
ip route 10.105.0.0/16 10.0.14.4
)",
          R"(hostname R2
interface e12
 ip address 10.0.12.2/24
interface e23
 ip address 10.0.23.2/24
 ip ospf cost 3
interface e25
 ip address 10.0.25.2/24
interface host
 ip address 10.102.0.1/24
ip prefix-list NO103 deny 10.103.0.0/24
ip prefix-list NO103 permit 0.0.0.0/0 le 32
router ospf 1
 redistribute connected
 redistribute rip
 passive-interface host
 network 10.0.12.0/24 area 0
 network 10.0.23.0/24 area 0
 distribute-list prefix NO103
router rip
 network 10.0.25.0/24
 redistribute ospf 1
)",
          R"(hostname R3
interface e13
 ip address 10.0.13.3/24
interface e23
 ip address 10.0.23.3/24
interface e34
 ip address 10.0.34.3/24
 ip access-group NO101TO104 out
interface host
 ip address 10.103.0.1/24
ip access-list extended NO101TO104
 deny ip 10.101.0.0/24 10.104.0.0/24
 permit ip any any
router ospf 1
 redistribute connected
 redistribute bgp 65003
 passive-interface host
 network 10.0.13.0/24 area 0
 network 10.0.23.0/24 area 0
router bgp 65003
 neighbor 10.0.34.4 remote-as 65004
 redistribute ospf 1
)",
          R"(hostname R4
interface e14
 ip address 10.0.14.4/24
interface e34
 ip address 10.0.34.4/24
interface e45
 ip address 10.0.45.4/24
interface host
 ip address 10.104.0.1/24
router bgp 65004
 neighbor 10.0.34.3 remote-as 65003
 network 10.104.0.0/24
 redistribute rip
router rip
 network 10.0.45.0/24
 redistribute bgp 65004
)",
          R"(hostname R5
interface e25
 ip address 10.0.25.5/24
interface e45
 ip address 10.0.45.5/24
interface host
 ip address 10.105.0.1/24
router rip
 network 10.0.0.0/8
 redistribute connected
)",
      },
      annotations);
}

TEST(SimulatorDifferentialTest, MixedProtocolsEveryPolicyShape) {
  Network network = MixedProtocolNetwork();
  ASSERT_EQ(network.links().size(), 7u);
  // Every route source shows up in some table; the backup static (AD 200)
  // only once R1's OSPF links fail.
  Simulator simulator(network);
  const DeviceId r1 = *network.FindDevice("R1");
  const std::set<LinkId> r1_ospf = {*network.FindLink(r1, *network.FindDevice("R2")),
                                    *network.FindLink(r1, *network.FindDevice("R3"))};
  std::set<int> distances;
  for (SubnetId dst = 0; dst < static_cast<SubnetId>(network.subnets().size()); ++dst) {
    for (const std::set<LinkId>& failed : {std::set<LinkId>{}, r1_ospf}) {
      for (const auto& route : simulator.ComputeRoutes(dst, failed)) {
        if (route.has_value()) {
          distances.insert(route->admin_distance);
        }
      }
    }
  }
  EXPECT_EQ(distances, (std::set<int>{kAdConnected, kAdStaticDefault, kAdBgp, kAdOspf,
                                      kAdRip, 200}));
  std::vector<Policy> policies = EveryPolicyShape(network);
  ExpectMatchesReference(network, policies, "mixed protocols");
  const int all = static_cast<int>(network.links().size());
  EXPECT_EQ(FindSimulationViolations(network, policies, all),
            reference::FindSimulationViolations(network, policies, all));
  // Not a vacuous comparison: some policies hold and some do not.
  std::vector<Policy> violated = FindSimulationViolations(network, policies, 2);
  EXPECT_GT(violated.size(), 0u);
  EXPECT_LT(violated.size(), policies.size());
}

// The used-link lemma: for a failure set F and any alive link l outside
// Used(F), failing l as well changes no route and no used link. R(F) itself
// must equal the reference's table entry by entry.
void ExpectLemmaHolds(const Network& network, unsigned seed, int samples) {
  Simulator simulator(network);
  reference::Simulator oracle(network);
  const int link_count = static_cast<int>(network.links().size());
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> size_of(0, std::min(3, link_count));
  std::uniform_int_distribution<int> link_of(0, link_count - 1);
  std::uniform_int_distribution<int> subnet_of(
      0, static_cast<int>(network.subnets().size()) - 1);
  int checked = 0;
  for (int sample = 0; sample < samples; ++sample) {
    const SubnetId dst = subnet_of(rng);
    std::set<LinkId> failed;
    for (int n = size_of(rng); n > 0; --n) {
      failed.insert(link_of(rng));
    }
    std::vector<LinkId> used;
    Simulator::RouteTable routes = simulator.ComputeRoutes(dst, failed, &used);
    const auto expected = oracle.ComputeRoutes(dst, failed);
    ASSERT_EQ(routes.size(), expected.size());
    for (size_t d = 0; d < routes.size(); ++d) {
      ASSERT_EQ(routes[d].has_value(), expected[d].has_value()) << "device " << d;
      if (routes[d].has_value()) {
        EXPECT_EQ(routes[d]->admin_distance, expected[d]->admin_distance) << "device " << d;
        EXPECT_EQ(routes[d]->out_link, expected[d]->out_link) << "device " << d;
      }
    }
    for (LinkId l = 0; l < link_count; ++l) {
      if (failed.count(l) > 0 || std::binary_search(used.begin(), used.end(), l)) {
        continue;
      }
      std::set<LinkId> more = failed;
      more.insert(l);
      std::vector<LinkId> more_used;
      Simulator::RouteTable more_routes = simulator.ComputeRoutes(dst, more, &more_used);
      ASSERT_EQ(more_routes.size(), routes.size());
      for (size_t d = 0; d < routes.size(); ++d) {
        EXPECT_EQ(more_routes[d], routes[d]) << "dst " << dst << " device " << d
                                             << " link " << l;
      }
      EXPECT_EQ(more_used, used) << "dst " << dst << " link " << l;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(SimulatorDifferentialTest, UsedLinkLemmaOnDatacenterNetworks) {
  for (int index : {0, 5, 8, 17}) {
    DatacenterNetwork dc = GenerateDatacenterNetwork(index, 2017, 0.25);
    ExpectLemmaHolds(MustNetwork(dc.broken_configs, dc.annotations), 100 + index, 40);
    ExpectLemmaHolds(MustNetwork(dc.handfixed_configs, dc.annotations), 200 + index, 40);
  }
}

TEST(SimulatorDifferentialTest, UsedLinkLemmaOnFatTreesAndPaperExample) {
  for (PolicyClass pc : {PolicyClass::kAlwaysBlocked, PolicyClass::kAlwaysWaypoint,
                         PolicyClass::kPrimaryPath}) {
    FatTreeScenario scenario = MakeFatTreeScenario(4, pc, 4, 3);
    ExpectLemmaHolds(MustNetwork(scenario.broken_configs, scenario.annotations), 7, 40);
  }
  ExpectLemmaHolds(BuildExampleNetwork(), 11, 40);
  ExpectLemmaHolds(MixedProtocolNetwork(), 13, 200);
}

}  // namespace
}  // namespace cpr
