// Tests for the control-plane simulator: route computation (administrative
// distance, OSPF costs, statics, redistribution), ACL evaluation along the
// forwarding path, failure enumeration, and agreement with the ETG
// verifiers on choke-point-filtered networks.

#include <gtest/gtest.h>

#include "config/parser.h"
#include "simulate/simulator.h"
#include "tests/example_network.h"
#include "verify/checker.h"
#include "verify/inference.h"

namespace cpr {
namespace {

Network MustNetwork(std::vector<std::string> texts, NetworkAnnotations annotations = {}) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    if (!parsed.ok()) {
      throw std::runtime_error(parsed.error().message());
    }
    configs.push_back(std::move(parsed).value());
  }
  Result<Network> network = Network::Build(std::move(configs), std::move(annotations));
  if (!network.ok()) {
    throw std::runtime_error(network.error().message());
  }
  return std::move(network).value();
}

TEST(SimulatorTest, OspfPrefersCheaperPath) {
  Network network = BuildExampleNetwork();
  Simulator simulator(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  ForwardingOutcome out = simulator.Forward(s, t);
  ASSERT_EQ(out.kind, ForwardingOutcome::Kind::kDelivered);
  // Only available path: A -> B -> C (A-C has no adjacency).
  EXPECT_EQ(out.path.size(), 3u);
  EXPECT_EQ(out.links.size(), 2u);
}

TEST(SimulatorTest, FailureForcesNoRoute) {
  Network network = BuildExampleNetwork();
  Simulator simulator(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  DeviceId a = *network.FindDevice("A");
  DeviceId b = *network.FindDevice("B");
  std::set<LinkId> fail = {*network.FindLink(a, b)};
  EXPECT_EQ(simulator.Forward(s, t, fail).kind, ForwardingOutcome::Kind::kNoRoute);
}

TEST(SimulatorTest, PrimaryStaticWinsOverOspf) {
  // Two routers, two parallel links; static (AD 1) on the second link must
  // beat the OSPF route on the first.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e1
 ip address 10.0.2.1/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e1
 ip address 10.0.2.2/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
ip route 10.50.0.0/24 10.0.2.1
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));
  ForwardingOutcome out = simulator.Forward(src, dst);
  ASSERT_EQ(out.kind, ForwardingOutcome::Kind::kDelivered);
  ASSERT_EQ(out.links.size(), 1u);
  // The static's link is the e1-e1 (10.0.2.0/24) link.
  EXPECT_EQ(network.links()[static_cast<size_t>(out.links[0])].prefix,
            *Ipv4Prefix::Parse("10.0.2.0/24"));
}

TEST(SimulatorTest, BackupStaticUsedOnlyWhenOspfDies) {
  // Same topology, but the static has AD 200: OSPF (110) wins while its
  // link lives, and the static takes over when it fails.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e1
 ip address 10.0.2.1/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e1
 ip address 10.0.2.2/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
ip route 10.50.0.0/24 10.0.2.1 200
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));

  ForwardingOutcome normal = simulator.Forward(src, dst);
  ASSERT_EQ(normal.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_EQ(network.links()[static_cast<size_t>(normal.links[0])].prefix,
            *Ipv4Prefix::Parse("10.0.1.0/24"));  // OSPF link.

  LinkId ospf_link = normal.links[0];
  ForwardingOutcome failed_over = simulator.Forward(src, dst, {ospf_link});
  ASSERT_EQ(failed_over.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_EQ(network.links()[static_cast<size_t>(failed_over.links[0])].prefix,
            *Ipv4Prefix::Parse("10.0.2.0/24"));  // Static link.
}

TEST(SimulatorTest, RouteFilterBlackholes) {
  // B filters routes to the destination: traffic blackholes at B's
  // upstream... i.e. A itself never hears the route.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute connected
 passive-interface e2
 network 10.0.0.0/8 area 0
 distribute-list prefix NO50
ip prefix-list NO50 deny 10.50.0.0/24
ip prefix-list NO50 permit 0.0.0.0/0 le 32
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));
  EXPECT_EQ(simulator.Forward(src, dst).kind, ForwardingOutcome::Kind::kNoRoute);
  // The reverse direction is unfiltered.
  EXPECT_EQ(simulator.Forward(dst, src).kind, ForwardingOutcome::Kind::kDelivered);
}

TEST(SimulatorTest, WaypointCrossingRecorded) {
  Network network = BuildExampleNetwork();
  Simulator simulator(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  SubnetId u = *network.FindSubnet(ExampleSubnetU());
  EXPECT_TRUE(simulator.Forward(s, t).crossed_waypoint);   // Crosses B-C.
  ForwardingOutcome to_u = simulator.Forward(t, u);
  ASSERT_EQ(to_u.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_TRUE(to_u.crossed_waypoint);  // C -> B crosses the firewall link.
}

// PC3 with k <= 0 quantifies over "fewer than k failures", an empty range:
// it holds vacuously, as in the graph checker, instead of falling through to
// an enumeration of every link subset. A negative failure cap counts as 0.
TEST(SimulatorTest, NonPositiveBoundsClampToZero) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  SubnetId u = *network.FindSubnet(ExampleSubnetU());
  Simulator simulator(network);
  for (int k : {0, -1, -7}) {
    // S -> U is blocked under every failure set, yet "< k failures" names none.
    Policy policy = Policy::Reachability(s, u, k);
    EXPECT_TRUE(VerifyPolicy(harc, policy)) << k;
    EXPECT_TRUE(CheckPolicyBySimulation(network, policy, 2)) << k;
    SimulationCounters counters;
    EXPECT_TRUE(simulator.Violations({policy}, 2, &counters).empty());
    EXPECT_EQ(counters.failure_sets, 0);
  }

  const std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s, u), Policy::AlwaysWaypoint(s, t),
      Policy::Reachability(s, t, 1), Policy::AlwaysBlocked(s, t)};
  SimulationCounters counters;
  EXPECT_EQ(simulator.Violations(policies, -3, &counters),
            FindSimulationViolations(network, policies, 0));
  EXPECT_EQ(counters.failure_sets, 2);  // The empty set, once per destination.
}

// On networks whose filters sit at destination choke points (the DC dataset
// pattern), the ETG verifier and the simulator must agree on every inferred
// policy — the model-vs-execution alignment the end-to-end validation rests
// on.
TEST(SimulatorAgreementTest, MatchesEtgVerdictsOnExampleNetwork) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  std::vector<Policy> policies = InferPolicies(harc);
  ASSERT_FALSE(policies.empty());
  for (const Policy& policy : policies) {
    EXPECT_TRUE(VerifyPolicy(harc, policy)) << policy.ToString(network);
    EXPECT_TRUE(CheckPolicyBySimulation(network, policy, 3)) << policy.ToString(network);
  }
}

}  // namespace
}  // namespace cpr
