// Tests for the PC5 isolation extension (paper §5.1: "isolation between two
// traffic classes (tc1 and tc2) can be encoded using the constraint
// ∀edge: edge_tc1 ⇒ ¬edge_tc2").

#include <gtest/gtest.h>

#include "core/cpr.h"
#include "core/policy_spec.h"
#include "tests/example_network.h"
#include "verify/checker.h"

namespace cpr {
namespace {

class IsolationTest : public ::testing::Test {
 protected:
  IsolationTest() : network_(BuildExampleNetwork()), harc_(Harc::Build(network_)) {
    r_ = *network_.FindSubnet(ExampleSubnetR());
    s_ = *network_.FindSubnet(ExampleSubnetS());
    t_ = *network_.FindSubnet(ExampleSubnetT());
    u_ = *network_.FindSubnet(ExampleSubnetU());
  }

  Network network_;
  Harc harc_;
  SubnetId r_, s_, t_, u_;
};

TEST_F(IsolationTest, VerifierDetectsSharedLinks) {
  // R->T and S->T both ride A->B->C: not isolated.
  EXPECT_FALSE(CheckIsolation(harc_, r_, t_, s_, t_));
  // S->U is blocked (no inter-device edges at all): vacuously isolated from
  // anything.
  EXPECT_TRUE(CheckIsolation(harc_, s_, u_, r_, t_));
}

TEST_F(IsolationTest, RepairSeparatesTwoFlows) {
  // Require R->T and S->T to be link-disjoint while both stay reachable.
  std::vector<Policy> policies = {
      Policy::Reachability(r_, t_, 1),
      Policy::Reachability(s_, t_, 1),
      Policy::Isolated(r_, t_, s_, t_),
  };
  CprOptions options;
  options.repair.granularity = Granularity::kAllTcs;  // aETG changes allowed.
  options.simulator_failure_cap = 3;
  Result<CprReport> report = Cpr::FromConfigs(ParseExampleConfigs(),
                                              [] {
                                                NetworkAnnotations a;
                                                a.waypoint_links.insert({"B", "C"});
                                                return a;
                                              }())
                                 ->Repair(policies, options);
  ASSERT_TRUE(report.ok()) << (report.ok() ? "" : report.error().message());
  ASSERT_EQ(report->status, RepairStatus::kSuccess);
  EXPECT_TRUE(report->residual_graph_violations.empty())
      << report->residual_graph_violations.size() << " residual graph violations";

  // Re-verify on the rebuilt network directly.
  Result<Network> rebuilt =
      Network::Build(report->patched_configs, report->patched_annotations);
  ASSERT_TRUE(rebuilt.ok());
  Harc rebuilt_harc = Harc::Build(*rebuilt);
  EXPECT_TRUE(CheckIsolation(rebuilt_harc, r_, t_, s_, t_));
  EXPECT_GE(LinkDisjointPathCount(rebuilt_harc, r_, t_), 1);
  EXPECT_GE(LinkDisjointPathCount(rebuilt_harc, s_, t_), 1);
}

TEST_F(IsolationTest, PerDstPartitioningMergesIsolatedDestinations) {
  std::vector<Policy> policies = {
      Policy::Reachability(r_, t_, 1),
      Policy::AlwaysBlocked(s_, u_),
      Policy::Isolated(r_, t_, r_, u_),
  };
  RepairOptions options;
  options.granularity = Granularity::kPerDst;
  std::vector<RepairProblem> problems =
      PartitionProblems(harc_, policies, options, FindViolations(harc_, policies));
  // The isolation pair couples destinations T and U: any problem containing
  // one must contain the other.
  for (const RepairProblem& problem : problems) {
    bool has_t = std::count(problem.dsts.begin(), problem.dsts.end(), t_) > 0;
    bool has_u = std::count(problem.dsts.begin(), problem.dsts.end(), u_) > 0;
    EXPECT_EQ(has_t, has_u);
  }
}

TEST_F(IsolationTest, SpecFormatRoundTrips) {
  std::string spec = "isolated 10.1.0.0/16 -> 10.20.0.0/16 with 10.2.0.0/16 -> 10.20.0.0/16\n";
  Result<std::vector<Policy>> parsed = ParseSpecPolicies(spec, network_);
  ASSERT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0], Policy::Isolated(r_, t_, s_, t_));
  EXPECT_EQ(FormatPolicySpec(*parsed, network_), spec);
}

}  // namespace
}  // namespace cpr
