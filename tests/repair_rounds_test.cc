// Two-round repair (src/repair/repair.cc, DESIGN.md §4): each group is first
// solved over its violated policies only, its satisfied ("deferred")
// policies are checked on the graph, and a group whose model breaks one is
// re-solved with every policy.
//
// The contract under test: the rounds are invisible in the verdict. Status,
// predicted cost and residual graph violations equal those of a reference
// that encodes every destination group in full (PartitionAllGroups +
// RepairEncoder, solved directly on the backend), and an escalated group
// yields exactly the full encoding's cost and edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "config/parser.h"
#include "core/cpr.h"
#include "core/stats_report.h"
#include "incremental/dirty.h"
#include "incremental/incremental.h"
#include "incremental/session.h"
#include "obs/expose.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "repair/encoder.h"
#include "repair/repair.h"
#include "solver/backend.h"
#include "tests/example_network.h"
#include "verify/checker.h"
#include "workload/datacenter.h"

namespace cpr {
namespace {

std::unique_ptr<MaxSmtBackend> Backend(BackendChoice choice) {
  return choice == BackendChoice::kZ3 ? MakeZ3Backend() : MakeInternalBackend();
}

// The single-round pipeline, rebuilt from public pieces: every destination
// group encoded with all of its policies and solved directly.
struct FullEncoding {
  // Verdict and cost per group, in PartitionAllGroups order.
  std::vector<std::pair<std::vector<SubnetId>, MaxSmtResult>> groups;
  int64_t cost = 0;
  Harc repaired;
  RepairEdits edits;
};

FullEncoding SolveFullEncoding(const Harc& harc, const std::vector<Policy>& policies,
                               const RepairOptions& options) {
  FullEncoding full{{}, 0, harc, {}};
  const EtgUniverse& universe = harc.universe();
  for (const RepairProblem& problem : PartitionAllGroups(harc, policies, options)) {
    RepairEncoder encoder(harc, problem, options);
    EXPECT_TRUE(encoder.Encode().ok());
    MaxSmtResult model = Backend(options.backend)->Solve(encoder.system(), 0);
    if (model.ok()) {
      full.cost += model.cost;
      encoder.CollectEdits(model, &full.edits);
      for (SubnetId dst : problem.dsts) {
        for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
          full.repaired.mutable_detg(dst).SetPresent(e, encoder.DecodeDst(model, dst, e));
        }
      }
      for (const auto& [src, dst] : problem.tcs) {
        for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
          full.repaired.mutable_tcetg(src, dst).SetPresent(
              e, encoder.DecodeTc(model, src, dst, e));
        }
      }
    }
    full.groups.emplace_back(problem.dsts, std::move(model));
  }
  return full;
}

// The run status the single-round pipeline reports for these group
// verdicts: groups with cost 0 need no repair and are not formulated per
// destination (the inputs below always violate something).
RepairStatus ExpectedStatus(const FullEncoding& full) {
  int solved = 0;
  std::optional<MaxSmtResult::Status> first_failure;
  for (const auto& [dsts, model] : full.groups) {
    if (!model.ok()) {
      first_failure = first_failure.value_or(model.status);
    } else if (model.cost > 0) {
      ++solved;
    }
  }
  if (!first_failure.has_value()) {
    return RepairStatus::kSuccess;
  }
  if (solved > 0) {
    return RepairStatus::kPartial;
  }
  EXPECT_EQ(*first_failure, MaxSmtResult::Status::kUnsat);
  return RepairStatus::kUnsat;
}

std::vector<std::string> Described(const RepairEdits& edits) {
  std::vector<std::string> lines;
  auto add = [&lines](const auto& list) {
    for (const auto& edit : list) {
      lines.push_back(ConstructKey(edit) + " " + Describe(edit));
    }
  };
  add(edits.adjacencies);
  add(edits.redistributions);
  add(edits.filters);
  add(edits.static_routes);
  add(edits.acls);
  add(edits.costs);
  add(edits.waypoints);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// ---------------------------------------------------------------------------
// Differential: the 24 DC networks of the Fig 7 population, both
// granularities, both backends, as given and with a contradiction added
// (all-tcs contradictions on the internal engine only).

class RepairRoundsDcTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(RepairRoundsDcTest, MatchesFullEncoding) {
  const auto [index, impossible] = GetParam();
  DatacenterNetwork dc = GenerateDatacenterNetwork(index, 2017, 0.25);
  std::vector<Config> configs;
  for (const std::string& text : dc.broken_configs) {
    Result<Config> parsed = ParseConfig(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    configs.push_back(*std::move(parsed));
  }
  Result<Network> network = Network::Build(std::move(configs), dc.annotations);
  ASSERT_TRUE(network.ok()) << network.error().message();
  const Harc harc = Harc::Build(*network);
  std::vector<Policy> policies = dc.policies;
  if (impossible) {
    // Block a traffic class that must stay reachable: unsatisfiable in
    // every round that sees both policies.
    const std::vector<Policy> violated = FindViolations(harc, policies);
    auto pc3 = std::find_if(violated.begin(), violated.end(), [](const Policy& p) {
      return p.pc == PolicyClass::kReachability;
    });
    ASSERT_NE(pc3, violated.end());
    policies.push_back(Policy::AlwaysBlocked(pc3->src, pc3->dst));
  }

  for (Granularity granularity : {Granularity::kPerDst, Granularity::kAllTcs}) {
    for (BackendChoice backend : {BackendChoice::kInternal, BackendChoice::kZ3}) {
      if (impossible && granularity == Granularity::kAllTcs &&
          backend == BackendChoice::kZ3) {
        // z3 needs minutes to refute the whole-network problem of the larger
        // networks (dc8: 100 s for the reference alone); the internal engine
        // covers the all-tcs UNSAT case.
        continue;
      }
      SCOPED_TRACE(std::string(granularity == Granularity::kPerDst ? "perdst" : "alltcs") +
                   (backend == BackendChoice::kZ3 ? " z3" : " internal"));
      RepairOptions options;
      options.backend = backend;
      options.granularity = granularity;
      options.num_threads = 2;
      Result<RepairOutcome> outcome = ComputeRepair(harc, policies, options);
      ASSERT_TRUE(outcome.ok()) << outcome.error().message();
      const FullEncoding full = SolveFullEncoding(harc, policies, options);

      EXPECT_EQ(outcome->status, ExpectedStatus(full));
      EXPECT_EQ(outcome->predicted_cost, full.cost);
      EXPECT_EQ(FindViolations(outcome->repaired, policies),
                FindViolations(full.repaired, policies));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig7, RepairRoundsDcTest,
    ::testing::Combine(::testing::Range(0, 24), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "dc" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_impossible" : "");
    });

// ---------------------------------------------------------------------------
// The paper example: PC3 S->T (k=2) is violated, PC2 S->T holds. The
// cheapest fix for PC3 alone bypasses the B-C firewall, so round 1 breaks
// the deferred PC2 and the group escalates.

class RepairRoundsTest : public ::testing::Test {
 protected:
  RepairRoundsTest() : network_(BuildExampleNetwork()), harc_(Harc::Build(network_)) {
    r_ = *network_.FindSubnet(ExampleSubnetR());
    s_ = *network_.FindSubnet(ExampleSubnetS());
    t_ = *network_.FindSubnet(ExampleSubnetT());
  }

  std::vector<Policy> Repairable() const {
    return {Policy::AlwaysWaypoint(s_, t_), Policy::Reachability(s_, t_, 2)};
  }

  static RepairOptions Options() {
    RepairOptions options;
    options.backend = BackendChoice::kInternal;
    return options;
  }

  Network network_;
  Harc harc_;
  SubnetId r_, s_, t_;
};

TEST_F(RepairRoundsTest, EscalatedGroupMatchesFullEncoding) {
  Result<RepairOutcome> outcome = ComputeRepair(harc_, Repairable(), Options());
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->stats.groups_escalated, 1);
  const FullEncoding full = SolveFullEncoding(harc_, Repairable(), Options());
  EXPECT_EQ(outcome->predicted_cost, full.cost);
  EXPECT_EQ(Described(outcome->edits), Described(full.edits));
}

TEST_F(RepairRoundsTest, EscalatedFirstRoundIsReportedAndCounted) {
  Result<RepairOutcome> outcome = ComputeRepair(harc_, Repairable(), Options());
  ASSERT_TRUE(outcome.ok());
  const RepairStats& stats = outcome->stats;
  EXPECT_EQ(stats.policies_deferred, 1);
  EXPECT_EQ(stats.groups_escalated, 1);
  ASSERT_EQ(stats.problem_reports.size(), 1u);
  ASSERT_EQ(stats.superseded_reports.size(), 1u);
  const ProblemReport& first = stats.superseded_reports[0];
  EXPECT_TRUE(first.solved());
  EXPECT_TRUE(first.edits.adjacencies.empty() && first.edits.static_routes.empty() &&
              first.edits.acls.empty() && first.edits.filters.empty());
  // Both rounds' encodings and solve times are in the totals.
  const RepairOptions options = Options();
  const RepairProblem problem = PartitionAllGroups(harc_, Repairable(), options)[0];
  RepairEncoder full(harc_, problem, options);
  ASSERT_TRUE(full.Encode().ok());
  EXPECT_GT(stats.bool_vars, full.system().BoolCount());
  EXPECT_DOUBLE_EQ(stats.solve_seconds, first.solve_seconds +
                                            stats.problem_reports[0].solve_seconds);
}

TEST_F(RepairRoundsTest, AcceptedFirstRoundDefersWithoutEscalating) {
  // PC1 S->T is violated; PC2 R->T holds and is deferred. Blocking S->T
  // only removes edges (per destination the aETG is fixed), so it cannot
  // open a firewall bypass for R->T, whatever single construct it changes.
  const std::vector<Policy> policies = {Policy::AlwaysBlocked(s_, t_),
                                        Policy::AlwaysWaypoint(r_, t_)};
  Result<RepairOutcome> outcome = ComputeRepair(harc_, policies, Options());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.policies_deferred, 1);
  EXPECT_EQ(outcome->stats.groups_escalated, 0);
  EXPECT_TRUE(outcome->stats.superseded_reports.empty());
  EXPECT_EQ(outcome->predicted_cost, SolveFullEncoding(harc_, policies, Options()).cost);
}

TEST_F(RepairRoundsTest, ImpossibleInputIsUnsatInBothRounds) {
  // S reaches T, so PC1 S->T is violated and encoded; PC3 S->T k=1 holds
  // and is deferred. Round 1 blocks S->T, the graph check sees PC3 broken,
  // and round 2 proves the pair unsatisfiable.
  const std::vector<Policy> policies = {Policy::AlwaysBlocked(s_, t_),
                                        Policy::Reachability(s_, t_, 1)};
  Result<RepairOutcome> outcome = ComputeRepair(harc_, policies, Options());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kUnsat);
  EXPECT_EQ(outcome->stats.groups_escalated, 1);
}

TEST_F(RepairRoundsTest, RoundCountersReachStatsJsonAndScrape) {
  obs::Registry registry;
  obs::RegistryScope scope(&registry);
  Result<Cpr> cpr = Cpr::FromConfigTexts({kExampleConfigA, kExampleConfigB, kExampleConfigC},
                                         network_.annotations());
  ASSERT_TRUE(cpr.ok()) << cpr.error().message();
  CprOptions options;
  options.repair = Options();
  options.validate_with_simulator = false;
  Result<CprReport> report = cpr->Repair(Repairable(), options);
  ASSERT_TRUE(report.ok()) << report.error().message();

  StatsRunInfo run;
  run.command = "repair";
  const std::string json = BuildStatsJson(run, &*report);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(json, &doc, &error)) << error;
  const obs::JsonValue* repair = doc.Find("repair");
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->Find("policies_deferred")->AsInt(), 1);
  EXPECT_EQ(repair->Find("groups_escalated")->AsInt(), 1);
  EXPECT_EQ(repair->Find("superseded_problems")->items.size(), 1u);

  const std::string scrape = obs::RenderPrometheus(registry.TakeSnapshot());
  EXPECT_NE(scrape.find("cpr_repair_policies_deferred_total{subsystem=\"repair\"} 1"),
            std::string::npos)
      << scrape;
  EXPECT_NE(scrape.find("cpr_repair_groups_escalated_total{subsystem=\"repair\"} 1"),
            std::string::npos)
      << scrape;
}

TEST_F(RepairRoundsTest, IncrementalPathCatchesBreakOnUnencodedTrafficClass) {
  // PC3 S->T k=2 is violated; PC2 R->T holds and its traffic class is not
  // encoded in round 1. The incremental engine turns merge propagation off,
  // so the check must derive R->T from the repaired dETG itself: a static
  // route that opens A-C for T bypasses the firewall for R->T too. Caught
  // here, the group escalates and the concrete re-verification finds
  // nothing left to fall back for.
  const std::vector<Policy> policies = {Policy::Reachability(s_, t_, 2),
                                        Policy::AlwaysWaypoint(r_, t_)};
  RepairOptions options = Options();
  options.granularity = Granularity::kPerDst;
  std::vector<Config> configs = ParseExampleConfigs();
  Result<std::shared_ptr<incremental::RepairSession>> session =
      incremental::BuildSession(configs, network_.annotations(), policies, options);
  ASSERT_TRUE(session.ok()) << session.error().message();
  Result<Network> network = Network::Build(configs, network_.annotations());
  ASSERT_TRUE(network.ok());
  incremental::DirtySet dirty;  // Unchanged snapshot: only the violated group re-solves.
  incremental::IncrementalStats seed;
  std::optional<Harc> harc = incremental::PrepareHarc(**session, *network, dirty, &seed);
  ASSERT_TRUE(harc.has_value());

  Result<incremental::IncrementalOutcome> outcome = incremental::TryIncrementalRepair(
      **session, *network, *harc, dirty, policies, options, seed);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  ASSERT_TRUE(outcome->result.has_value()) << outcome->stats.skipped_reason;
  EXPECT_EQ(outcome->result->stats.groups_escalated, 1);
  EXPECT_FALSE(outcome->stats.fell_back);
}

TEST_F(RepairRoundsTest, EscalatingGroupKeepsWarmStateForBothRounds) {
  // The first round and the full re-solve are different systems; each keeps
  // its own warm solver state, so re-solving the same snapshot hits both.
  const std::vector<Policy> policies = Repairable();
  RepairOptions options = Options();
  options.granularity = Granularity::kPerDst;
  std::vector<Config> configs = ParseExampleConfigs();
  Result<std::shared_ptr<incremental::RepairSession>> session =
      incremental::BuildSession(configs, network_.annotations(), policies, options);
  ASSERT_TRUE(session.ok()) << session.error().message();
  Result<Network> network = Network::Build(configs, network_.annotations());
  ASSERT_TRUE(network.ok());
  incremental::DirtySet dirty;
  incremental::IncrementalStats seed;
  std::optional<Harc> harc = incremental::PrepareHarc(**session, *network, dirty, &seed);
  ASSERT_TRUE(harc.has_value());

  std::vector<int> warm_hits;
  for (int pass = 0; pass < 2; ++pass) {
    Result<incremental::IncrementalOutcome> outcome = incremental::TryIncrementalRepair(
        **session, *network, *harc, dirty, policies, options, seed);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    ASSERT_TRUE(outcome->result.has_value()) << outcome->stats.skipped_reason;
    ASSERT_EQ(outcome->result->stats.groups_escalated, 1);
    warm_hits.push_back(outcome->stats.warm_hits);
  }
  EXPECT_EQ(warm_hits, (std::vector<int>{0, 2}));
}

// ---------------------------------------------------------------------------
// Two routing processes on one link. X and Y run OSPF and RIP, adjacent in
// both on the X-Y link; Z offers a second path, but its OSPF interfaces are
// passive. The PC3 checker counts S->T (k=2) as met by the link's OSPF and
// RIP adjacencies, while the encoding lets one path use each physical link.
// Deferring that PC3 would let round 1 fix the violated PC1 U->T beside it
// and pass the graph check below the full encoding's cost.

Network TwoProcessLinkNetwork() {
  const std::vector<std::string> texts = {
      R"(hostname X
interface xy
 ip address 10.0.1.1/24
interface xz
 ip address 10.0.2.1/24
interface s
 ip address 10.1.0.1/24
interface u
 ip address 10.3.0.1/24
router ospf 1
 redistribute connected
 passive-interface s
 passive-interface u
 network 10.0.1.0/24 area 0
 network 10.0.2.0/24 area 0
router rip
 network 10.0.1.0/24
 redistribute connected
)",
      R"(hostname Y
interface xy
 ip address 10.0.1.2/24
interface yz
 ip address 10.0.3.2/24
interface t
 ip address 10.2.0.1/24
router ospf 1
 redistribute connected
 passive-interface t
 network 10.0.1.0/24 area 0
 network 10.0.3.0/24 area 0
router rip
 network 10.0.1.0/24
 redistribute connected
)",
      R"(hostname Z
interface xz
 ip address 10.0.2.3/24
interface yz
 ip address 10.0.3.3/24
router ospf 1
 passive-interface xz
 passive-interface yz
 network 10.0.2.0/24 area 0
 network 10.0.3.0/24 area 0
)",
  };
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message();
    configs.push_back(*std::move(parsed));
  }
  Result<Network> network = Network::Build(std::move(configs), NetworkAnnotations{});
  EXPECT_TRUE(network.ok()) << network.error().message();
  return *std::move(network);
}

TEST(RepairRoundsTwoProcessTest, SatisfiedPc3IsEncodedWhenALinkBacksTwoEdges) {
  const Network network = TwoProcessLinkNetwork();
  const Harc harc = Harc::Build(network);
  const SubnetId s = *network.FindSubnet(*Ipv4Prefix::Parse("10.1.0.0/24"));
  const SubnetId t = *network.FindSubnet(*Ipv4Prefix::Parse("10.2.0.0/24"));
  const SubnetId u = *network.FindSubnet(*Ipv4Prefix::Parse("10.3.0.0/24"));
  const std::vector<Policy> policies = {Policy::Reachability(s, t, 2),
                                        Policy::AlwaysBlocked(u, t)};
  // The premise: the checker calls PC3 met on the one X-Y link.
  ASSERT_EQ(FindViolations(harc, policies), std::vector<Policy>{policies[1]});

  for (BackendChoice backend : {BackendChoice::kInternal, BackendChoice::kZ3}) {
    SCOPED_TRACE(backend == BackendChoice::kZ3 ? "z3" : "internal");
    RepairOptions options;
    options.backend = backend;
    Result<RepairOutcome> outcome = ComputeRepair(harc, policies, options);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    const FullEncoding full = SolveFullEncoding(harc, policies, options);
    EXPECT_EQ(outcome->stats.policies_deferred, 0);
    EXPECT_EQ(outcome->status, ExpectedStatus(full));
    EXPECT_EQ(outcome->predicted_cost, full.cost);
  }
}

}  // namespace
}  // namespace cpr
