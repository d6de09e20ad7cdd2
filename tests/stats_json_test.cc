// Schema tests for --stats-json: a real repair on the paper's running
// example must serialize to valid JSON that carries the run metadata, the
// stage-span trace, registry instruments, and per-problem solver counters.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "certify/certify.h"
#include "core/cpr.h"
#include "core/stats_report.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tests/example_network.h"
#include "verify/checker.h"

namespace cpr {
namespace {

// One repair run on the paper example (boolean-only policies through the
// internal backend so cdcl.* counters are exercised) with the trace and
// registry active, exactly as `cpr repair --stats-json` sets them up.
class StatsJsonTest : public ::testing::Test {
 protected:
  StatsJsonTest() {
    obs::Registry::Global().Reset();
    obs::Trace::Global().Enable();

    NetworkAnnotations annotations;
    annotations.waypoint_links.insert({"B", "C"});
    Result<Cpr> built =
        Cpr::FromConfigTexts({kExampleConfigA, kExampleConfigB, kExampleConfigC},
                             std::move(annotations));
    if (!built.ok()) {
      throw std::runtime_error(built.error().message());
    }
    cpr_ = std::make_unique<Cpr>(std::move(built).value());
    SubnetId s = *cpr_->network().FindSubnet(ExampleSubnetS());
    SubnetId t = *cpr_->network().FindSubnet(ExampleSubnetT());
    SubnetId u = *cpr_->network().FindSubnet(ExampleSubnetU());
    policies_ = {
        Policy::AlwaysBlocked(s, u),
        Policy::AlwaysWaypoint(s, t),
        Policy::Reachability(s, t, 2),
    };
  }

  ~StatsJsonTest() override { obs::Trace::Global().Disable(); }

  std::string RepairAndBuildJson() {
    CprOptions options;
    options.repair.backend = BackendChoice::kInternal;
    options.validate_with_simulator = false;
    Result<CprReport> report = cpr_->Repair(policies_, options);
    EXPECT_TRUE(report.ok());
    report_ = *report;

    StatsRunInfo run;
    run.command = "repair";
    run.config_dir = "tests/example";
    run.policy_file = "tests/example.policies";
    run.backend = "internal";
    run.granularity = "perdst";
    run.threads = 1;
    run.status = RepairStatusName(report_.status);
    run.wall_seconds = report_.stats.wall_seconds;
    return BuildStatsJson(run, &report_);
  }

  std::unique_ptr<Cpr> cpr_;
  std::vector<Policy> policies_;
  CprReport report_;
};

TEST_F(StatsJsonTest, DocumentIsValidJsonWithRequiredKeys) {
  std::string json = RepairAndBuildJson();
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;

  for (const char* key : {
           "\"schema_version\":1", "\"run\":", "\"stages\":", "\"counters\":",
           "\"gauges\":", "\"histograms\":", "\"repair\":", "\"problems\":",
           "\"solver_counter_totals\":", "\"solve_seconds_sum\":",
           "\"solve_wall_seconds\":", "\"command\":\"repair\"",
           "\"backend\":\"internal\"", "\"status\":\"success\"",
       }) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << "\n" << json;
  }
}

TEST_F(StatsJsonTest, CarriesStageSpansForThePipeline) {
  std::string json = RepairAndBuildJson();
  for (const char* stage : {
           "pipeline.parse_configs", "pipeline.build_network", "harc.build",
           "pipeline.repair", "repair.partition", "repair.encode", "repair.solve",
           "repair.problem", "solver.internal", "pipeline.translate",
           "pipeline.rebuild", "pipeline.reverify", "verify.find_violations",
       }) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + stage + "\""), std::string::npos)
        << "missing stage " << stage;
  }
}

TEST_F(StatsJsonTest, CarriesNonzeroCdclCounters) {
  std::string json = RepairAndBuildJson();
  ASSERT_EQ(report_.status, RepairStatus::kSuccess);
  ASSERT_FALSE(report_.stats.problem_reports.empty());

  // Per-problem counters made it onto the report...
  double decisions = 0, heap_picks = 0, fallback_picks = 0;
  for (const auto& [name, value] : report_.stats.solver_counter_totals) {
    if (name == "cdcl.decisions") decisions = value;
    if (name == "cdcl.heap_picks") heap_picks = value;
    if (name == "cdcl.fallback_picks") fallback_picks = value;
  }
  EXPECT_GT(decisions, 0);
  EXPECT_GT(heap_picks, 0);
  EXPECT_EQ(fallback_picks, 0);  // The heap serves every decision.

  // ...and into both the registry section and the repair section of the
  // document.
  EXPECT_NE(json.find("\"cdcl.decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"cdcl.conflicts\""), std::string::npos);
  EXPECT_NE(json.find("\"cdcl.heap_picks\""), std::string::npos);
  EXPECT_GT(obs::Registry::Global().counter("cdcl.decisions").value(), 0);
  EXPECT_GT(obs::Registry::Global().counter("solver.internal_solves").value(), 0);
}

TEST_F(StatsJsonTest, SolveWallAtMostSumForSingleThread) {
  RepairAndBuildJson();
  const RepairStats& stats = report_.stats;
  EXPECT_GT(stats.solve_seconds, 0);
  EXPECT_GT(stats.solve_wall_seconds, 0);
  // One worker: the solve wall time covers the per-problem sum (plus loop
  // overhead), and both fit inside the end-to-end wall time.
  EXPECT_GE(stats.solve_wall_seconds, stats.solve_seconds * 0.5);
  EXPECT_LE(stats.solve_seconds, stats.wall_seconds + 1e-9);
}

TEST_F(StatsJsonTest, CarriesSimulatorCounters) {
  // With the simulator on, its work shows up as registry counters in the
  // document (and, through the same registry, in `cprd scrape`).
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.validate_with_simulator = true;
  Result<CprReport> report = cpr_->Repair(policies_, options);
  ASSERT_TRUE(report.ok());
  report_ = *report;

  StatsRunInfo run;
  run.command = "repair";
  run.backend = "internal";
  run.status = RepairStatusName(report_.status);
  std::string json = BuildStatsJson(run, &report_);
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;
  const size_t counters = json.find("\"counters\":");
  ASSERT_NE(counters, std::string::npos);
  for (const char* name : {"simulate.route_tables", "simulate.failure_sets",
                           "simulate.branches_pruned", "simulate.early_exits"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\":", counters), std::string::npos)
        << "missing counter " << name << "\n" << json;
  }
  obs::Registry& registry = obs::Registry::Global();
  EXPECT_GT(registry.counter("simulate.route_tables").value(), 0);
  EXPECT_GT(registry.counter("simulate.failure_sets").value(), 0);
  // Every failure set needs one table per destination it is judged for.
  EXPECT_GE(registry.counter("simulate.route_tables").value(),
            registry.counter("simulate.failure_sets").value());
}

TEST_F(StatsJsonTest, CertifySectionIsSchemaOneAndValidates) {
  // A certified repair must surface the checker's verdicts in a versioned
  // "certify" section that the strict validator (the same engine behind
  // tools/cpr_json_validate) accepts — this is the schema lint/explain
  // already get, extended to certification.
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.certify = certify::CertifyMode::kOn;
  options.validate_with_simulator = false;
  Result<CprReport> report = cpr_->Repair(policies_, options);
  ASSERT_TRUE(report.ok());
  report_ = *report;
  ASSERT_EQ(report_.status, RepairStatus::kSuccess);
  ASSERT_GT(report_.stats.certify_checked, 0);
  EXPECT_EQ(report_.stats.certify_verified, report_.stats.certify_checked);
  EXPECT_EQ(report_.stats.certify_failed, 0);

  StatsRunInfo run;
  run.command = "repair";
  run.backend = "internal";
  run.status = RepairStatusName(report_.status);
  std::string json = BuildStatsJson(run, &report_);
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;
  for (const char* key : {
           "\"certify\":", "\"mode\":\"on\"", "\"checked\":", "\"verified\":",
           "\"failed\":0", "\"artifacts\":", "\"artifact_dir\":",
       }) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << "\n" << json;
  }
  // The section carries its own schema version, nested under "certify".
  const size_t section = json.find("\"certify\":");
  ASSERT_NE(section, std::string::npos);
  EXPECT_EQ(json.find("\"schema_version\":1", section), section + 11);
}

TEST(StatsJsonStandaloneTest, BuildsWithoutRepairReport) {
  obs::Registry::Global().Reset();
  obs::Trace::Global().Enable();
  {
    obs::StageSpan span("standalone.stage");
    obs::Registry::Global().counter("standalone.counter").Increment();
  }
  obs::Trace::Global().Disable();

  StatsRunInfo run;
  run.command = "verify";
  run.status = "ok";
  std::string json = BuildStatsJson(run, nullptr);
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error;
  EXPECT_EQ(json.find("\"repair\":"), std::string::npos);
  EXPECT_NE(json.find("standalone.stage"), std::string::npos);
  EXPECT_NE(json.find("\"standalone.counter\":1"), std::string::npos);
}

}  // namespace
}  // namespace cpr
