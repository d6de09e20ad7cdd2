// The two ways the benchmark runs one repair: through Cpr (what users call)
// and composed from outside, one public module function per layer, each
// under a benchmark-owned span. The composed form exists only so a traced
// run can split the time by layer without changing the program; its verdict
// is checked against Cpr::Repair on every input.

#include <utility>

#include "arc/harc.h"
#include "config/parser.h"
#include "e2e.h"
#include "lint/lint.h"
#include "obs/span.h"
#include "repair/repair.h"
#include "simulate/simulator.h"
#include "topo/network.h"
#include "translate/translator.h"
#include "verify/checker.h"

namespace perfbench {

DirectRepair RepairDirect(const Input& input, const cpr::CprOptions& options) {
  DirectRepair run;
  const Clock::time_point start = Clock::now();
  cpr::Result<cpr::Cpr> pipeline =
      cpr::Cpr::FromConfigTexts(input.config_texts, input.annotations);
  if (pipeline.ok()) {
    run.report = pipeline->Repair(input.policies, options);
  } else {
    run.report = pipeline.error();
  }
  run.seconds = SecondsSince(start);
  return run;
}

namespace {

// Counts traffic classes whose tcETG edge set differs between two HARCs over
// the same universe (paper §8.3), as Cpr::Repair does.
int TrafficClassesImpacted(const cpr::Harc& before, const cpr::Harc& after) {
  int impacted = 0;
  const int subnets = before.SubnetCount();
  const int edges = before.universe().EdgeCount();
  for (cpr::SubnetId s = 0; s < subnets; ++s) {
    for (cpr::SubnetId d = 0; d < subnets; ++d) {
      if (s == d) {
        continue;
      }
      const cpr::Etg& a = before.tcetg(s, d);
      const cpr::Etg& b = after.tcetg(s, d);
      for (cpr::CandidateEdgeId e = 0; e < edges; ++e) {
        if (a.IsPresent(e) != b.IsPresent(e)) {
          ++impacted;
          break;
        }
      }
    }
  }
  return impacted;
}

}  // namespace

cpr::Result<cpr::CprReport> RepairComposed(const Input& input,
                                           const cpr::CprOptions& options,
                                           Sample* sample) {
  using cpr::obs::StageSpan;
  cpr::CprReport report;
  const Clock::time_point start = Clock::now();
  StageSpan root("e2e.repair");

  std::vector<cpr::Config> configs;
  {
    StageSpan span("e2e.config.parse");
    configs.reserve(input.config_texts.size());
    for (const std::string& text : input.config_texts) {
      cpr::Result<cpr::Config> parsed = cpr::ParseConfig(text);
      if (!parsed.ok()) {
        return parsed.error();
      }
      configs.push_back(std::move(parsed).value());
    }
  }
  cpr::Result<cpr::Network> built = [&]() {
    StageSpan span("e2e.topo.build");
    return cpr::Network::Build(std::move(configs), input.annotations);
  }();
  if (!built.ok()) {
    return built.error();
  }
  const cpr::Network network = std::move(built).value();
  const cpr::Harc harc = [&]() {
    StageSpan span("e2e.arc.harc_build");
    return cpr::Harc::Build(network);
  }();
  {
    StageSpan span("e2e.lint.run");
    report.lint_report = cpr::lint::Run(network.configs());
  }
  if (options.lint_mode == cpr::LintMode::kGate && report.lint_report.errors > 0) {
    report.status = cpr::RepairStatus::kLintRejected;
    sample->seconds = SecondsSince(start);
    return report;
  }

  cpr::Result<cpr::RepairOutcome> outcome = [&]() {
    StageSpan span("e2e.repair.compute");
    return cpr::ComputeRepair(harc, input.policies, options.repair);
  }();
  if (!outcome.ok()) {
    return outcome.error();
  }
  report.status = outcome->status;
  report.predicted_cost = outcome->predicted_cost;
  report.stats = outcome->stats;
  sample->engine = EngineStatsOf(outcome->stats);
  if (!outcome->HasRepair()) {
    sample->seconds = SecondsSince(start);
    return report;
  }

  {
    StageSpan span("e2e.translate");
    cpr::Result<cpr::TranslationResult> translation =
        cpr::TranslateEdits(network, outcome->edits);
    if (!translation.ok()) {
      return translation.error();
    }
    report.patched_configs = std::move(translation->patched_configs);
    report.patched_annotations = std::move(translation->annotations);
    report.diff_text = translation->DiffText(network);
    report.lines_changed = translation->LinesChanged();
  }

  cpr::Result<cpr::Network> rebuilt = [&]() {
    StageSpan span("e2e.topo.build");
    return cpr::Network::Build(report.patched_configs, report.patched_annotations);
  }();
  if (!rebuilt.ok()) {
    return cpr::Error("patched configurations no longer form a valid network: " +
                      rebuilt.error().message());
  }
  const cpr::Harc rebuilt_harc = [&]() {
    StageSpan span("e2e.arc.harc_build");
    return cpr::Harc::Build(*rebuilt);
  }();
  {
    StageSpan span("e2e.verify.find_violations");
    report.residual_graph_violations = cpr::FindViolations(rebuilt_harc, input.policies);
  }
  if (options.validate_with_simulator) {
    StageSpan span("e2e.simulate");
    for (const cpr::Policy& policy : input.policies) {
      const Clock::time_point policy_start = Clock::now();
      bool holds;
      {
        StageSpan policy_span("e2e.simulate.policy");
        holds = cpr::CheckPolicyBySimulation(*rebuilt, policy,
                                             options.simulator_failure_cap);
      }
      sample->simulate_policy_s.push_back(SecondsSince(policy_start));
      if (!holds) {
        report.residual_simulation_violations.push_back(policy);
      }
    }
    sample->policies_checked = static_cast<int>(input.policies.size());
  }
  if (options.lint_mode != cpr::LintMode::kOff) {
    StageSpan span("e2e.lint.run");
    cpr::lint::Report patched = cpr::lint::Run(report.patched_configs);
    report.lint_new_findings = cpr::lint::NewFindings(report.lint_report, patched);
  }
  {
    StageSpan span("e2e.audit.tc_impacted");
    report.traffic_classes_impacted = TrafficClassesImpacted(harc, rebuilt_harc);
  }
  sample->seconds = SecondsSince(start);
  return report;
}

void LayersFromSpans(const std::vector<cpr::obs::SpanRecord>& records, Sample* sample) {
  static constexpr std::string_view kPrefix = "e2e.";
  for (size_t i = 0; i < records.size(); ++i) {
    const cpr::obs::SpanRecord& record = records[i];
    if (record.name != "e2e.repair" || record.parent != -1) {
      continue;
    }
    sample->traced_root_s += record.duration_seconds;
    for (const cpr::obs::SpanRecord& child : records) {
      if (child.parent == static_cast<int32_t>(i) &&
          child.name.compare(0, kPrefix.size(), kPrefix) == 0) {
        sample->layers[child.name.substr(kPrefix.size())] += child.duration_seconds;
      }
    }
  }
}

}  // namespace perfbench
