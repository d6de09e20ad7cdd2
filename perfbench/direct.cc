// The direct workloads: one caller repairs generated networks with
// Cpr::Repair in a closed loop.
//
//   dc_fig7      the first 24 networks of the paper's Fig 7 population
//                (GenerateDatacenterNetwork(i, 2017, 0.25), as
//                bench/fig07_realdc_time uses), swept in a seeded order
//   fattree_pc3  one broken 6-port fat-tree with 30 PC3 policies (the solver
//                dominates; its repairs are known to fail in the simulator)
//
// The inputs themselves are fixed: a population drawn per seed moved the
// median repair time up to 2.7x between seeds (the policied pairs and the
// networks decide how much there is to repair), which no regression bound
// can absorb. --seed orders each pass of the DC sweep. A run repairs whole
// passes over the inputs until the requested seconds have passed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <utility>

#include "e2e.h"
#include "obs/span.h"
#include "verify/checker.h"
#include "workload/datacenter.h"
#include "workload/fattree.h"

namespace perfbench {

namespace {

constexpr int kDcNetworks = 24;
constexpr unsigned kDcDatasetSeed = 2017;
constexpr double kDcSubnetScale = 0.25;
constexpr int kFatTreePorts = 6;
constexpr int kFatTreePolicies = 30;
// The fat-tree scenario the repository's measurements use (`cpr gen
// --fattree 6 --broken --pc pc3 --policies 30 --seed 3`).
constexpr unsigned kFatTreeSeed = 3;

cpr::Result<std::vector<Input>> MakeInputs(const std::string& workload) {
  std::vector<Input> inputs;
  auto add = [&](std::string name, const std::vector<std::string>& texts,
                 cpr::NetworkAnnotations annotations,
                 const std::vector<cpr::Policy>& policies) -> cpr::Status {
    cpr::Result<Input> input =
        AsOnDisk(std::move(name), texts, std::move(annotations), policies);
    if (!input.ok()) {
      return input.error();
    }
    inputs.push_back(std::move(input).value());
    return cpr::Status::Ok();
  };
  if (workload == "dc_fig7") {
    for (int i = 0; i < kDcNetworks; ++i) {
      cpr::DatacenterNetwork dc =
          cpr::GenerateDatacenterNetwork(i, kDcDatasetSeed, kDcSubnetScale);
      cpr::Status added = add("dc" + std::to_string(i), dc.broken_configs,
                              std::move(dc.annotations), dc.policies);
      if (!added.ok()) {
        return added.error();
      }
    }
    return inputs;
  }
  cpr::FatTreeScenario scenario =
      cpr::MakeFatTreeScenario(kFatTreePorts, cpr::PolicyClass::kReachability,
                               kFatTreePolicies, kFatTreeSeed);
  cpr::Status added = add("ft6-pc3", scenario.broken_configs, std::move(scenario.annotations),
                          scenario.policies);
  if (!added.ok()) {
    return added.error();
  }
  return inputs;
}

// An operation failed when it produced no full repair to judge: an error,
// or a status other than success/no-violations. Residual violations alone
// do not fail the operation; they count in failed_share.
bool OperationFailed(const Sample& sample) {
  return !sample.completed ||
         (sample.verdict.status != "success" && sample.verdict.status != "no-violations");
}

Sample ToSample(size_t input, const DirectRepair& run) {
  Sample sample;
  sample.input = input;
  sample.seconds = run.seconds;
  sample.completed = run.report.ok();
  if (sample.completed) {
    sample.verdict = VerdictOf(*run.report);
    sample.engine = EngineStatsOf(run.report->stats);
  } else {
    sample.error = run.report.error().message();
  }
  return sample;
}

}  // namespace

RunResult RunDirect(const RunConfig& config) {
  RunResult result;
  const cpr::CprOptions options = BenchOptions();

  std::vector<Input> inputs;
  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < kSetupRepeats || SecondsSince(setup_start) < kSetupSeconds; ++i) {
    const Clock::time_point start = Clock::now();
    cpr::Result<std::vector<Input>> made = MakeInputs(config.workload);
    if (!made.ok()) {
      result.mismatches.push_back("input generation failed: " + made.error().message());
      return result;
    }
    inputs = std::move(made).value();
    // Every input must start broken, or its repair measures nothing.
    for (const Input& input : inputs) {
      cpr::Result<cpr::Cpr> baseline =
          cpr::Cpr::FromConfigTexts(input.config_texts, input.annotations);
      if (!baseline.ok() || cpr::FindViolations(baseline->harc(), input.policies).empty()) {
        result.mismatches.push_back("input " + input.name + " violates no policy");
        return result;
      }
    }
    setups.push_back(SecondsSince(start));
  }
  const double setup_s = Median(setups);

  // One untimed repair first: the first repair in a process pays one-off
  // costs (heap growth, solver start-up) that a steady caller does not.
  RepairDirect(inputs.front(), options);

  // Reports kept for the soundness oracle: the first one of each distinct
  // patched snapshot of each input (identical texts have identical
  // violations). Keeping every report instead grew the heap over the run and
  // slowed the small DC repairs of later passes up to 2.5x.
  std::vector<Sample> untraced, traced;
  std::vector<std::pair<size_t, cpr::CprReport>> reports;
  std::set<std::pair<size_t, uint64_t>> kept;
  auto keep = [&](size_t index, cpr::CprReport report) {
    if (kept.emplace(index, SnapshotHash(report.patched_configs)).second) {
      reports.emplace_back(index, std::move(report));
    }
  };
  double peak_rss_mb = 0;  // After the first pass: a fixed amount of work.
  // Each pass visits every input once, in an order drawn from the seed, so
  // every input is repaired equally often and after varying predecessors.
  std::mt19937 rng(config.seed);
  std::vector<size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), 0);
  const Clock::time_point window_start = Clock::now();
  for (size_t k = 0; k % order.size() != 0 || SecondsSince(window_start) < config.seconds;
       ++k) {
    if (k % order.size() == 0) {
      std::shuffle(order.begin(), order.end(), rng);
    }
    const size_t index = order[k % order.size()];
    const Input& input = inputs[index];
    DirectRepair run = RepairDirect(input, options);
    untraced.push_back(ToSample(index, run));
    std::fprintf(stderr, "repair %s %.4fs %s\n", input.name.c_str(), run.seconds,
                 untraced.back().verdict.ToString().c_str());
    if (k + 1 == order.size()) {
      peak_rss_mb = PeakRssMb();
    }
    if (run.report.ok()) {
      keep(index, std::move(run.report).value());
    }
    if (!config.trace) {
      continue;
    }

    // The traced run alternates Cpr::Repair with the composed pipeline on
    // the same input; both must reach the same verdict.
    cpr::obs::Trace& trace = cpr::obs::Trace::Global();
    Sample sample;
    sample.input = index;
    trace.Enable();
    cpr::Result<cpr::CprReport> composed = RepairComposed(input, options, &sample);
    std::vector<cpr::obs::SpanRecord> records = trace.Records();
    trace.Disable();
    LayersFromSpans(records, &sample);
    for (cpr::obs::SpanRecord& record : records) {
      record.args.emplace_back("repair", std::to_string(k));
      result.spans.push_back(std::move(record));
    }
    sample.completed = composed.ok();
    if (!composed.ok()) {
      sample.error = composed.error().message();
    } else {
      sample.verdict = VerdictOf(*composed);
      keep(index, std::move(composed).value());
    }
    if (!(sample.verdict == untraced.back().verdict)) {
      result.mismatches.push_back("composed pipeline differs from Cpr::Repair on " +
                                  input.name + ": " + sample.verdict.ToString() + " vs " +
                                  untraced.back().verdict.ToString());
    }
    std::fprintf(stderr, "composed %s %.4fs %s\n", input.name.c_str(), sample.seconds,
                 sample.verdict.ToString().c_str());
    traced.push_back(std::move(sample));
  }
  const double window_s = SecondsSince(window_start);

  // Outside soundness oracle, once per distinct patched snapshot.
  for (const auto& [index, report] : reports) {
    std::string why = CheckSoundness(inputs[index], report);
    if (!why.empty()) {
      result.mismatches.push_back("soundness oracle disagrees on " + inputs[index].name +
                                  ": " + why);
    }
  }
  // Composed verdicts were matched pairwise above, so checking the
  // untraced repeats covers both.
  CheckRepeats(untraced, inputs, &result);

  result.attempted = static_cast<int64_t>(untraced.size() + traced.size());
  for (const std::vector<Sample>* samples : {&untraced, &traced}) {
    for (const Sample& sample : *samples) {
      result.failed += OperationFailed(sample) ? 1 : 0;
      if (!sample.completed) {
        result.mismatches.push_back("repair of " + inputs[sample.input].name +
                                    " failed: " + sample.error);
      }
    }
  }

  if (!config.trace) {
    // Quality means count each input once (repeats are checked identical).
    std::map<size_t, Verdict> per_input;
    for (const Sample& sample : untraced) {
      per_input.emplace(sample.input, sample.verdict);
    }
    std::vector<Verdict> quality;
    for (const auto& [index, verdict] : per_input) {
      quality.push_back(verdict);
    }
    AddEndToEnd(untraced, quality, window_s, setup_s, peak_rss_mb, &result);
    return result;
  }

  LayerInputs layers;
  layers.traced = traced;
  for (const Sample& sample : traced) {
    layers.policy_times.insert(layers.policy_times.end(), sample.simulate_policy_s.begin(),
                               sample.simulate_policy_s.end());
  }
  std::vector<double> traced_s, untraced_s;
  for (const Sample& sample : traced) traced_s.push_back(sample.seconds);
  for (const Sample& sample : untraced) untraced_s.push_back(sample.seconds);
  layers.traced_p50_s = Median(traced_s);
  layers.untraced_p50_s = Median(untraced_s);
  layers.failed_share = FailedShare(untraced);
  layers.peak_rss_mb = peak_rss_mb;
  AddPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
