// Ablation: MaxSMT backend — Z3 Optimize (the paper's §7 choice) versus the
// repository's own CDCL + core-guided MaxSAT engine, on identical per-dst
// problems: the first CPR_BENCH_ABLATION_NETWORKS DC networks, then the
// broken 6-port fat-tree with 30 PC3 policies (scenario seed 3). These are
// the inputs of perfbench's dc_fig7 and fattree_pc3 workloads, with the
// configurations in hostname order as perfbench reads them.
//
// Both backends must find repairs of identical cost (the MaxSMT optimum is
// unique in value); what differs is solving time, reported per repair and
// per solver call (every ProblemReport, superseded first rounds included).
// Per-call times are only clean with CPR_BENCH_THREADS=1: concurrent z3
// contexts contend. This validates that CPR's formulation is solver-agnostic
// for boolean policy sets (PC1/PC2/PC3).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/policy_spec.h"
#include "workload/datacenter.h"
#include "workload/fattree.h"

namespace {

struct Input {
  std::string name;
  cpr::Cpr cpr;
  std::vector<cpr::Policy> policies;
};

// Rebuilds a generated network with its configurations in hostname order,
// the order `cpr repair` and perfbench read a directory in (z3's running
// time depends on it), and re-resolves the policies against it.
Input InHostnameOrder(std::string name, const std::vector<std::string>& texts,
                      const cpr::NetworkAnnotations& annotations,
                      const std::vector<cpr::Policy>& policies) {
  cpr::Cpr generated = cpr::MustBuildCpr(texts, annotations);
  std::vector<std::pair<std::string, const std::string*>> by_host;
  for (size_t i = 0; i < texts.size(); ++i) {
    by_host.emplace_back(generated.network().configs()[i].hostname, &texts[i]);
  }
  std::sort(by_host.begin(), by_host.end());
  std::vector<std::string> sorted;
  for (const auto& [host, text] : by_host) {
    sorted.push_back(*text);
  }
  cpr::Cpr cpr = cpr::MustBuildCpr(sorted, annotations);
  cpr::Result<std::vector<cpr::Policy>> resolved = cpr::ParseSpecPolicies(
      cpr::FormatPolicySpec(policies, generated.network()), cpr.network());
  if (!resolved.ok()) {
    std::fprintf(stderr, "fatal: %s\n", resolved.error().message().c_str());
    std::exit(1);
  }
  return Input{std::move(name), std::move(cpr), std::move(resolved).value()};
}

struct Side {
  std::vector<double> repair_times;
  std::vector<double> solve_times;  // One per solver call.
};

void AddSolveTimes(const cpr::RepairStats& stats, Side* side) {
  for (const auto* reports : {&stats.superseded_reports, &stats.problem_reports}) {
    for (const cpr::ProblemReport& report : *reports) {
      side->solve_times.push_back(report.solve_seconds);
    }
  }
}

}  // namespace

int main() {
  cpr::BenchConfig config;
  int networks = std::min(config.networks, cpr::EnvInt("CPR_BENCH_ABLATION_NETWORKS", 24));
  std::printf("=== Ablation: Z3 Optimize vs internal CDCL/MaxSAT backend (%d networks "
              "+ ft6 PC3) ===\n",
              networks);
  std::printf("%-8s %-12s %-12s %-10s %-10s %-8s\n", "network", "z3(s)", "internal(s)",
              "z3 cost", "int cost", "agree");

  std::vector<Input> inputs;
  for (int i = 0; i < networks; ++i) {
    cpr::DatacenterNetwork network = cpr::GenerateDatacenterNetwork(i, 2017, config.scale);
    inputs.push_back(InHostnameOrder(std::to_string(i), network.broken_configs,
                                     network.annotations, network.policies));
  }
  cpr::FatTreeScenario fattree =
      cpr::MakeFatTreeScenario(6, cpr::PolicyClass::kReachability, 30, 3);
  inputs.push_back(InHostnameOrder("ft6-pc3", fattree.broken_configs, fattree.annotations,
                                   fattree.policies));

  Side dc_z3, dc_internal, ft_z3, ft_internal;
  int agreements = 0;
  int compared = 0;
  for (const Input& input : inputs) {
    const bool is_fattree = input.name == "ft6-pc3";
    cpr::CprOptions options;
    options.validate_with_simulator = false;
    options.repair.granularity = cpr::Granularity::kPerDst;
    options.repair.num_threads = config.threads;
    options.repair.timeout_seconds = config.timeout;

    options.repair.backend = cpr::BackendChoice::kZ3;
    cpr::WallTimer z3_timer;
    cpr::Result<cpr::CprReport> z3_report = input.cpr.Repair(input.policies, options);
    double z3_time = z3_timer.Seconds();

    options.repair.backend = cpr::BackendChoice::kInternal;
    cpr::WallTimer internal_timer;
    cpr::Result<cpr::CprReport> internal_report = input.cpr.Repair(input.policies, options);
    double internal_time = internal_timer.Seconds();

    bool both_ok = z3_report.ok() && internal_report.ok() &&
                   z3_report.value().status == cpr::RepairStatus::kSuccess &&
                   internal_report.value().status == cpr::RepairStatus::kSuccess;
    if (!both_ok) {
      std::printf("%-8s skipped (%s / %s)\n", input.name.c_str(),
                  z3_report.ok() ? cpr::StatusName(z3_report.value().status) : "ERR",
                  internal_report.ok() ? cpr::StatusName(internal_report.value().status)
                                       : "ERR");
      continue;
    }
    ++compared;
    Side& z3 = is_fattree ? ft_z3 : dc_z3;
    Side& internal = is_fattree ? ft_internal : dc_internal;
    z3.repair_times.push_back(z3_time);
    internal.repair_times.push_back(internal_time);
    AddSolveTimes(z3_report->stats, &z3);
    AddSolveTimes(internal_report->stats, &internal);
    bool agree = z3_report->predicted_cost == internal_report->predicted_cost;
    agreements += agree ? 1 : 0;
    std::printf("%-8s %-12.3f %-12.3f %-10lld %-10lld %-8s\n", input.name.c_str(), z3_time,
                internal_time, static_cast<long long>(z3_report->predicted_cost),
                static_cast<long long>(internal_report->predicted_cost),
                agree ? "yes" : "NO");
  }
  std::printf("\nsummary: optimal costs agree in %d/%d inputs\n", agreements, compared);
  std::printf("  DC repairs: median z3 %.3fs, internal %.3fs; per solver call (%zu calls): "
              "median z3 %.1f ms, internal %.1f ms\n",
              cpr::Percentile(dc_z3.repair_times, 0.5),
              cpr::Percentile(dc_internal.repair_times, 0.5), dc_z3.solve_times.size(),
              1e3 * cpr::Percentile(dc_z3.solve_times, 0.5),
              1e3 * cpr::Percentile(dc_internal.solve_times, 0.5));
  std::printf("  ft6 PC3: repair z3 %.3fs, internal %.3fs; per solver call (%zu calls): "
              "median z3 %.1f ms, internal %.1f ms\n",
              cpr::Percentile(ft_z3.repair_times, 0.5),
              cpr::Percentile(ft_internal.repair_times, 0.5), ft_z3.solve_times.size(),
              1e3 * cpr::Percentile(ft_z3.solve_times, 0.5),
              1e3 * cpr::Percentile(ft_internal.solve_times, 0.5));
  return 0;
}
