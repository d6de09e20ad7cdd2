// Helpers shared by the workloads: statistics, the outside soundness
// oracle, and assembly of the metric lists.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "arc/harc.h"
#include "config/parser.h"
#include "config/printer.h"
#include "core/policy_spec.h"
#include "e2e.h"
#include "simulate/simulator.h"
#include "topo/network.h"
#include "verify/checker.h"

namespace perfbench {

std::string Verdict::ToString() const {
  std::ostringstream out;
  out << "status=" << status << " sound=" << (sound ? 1 : 0)
      << " cost=" << predicted_cost << " lines=" << lines_changed
      << " impacted=" << traffic_classes_impacted << " residual_graph=" << residual_graph
      << " residual_sim=" << residual_simulation;
  return out.str();
}

Verdict VerdictOf(const cpr::CprReport& report) {
  Verdict verdict;
  verdict.status = cpr::RepairStatusName(report.status);
  verdict.sound = report.Sound();
  verdict.predicted_cost = report.predicted_cost;
  verdict.lines_changed = report.lines_changed;
  verdict.traffic_classes_impacted = report.traffic_classes_impacted;
  verdict.residual_graph = static_cast<int>(report.residual_graph_violations.size());
  verdict.residual_simulation =
      static_cast<int>(report.residual_simulation_violations.size());
  return verdict;
}

EngineStats EngineStatsOf(const cpr::RepairStats& stats) {
  EngineStats engine;
  engine.encode_s = stats.encode_seconds;
  engine.solve_wall_s = stats.solve_wall_seconds;
  engine.solve_cpu_sum_s = stats.solve_seconds;
  for (const cpr::ProblemReport& problem : stats.problem_reports) {
    engine.problem_max_s = std::max(engine.problem_max_s, problem.solve_seconds);
  }
  engine.problems = stats.problems_formulated;
  engine.bool_vars = static_cast<double>(stats.bool_vars);
  engine.hard_constraints = static_cast<double>(stats.hard_constraints);
  engine.soft_constraints = static_cast<double>(stats.soft_constraints);
  // z3 and the internal engine name their work counters differently; both
  // map onto the same three metrics.
  for (const auto& [name, value] : stats.solver_counter_totals) {
    if (name == "z3.sat conflicts" || name == "cdcl.conflicts") {
      engine.sat_conflicts += value;
    } else if (name == "z3.maxres-cores" || name == "maxsat.cores") {
      engine.cores += value;
    } else if (name == "z3.rlimit count" || name == "cdcl.propagations") {
      engine.rlimit += value;
    }
  }
  return engine;
}

cpr::CprOptions BenchOptions() {
  cpr::CprOptions options;
  options.repair.backend = cpr::BackendChoice::kZ3;
  options.repair.granularity = cpr::Granularity::kPerDst;
  options.repair.num_threads = kSolverThreads;
  options.repair.timeout_seconds = kSolverTimeoutSeconds;
  options.validate_with_simulator = true;
  options.simulator_failure_cap = kFailureCap;
  return options;
}

namespace {

cpr::Result<cpr::Network> BuildFromTexts(const std::vector<std::string>& texts,
                                         const cpr::NetworkAnnotations& annotations) {
  std::vector<cpr::Config> configs;
  for (const std::string& text : texts) {
    cpr::Result<cpr::Config> parsed = cpr::ParseConfig(text);
    if (!parsed.ok()) {
      return parsed.error();
    }
    configs.push_back(std::move(parsed).value());
  }
  return cpr::Network::Build(std::move(configs), annotations);
}

}  // namespace

cpr::Result<Input> AsOnDisk(std::string name, const std::vector<std::string>& texts,
                            cpr::NetworkAnnotations annotations,
                            const std::vector<cpr::Policy>& policies) {
  cpr::Result<cpr::Network> generated = BuildFromTexts(texts, annotations);
  if (!generated.ok()) {
    return generated.error();
  }
  Input input;
  input.name = std::move(name);
  input.policy_text = cpr::FormatPolicySpec(policies, *generated);
  std::vector<std::pair<std::string, const std::string*>> by_host;
  for (size_t i = 0; i < texts.size(); ++i) {
    by_host.emplace_back(generated->configs()[i].hostname, &texts[i]);
  }
  std::sort(by_host.begin(), by_host.end());
  for (const auto& [host, text] : by_host) {
    input.config_texts.push_back(*text);
  }
  cpr::Result<cpr::Network> sorted = BuildFromTexts(input.config_texts, annotations);
  if (!sorted.ok()) {
    return sorted.error();
  }
  cpr::Result<std::vector<cpr::Policy>> resolved =
      cpr::ParseSpecPolicies(input.policy_text, *sorted);
  if (!resolved.ok()) {
    return resolved.error();
  }
  input.policies = std::move(resolved).value();
  input.annotations = std::move(annotations);
  return input;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

// The regularized incomplete beta function I_x(a, b), by Lentz's evaluation
// of its continued fraction (Numerical Recipes, 6.4).
double BetaCdf(double x, double a, double b) {
  if (x <= 0) {
    return 0;
  }
  if (x >= 1) {
    return 1;
  }
  if (x > (a + 1) / (a + b + 2)) {
    return 1 - BetaCdf(1 - x, b, a);  // The fraction converges fast here.
  }
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x)) / a;
  constexpr double kTiny = 1e-300;
  double f = 1, c = 1, d = 0;
  for (int i = 0; i <= 600; ++i) {
    const double m = i / 2;
    double term = 1;
    if (i > 0 && i % 2 == 0) {
      term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    } else if (i > 0) {
      term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
    }
    d = 1 + term * d;
    d = 1 / (std::fabs(d) < kTiny ? kTiny : d);
    c = 1 + term / c;
    c = std::fabs(c) < kTiny ? kTiny : c;
    f *= c * d;
    if (std::fabs(1 - c * d) < 1e-12) {
      break;
    }
  }
  return front * (f - 1);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double shape = (n + 1) / 2;
  double median = 0, below = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double upto = BetaCdf(static_cast<double>(i + 1) / n, shape, shape);
    median += (upto - below) * values[i];
    below = upto;
  }
  return median;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t SnapshotHash(const std::vector<cpr::Config>& configs) {
  uint64_t hash = 1469598103934665603ULL;
  for (const cpr::Config& config : configs) {
    for (unsigned char c : cpr::PrintConfig(config) + '\0') {
      hash = (hash ^ c) * 1099511628211ULL;
    }
  }
  return hash;
}

std::string CheckSoundness(const Input& input, const cpr::CprReport& report) {
  if (report.patched_configs.empty()) {
    return "";  // Nothing was translated (unsat, timeout, lint gate, ...).
  }
  cpr::Result<cpr::Network> network =
      cpr::Network::Build(report.patched_configs, report.patched_annotations);
  if (!network.ok()) {
    return "patched configurations do not build: " + network.error().message();
  }
  const cpr::Harc harc = cpr::Harc::Build(*network);
  const std::vector<cpr::Policy> graph = cpr::FindViolations(harc, input.policies);
  const std::vector<cpr::Policy> simulated =
      cpr::FindSimulationViolations(*network, input.policies, kFailureCap);
  std::string why;
  if (graph != report.residual_graph_violations) {
    why += "graph violations: oracle " + std::to_string(graph.size()) + ", report " +
           std::to_string(report.residual_graph_violations.size()) + "; ";
  }
  if (simulated != report.residual_simulation_violations) {
    why += "simulator violations: oracle " + std::to_string(simulated.size()) +
           ", report " + std::to_string(report.residual_simulation_violations.size());
  }
  return why;
}

void CheckRepeats(const std::vector<Sample>& samples, const std::vector<Input>& inputs,
                  RunResult* result) {
  std::map<size_t, const Verdict*> first;
  for (const Sample& sample : samples) {
    if (!sample.completed) {
      continue;
    }
    auto [it, inserted] = first.emplace(sample.input, &sample.verdict);
    if (!inserted && !(*it->second == sample.verdict)) {
      result->mismatches.push_back("repeat of " + inputs[sample.input].name +
                                   " differs: " + it->second->ToString() + " vs " +
                                   sample.verdict.ToString());
    }
  }
}

double FailedShare(const std::vector<Sample>& samples) {
  if (samples.empty()) {
    return 0;
  }
  int failed = 0;
  for (const Sample& sample : samples) {
    failed += (!sample.completed || !sample.verdict.sound) ? 1 : 0;
  }
  return static_cast<double>(failed) / static_cast<double>(samples.size());
}

void AddEndToEnd(const std::vector<Sample>& samples, const std::vector<Verdict>& quality,
                 double window_s, double setup_s, double peak_rss_mb, RunResult* result) {
  std::vector<double> latencies;
  for (const Sample& sample : samples) {
    latencies.push_back(sample.seconds);
  }
  std::vector<double> lines, cost, impacted;
  for (const Verdict& verdict : quality) {
    lines.push_back(verdict.lines_changed);
    cost.push_back(static_cast<double>(verdict.predicted_cost));
    impacted.push_back(verdict.traffic_classes_impacted);
  }
  const double completed = static_cast<double>(
      std::count_if(samples.begin(), samples.end(),
                    [](const Sample& sample) { return sample.completed; }));
  // Every input is repaired equally often (whole passes), so the median
  // over all repairs is the population's median repair.
  result->metrics.push_back({"repair_p50_s", Median(latencies), "s"});
  result->metrics.push_back({"repairs_per_s", completed / window_s, "1/s"});
  result->metrics.push_back({"lines_changed", Mean(lines), "lines"});
  result->metrics.push_back({"predicted_cost", Mean(cost), "count"});
  result->metrics.push_back({"traffic_classes_impacted", Mean(impacted), "count"});
  result->metrics.push_back({"setup_s", setup_s, "s"});
  result->reported.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});

  // The tail is the highest percentile with at least ten repairs beyond it;
  // short runs have none and omit it.
  const size_t n = latencies.size();
  if (n >= 20) {
    const double percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    result->reported.push_back(
        {"repair_tail_s", Quantile(latencies, static_cast<double>(n - 10) / n), "s"});
    result->reported.push_back({"repair_tail_percentile", percentile, "%"});
  }
  result->reported.push_back({"repair_samples", static_cast<double>(n), "count"});
  result->reported.push_back({"failed_share", FailedShare(samples), "ratio"});
}

void AddPerLayer(const LayerInputs& in, RunResult* result) {
  const double repairs = std::max<size_t>(1, in.traced.size());
  auto per_repair = [&](auto field) {
    double total = 0;
    for (const Sample& sample : in.traced) {
      total += field(sample);
    }
    return total / repairs;
  };
  auto layer = [&](const char* name) {
    return per_repair([&](const Sample& s) {
      auto it = s.layers.find(name);
      return it == s.layers.end() ? 0.0 : it->second;
    });
  };
  auto add = [&](const char* name, double value, const char* unit) {
    result->metrics.push_back({name, value, unit});
  };

  add("config.parse_s", layer("config.parse"), "s");
  add("topo.build_s", layer("topo.build"), "s");
  add("lint.run_s", layer("lint.run"), "s");
  add("arc.harc_build_s", layer("arc.harc_build"), "s");
  add("verify.find_violations_s", layer("verify.find_violations"), "s");
  add("translate.s", layer("translate"), "s");
  add("repair.compute_s", layer("repair.compute"), "s");
  add("repair.encode_s", per_repair([](const Sample& s) { return s.engine.encode_s; }), "s");
  const double solve_wall = per_repair([](const Sample& s) { return s.engine.solve_wall_s; });
  const double solve_cpu =
      per_repair([](const Sample& s) { return s.engine.solve_cpu_sum_s; });
  add("repair.solve_wall_s", solve_wall, "s");
  add("repair.solve_cpu_sum_s", solve_cpu, "s");
  add("repair.problem_max_s",
      per_repair([](const Sample& s) { return s.engine.problem_max_s; }), "s");
  add("repair.solve_parallel_eff",
      solve_wall > 0 ? solve_cpu / (solve_wall * in.solve_threads) : 0.0, "ratio");
  add("repair.problems", per_repair([](const Sample& s) { return s.engine.problems; }),
      "count");
  add("repair.bool_vars", per_repair([](const Sample& s) { return s.engine.bool_vars; }),
      "count");
  add("repair.hard_constraints",
      per_repair([](const Sample& s) { return s.engine.hard_constraints; }), "count");
  add("repair.soft_constraints",
      per_repair([](const Sample& s) { return s.engine.soft_constraints; }), "count");
  add("solver.sat_conflicts",
      per_repair([](const Sample& s) { return s.engine.sat_conflicts; }), "count");
  add("solver.cores", per_repair([](const Sample& s) { return s.engine.cores; }), "count");
  add("solver.rlimit", per_repair([](const Sample& s) { return s.engine.rlimit; }),
      "count");
  add("simulate.s", layer("simulate"), "s");
  std::vector<double> policy_times = in.policy_times;
  add("simulate.policy_p50_s", Quantile(policy_times, 0.5), "s");
  add("simulate.policy_max_s", Quantile(policy_times, 1.0), "s");
  add("simulate.policies_checked",
      per_repair([](const Sample& s) { return s.policies_checked; }), "count");
  add("simulate.residual_violations",
      per_repair([](const Sample& s) { return s.verdict.residual_simulation; }), "count");

  std::vector<double> queue, exec;
  double reused = 0, groups = 0, warm = 0, fallbacks = 0, writes = 0;
  for (const Sample& sample : in.serve) {
    queue.push_back(sample.queue_s);
    exec.push_back(sample.exec_s);
    if (sample.write_path) {
      reused += sample.groups_reused;
      groups += sample.groups_total;
      warm += sample.warm_hits;
      fallbacks += sample.fallbacks;
      writes += 1;
    }
  }
  add("serve.queue_wait_p50_s", Quantile(queue, 0.5), "s");
  add("serve.exec_p50_s", Quantile(exec, 0.5), "s");
  add("serve.cache_hit_ratio", in.cache_hit_ratio, "ratio");
  add("serve.admission_rejects", in.admission_rejects, "count");
  add("incremental.groups_reused_ratio", groups > 0 ? reused / groups : 0.0, "ratio");
  add("incremental.warm_hits", writes > 0 ? warm / writes : 0.0, "count");
  add("incremental.fallbacks", writes > 0 ? fallbacks / writes : 0.0, "count");

  double covered = 0, root = 0;
  for (const Sample& sample : in.traced) {
    for (const auto& [name, seconds] : sample.layers) {
      covered += seconds;
    }
    root += sample.traced_root_s;
  }
  add("trace.coverage", root > 0 ? covered / root : 0.0, "ratio");
  add("trace.overhead_ratio",
      in.untraced_p50_s > 0 ? in.traced_p50_s / in.untraced_p50_s : 0.0, "ratio");
  add("failed_share", in.failed_share, "ratio");
  add("peak_rss_mb", in.peak_rss_mb, "MiB");
}

}  // namespace perfbench
