// End-to-end repair benchmark: shared types and helpers.
//
// One run repairs one workload's inputs in a closed loop for a fixed wall
// time, checks every result with an outside soundness oracle, and reports
// either the end-to-end metrics (untraced run) or the per-layer split
// (traced run). perfbench/README.md describes the workloads and metrics.

#ifndef CPR_PERFBENCH_E2E_H_
#define CPR_PERFBENCH_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cpr.h"
#include "obs/span.h"

namespace perfbench {

// Fixed thread budget. A direct repair is one caller thread that blocks
// while kSolverThreads solve its per-destination problems; the daemon
// workload is kDaemonClients closed-loop clients, one daemon worker and a
// one-thread solve pool. Neither exceeds four threads, so the numbers mean
// the same thing on any machine with at least four cores. The repository's
// CLI (8) and bench (10) thread defaults are deliberately not used.
inline constexpr int kSolverThreads = 3;
inline constexpr int kDaemonClients = 2;
inline constexpr int kDaemonWorkers = 1;
inline constexpr int kDaemonSolveThreads = 1;
// Per-problem solver limit: far above any problem of these workloads, so a
// timeout is a real regression (it ends the repair unsound).
inline constexpr double kSolverTimeoutSeconds = 30;
// Failure sets of up to this many links are enumerated by the simulator
// (CprOptions' default).
inline constexpr int kFailureCap = 2;
// Set-up is repeated at least kSetupRepeats times per run, and until
// kSetupSeconds have been spent on it; setup_s is the median. A fat-tree
// set-up takes a few milliseconds, and on a shared host the same set-up runs
// at one of two speeds, 1.6x apart, for stretches of a second or so; nine
// set-ups spread 40% between runs.
inline constexpr int kSetupRepeats = 9;
inline constexpr double kSetupSeconds = 3;

struct RunConfig {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory inside the checkout (daemon snapshots, span dump).
  std::string work_dir;
};

// One repair input: a configuration snapshot plus the policies to enforce.
struct Input {
  std::string name;
  std::vector<std::string> config_texts;
  cpr::NetworkAnnotations annotations;
  std::vector<cpr::Policy> policies;
  std::string policy_text;  // The same policies in policy-spec form.
};

// Turns a generated snapshot into the input `cpr repair` or cprd would see
// for it on disk: configurations in file-name (hostname) order, policies
// written to policy-spec text and resolved against that order. Generators
// emit devices in construction order, and the solver's running time depends
// on the order.
cpr::Result<Input> AsOnDisk(std::string name, const std::vector<std::string>& texts,
                            cpr::NetworkAnnotations annotations,
                            const std::vector<cpr::Policy>& policies);

// The facts about a repair that must repeat exactly for one input, and that
// the traced composed pipeline must reproduce.
struct Verdict {
  std::string status;
  bool sound = false;
  int64_t predicted_cost = 0;
  int lines_changed = 0;
  int traffic_classes_impacted = 0;
  int residual_graph = 0;
  int residual_simulation = 0;

  bool operator==(const Verdict&) const = default;
  std::string ToString() const;
};

Verdict VerdictOf(const cpr::CprReport& report);

// Repair-engine figures of one repair (from RepairStats).
struct EngineStats {
  double encode_s = 0;
  double solve_wall_s = 0;
  double solve_cpu_sum_s = 0;
  double problem_max_s = 0;
  double problems = 0;
  double bool_vars = 0;
  double hard_constraints = 0;
  double soft_constraints = 0;
  double sat_conflicts = 0;
  double cores = 0;
  double rlimit = 0;
};

EngineStats EngineStatsOf(const cpr::RepairStats& stats);

// One timed repair.
struct Sample {
  size_t input = 0;        // Index into the workload's inputs.
  double seconds = 0;      // Latency.
  bool completed = false;  // The operation returned a report (no error).
  std::string error;       // Why not, when !completed.
  Verdict verdict;
  EngineStats engine;
  // Traced repairs: inclusive seconds per layer (metric stem -> time), the
  // time the layers were measured against, and per-policy simulator times.
  std::map<std::string, double> layers;
  double traced_root_s = 0;
  std::vector<double> simulate_policy_s;
  int policies_checked = 0;
  // Daemon workload: serve-layer figures from RequestStatus / stats-json.
  bool write_path = false;
  double queue_s = 0;
  double exec_s = 0;
  double groups_reused = 0;
  double groups_total = 0;
  double warm_hits = 0;
  double fallbacks = 0;
};

// A named metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> mismatches;  // Oracle failures; empty = correct.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;   // The result line's "metrics" object.
  std::vector<Metric> reported;  // Printed for people, not in the JSON.
  std::vector<cpr::obs::SpanRecord> spans;  // Traced runs; dumped at exit.
};

// Repair options every workload uses: z3, per-destination problems, the
// simulator on; compression and certification off, as they default for
// users.
cpr::CprOptions BenchOptions();

// ---- pipeline (perfbench/pipeline.cc) ----

// The timed unit of the direct workloads: Cpr::FromConfigTexts (parse,
// build, HARC) followed by Cpr::Repair (lint, encode, solve, translate,
// rebuild, re-verify, simulate, lint audit).
struct DirectRepair {
  double seconds = 0;
  cpr::Result<cpr::CprReport> report = cpr::Error("not run");
};
DirectRepair RepairDirect(const Input& input, const cpr::CprOptions& options);

// The same pipeline composed from outside by calling each module's public
// function under a benchmark-owned span per layer ("e2e.<layer>" under an
// "e2e.repair" root). Records spans into the global trace, which must be
// enabled by the caller; fills `sample` (latency, verdict, layers).
cpr::Result<cpr::CprReport> RepairComposed(const Input& input,
                                           const cpr::CprOptions& options,
                                           Sample* sample);

// Splits the spans of one composed repair into per-layer inclusive times.
void LayersFromSpans(const std::vector<cpr::obs::SpanRecord>& records, Sample* sample);

// ---- workloads ----

RunResult RunDirect(const RunConfig& config);  // perfbench/direct.cc
RunResult RunCprd(const RunConfig& config);    // perfbench/cprd.cc

// ---- helpers (perfbench/common.cc) ----

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank quantile, q in [0, 1]: the smallest value with at least a
// share q of the values at or below it; 0 for no values.
double Quantile(std::vector<double> values, double q);
// The Harrell-Davis estimate of the median: a weighted mean of the order
// statistics, with weights from the Beta((n+1)/2, (n+1)/2) distribution; 0
// for no values. Unlike the nearest-rank median it does not jump when two
// samples near the middle swap places, which on dc_fig7 (24 networks whose
// middle repairs lie 20-30% apart) moved the nearest-rank median of one run
// 30% against the next.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// FNV-1a over the printed configurations: identifies a patched snapshot.
uint64_t SnapshotHash(const std::vector<cpr::Config>& configs);

// The outside soundness oracle: rebuilds the report's patched
// configurations with the public pipeline functions (Network::Build ->
// Harc::Build -> FindViolations + FindSimulationViolations) and checks that
// the residual violations it finds are exactly the ones the report claims.
// Returns an empty string on agreement, else what disagreed.
std::string CheckSoundness(const Input& input, const cpr::CprReport& report);

// Checks that every repair of one input reached the same verdict; appends a
// mismatch per disagreement.
void CheckRepeats(const std::vector<Sample>& samples, const std::vector<Input>& inputs,
                  RunResult* result);

// Appends the end-to-end metrics shared by every workload. `samples` are
// the timed repairs of the window; `quality` holds the verdicts the
// lines/cost/impact means average over; `peak_rss_mb` is read after a
// fixed amount of the workload's work, before the checks add their own.
void AddEndToEnd(const std::vector<Sample>& samples, const std::vector<Verdict>& quality,
                 double window_s, double setup_s, double peak_rss_mb, RunResult* result);

// What the traced split is computed from.
struct LayerInputs {
  std::vector<Sample> traced;         // Repairs carrying layer times.
  std::vector<double> policy_times;   // Per-call CheckPolicyBySimulation s.
  int solve_threads = kSolverThreads;
  double traced_p50_s = 0;
  double untraced_p50_s = 0;
  double failed_share = 0;
  double peak_rss_mb = 0;
  // Daemon workload only (zero elsewhere: the layer is bypassed).
  std::vector<Sample> serve;
  double cache_hit_ratio = 0;
  double admission_rejects = 0;
};

// Appends every per-layer metric, zero where the workload bypasses a layer.
void AddPerLayer(const LayerInputs& in, RunResult* result);

// Share of samples that did not end sound (error, timeout, partial, lint
// rejection, residual violation).
double FailedShare(const std::vector<Sample>& samples);

}  // namespace perfbench

#endif  // CPR_PERFBENCH_E2E_H_
