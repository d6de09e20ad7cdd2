#include "incremental/incremental.h"

#include <chrono>
#include <utility>

#include "config/diff.h"
#include "verify/checker.h"

namespace cpr::incremental {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

template <typename T>
void MoveAppend(std::vector<T>* into, std::vector<T>&& from) {
  into->insert(into->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
}

void AppendEdits(RepairEdits* into, RepairEdits&& from) {
  MoveAppend(&into->adjacencies, std::move(from.adjacencies));
  MoveAppend(&into->redistributions, std::move(from.redistributions));
  MoveAppend(&into->filters, std::move(from.filters));
  MoveAppend(&into->static_routes, std::move(from.static_routes));
  MoveAppend(&into->acls, std::move(from.acls));
  MoveAppend(&into->costs, std::move(from.costs));
  MoveAppend(&into->waypoints, std::move(from.waypoints));
}

// Folds the fallback phase's repair metrics into the scoped phase's, keeping
// problem indices consistent with the appended problem_reports.
void MergeRepairStats(RepairStats* into, RepairStats&& from) {
  into->problems_formulated += from.problems_formulated;
  into->problems_solved += from.problems_solved;
  into->problems_failed += from.problems_failed;
  into->destinations_skipped += from.destinations_skipped;
  into->policies_deferred += from.policies_deferred;
  into->groups_escalated += from.groups_escalated;
  into->encode_seconds += from.encode_seconds;
  into->solve_seconds += from.solve_seconds;
  into->solve_wall_seconds += from.solve_wall_seconds;
  into->wall_seconds += from.wall_seconds;
  into->bool_vars += from.bool_vars;
  into->hard_constraints += from.hard_constraints;
  into->soft_constraints += from.soft_constraints;
  MoveAppend(&into->problem_reports, std::move(from.problem_reports));
  MoveAppend(&into->superseded_reports, std::move(from.superseded_reports));
  for (auto& [name, value] : from.solver_counter_totals) {
    bool found = false;
    for (auto& [existing, total] : into->solver_counter_totals) {
      if (existing == name) {
        total += value;
        found = true;
        break;
      }
    }
    if (!found) {
      into->solver_counter_totals.emplace_back(name, value);
    }
  }
}

}  // namespace

std::optional<Harc> PrepareHarc(const RepairSession& session, const Network& network,
                                const DirtySet& dirty, IncrementalStats* stats) {
  stats->devices_changed = dirty.devices_changed;
  stats->everything_dirty = dirty.everything;
  if (dirty.everything) {
    return std::nullopt;
  }
  const auto start = std::chrono::steady_clock::now();
  std::optional<Harc> clone = session.harc->CloneFor(network);
  if (!clone.has_value()) {
    return std::nullopt;
  }
  const std::vector<Subnet>& subnets = network.subnets();
  const int subnet_count = static_cast<int>(subnets.size());
  std::vector<bool> dst_dirty(subnets.size(), false);
  for (SubnetId d = 0; d < subnet_count; ++d) {
    if (dirty.DstDirty(subnets[static_cast<size_t>(d)].prefix)) {
      dst_dirty[static_cast<size_t>(d)] = true;
      clone->RebuildDestination(d);
      ++stats->dirty_destinations;
    }
  }
  for (SubnetId s = 0; s < subnet_count; ++s) {
    for (SubnetId d = 0; d < subnet_count; ++d) {
      if (s == d || dst_dirty[static_cast<size_t>(d)]) {
        continue;
      }
      if (dirty.TcPairDirty(subnets[static_cast<size_t>(s)].prefix,
                            subnets[static_cast<size_t>(d)].prefix)) {
        clone->RebuildTrafficClass(s, d);
        ++stats->dirty_traffic_classes;
      }
    }
  }
  stats->harc_cloned = true;
  stats->clone_seconds = SecondsSince(start);
  return clone;
}

Result<IncrementalOutcome> TryIncrementalRepair(RepairSession& session,
                                                const Network& network, const Harc& harc,
                                                const DirtySet& dirty,
                                                const std::vector<Policy>& policies,
                                                const RepairOptions& options,
                                                const IncrementalStats& seed) {
  IncrementalOutcome outcome;
  outcome.stats = seed;
  outcome.stats.attempted = true;
  const auto decline = [&outcome](std::string reason) {
    outcome.stats.skipped_reason = std::move(reason);
  };

  if (options.granularity != Granularity::kPerDst) {
    decline("incremental re-repair requires per-destination granularity");
    return outcome;
  }
  if (!(policies == session.policies)) {
    decline("policy set changed since the baseline session");
    return outcome;
  }
  if (dirty.everything) {
    decline("change is not destination-scopable (topology/process/cost edit)");
    return outcome;
  }
  // Group reuse relies on subnet ids meaning the same thing in both
  // snapshots, which is exactly what a successful HARC clone certifies.
  if (!outcome.stats.harc_cloned) {
    decline("snapshot is not clone-compatible with the baseline");
    return outcome;
  }

  // Classify the baseline groups: clean satisfied groups reuse their
  // verdict; everything else (dirty, or never satisfied) re-solves. The
  // final concrete re-verification below covers all policies regardless, so
  // a misclassified group surfaces as a residual violation, not as silence.
  const std::vector<Subnet>& subnets = network.subnets();
  const auto group_dirty = [&](const GroupRecord& group) {
    for (SubnetId d : group.dsts) {
      if (dirty.DstDirty(subnets[static_cast<size_t>(d)].prefix)) {
        return true;
      }
    }
    for (const auto& [s, d] : group.tcs) {
      if (dirty.TcPairDirty(subnets[static_cast<size_t>(s)].prefix,
                            subnets[static_cast<size_t>(d)].prefix)) {
        return true;
      }
    }
    return false;
  };
  std::vector<Policy> resolve;
  outcome.stats.groups_total = static_cast<int>(session.groups.size());
  for (const GroupRecord& group : session.groups) {
    if (group.satisfied && !group_dirty(group)) {
      ++outcome.stats.groups_reused;
      continue;
    }
    ++outcome.stats.groups_resolved;
    resolve.insert(resolve.end(), group.policies.begin(), group.policies.end());
  }

  IncrementalRepairResult result;
  if (!resolve.empty()) {
    // Hand exactly the dirty groups to the unchanged repair engine. Warm
    // per-problem solvers come from the session; merge propagation is
    // skipped because every un-encoded ETG already reflects the current
    // configurations (clean ones by the differ, dirty non-violated ones by
    // the clone's rebuild).
    RepairOptions scoped = options;
    scoped.warm_backends = &session.warm;
    scoped.propagate_merge = false;
    scoped.compress.mode = CompressMode::kOff;
    const auto solve_start = std::chrono::steady_clock::now();
    Result<RepairOutcome> solved = ComputeRepair(harc, resolve, scoped);
    outcome.stats.solve_seconds = SecondsSince(solve_start);
    if (!solved.ok()) {
      return solved.error();
    }
    for (const auto& [name, value] : solved->stats.solver_counter_totals) {
      if (name == "warm.hit") {
        outcome.stats.warm_hits += static_cast<int>(value);
      } else if (name == "warm.miss") {
        outcome.stats.warm_misses += static_cast<int>(value);
      }
    }
    if (!solved->HasRepair()) {
      outcome.stats.fell_back = true;
      decline(std::string("scoped solve failed (") + RepairStatusName(solved->status) +
              "); running the full pipeline");
      return outcome;
    }
    result.status = solved->status;
    result.edits = std::move(solved->edits);
    result.predicted_cost = solved->predicted_cost;
    result.stats = std::move(solved->stats);
    result.provenance = std::move(solved->provenance);
  } else {
    result.status = RepairStatus::kNoViolations;
  }

  Result<TranslationResult> translation = TranslateEdits(network, result.edits);
  if (!translation.ok()) {
    return translation.error();
  }
  result.lines_changed = translation->LinesChanged();
  result.diff_text = translation->DiffText(network);
  result.patched_configs = std::move(translation->patched_configs);
  result.patched_annotations = std::move(translation->annotations);
  result.change_log = std::move(translation->change_log);
  result.edit_traces = std::move(translation->edit_traces);

  // Concrete re-verification: rebuild the patched snapshot from scratch —
  // never from the clone — and check every policy. This is the soundness
  // anchor; the dirty set and the clone only decided how much work the
  // scoped solve absorbed.
  const auto verify_start = std::chrono::steady_clock::now();
  Result<Network> rebuilt =
      Network::Build(result.patched_configs, result.patched_annotations);
  if (!rebuilt.ok()) {
    return Error("incrementally patched configurations no longer form a valid network: " +
                 rebuilt.error().message());
  }
  result.rebuilt_network = std::make_unique<Network>(std::move(rebuilt).value());
  result.rebuilt_harc = std::make_unique<Harc>(Harc::Build(*result.rebuilt_network));
  std::vector<Policy> residual = FindViolations(*result.rebuilt_harc, policies);
  outcome.stats.verify_seconds = SecondsSince(verify_start);

  if (!residual.empty()) {
    // The dirty set under-marked (or the scoped solve fixed less than it
    // predicted): fall back to a full-scope repair on the concretely rebuilt
    // patched snapshot — compression's fallback pattern. The solve input
    // here was built from scratch, so nothing about this path depends on the
    // differ or the clone.
    outcome.stats.fell_back = true;
    RepairOptions fallback_options = options;
    fallback_options.compress.mode = CompressMode::kOff;
    fallback_options.warm_backends = &session.warm;
    Result<RepairOutcome> fallback =
        ComputeRepair(*result.rebuilt_harc, policies, fallback_options);
    if (!fallback.ok()) {
      return fallback.error();
    }
    if (!fallback->HasRepair()) {
      decline(std::string("fallback repair failed (") +
              RepairStatusName(fallback->status) + "); running the full pipeline");
      return outcome;
    }
    const int scoped_problems = static_cast<int>(result.stats.problem_reports.size());
    for (obs::ProvenanceChain& chain : fallback->provenance.chains) {
      chain.problem += scoped_problems;
    }
    for (obs::UnsatCoreReport& core : fallback->provenance.unsat_cores) {
      core.problem += scoped_problems;
    }
    MoveAppend(&result.provenance.chains, std::move(fallback->provenance.chains));
    MoveAppend(&result.provenance.orphan_edits,
               std::move(fallback->provenance.orphan_edits));
    MoveAppend(&result.provenance.unsat_cores,
               std::move(fallback->provenance.unsat_cores));
    MergeRepairStats(&result.stats, std::move(fallback->stats));
    result.predicted_cost += fallback->predicted_cost;

    Result<TranslationResult> second =
        TranslateEdits(*result.rebuilt_network, fallback->edits);
    if (!second.ok()) {
      return second.error();
    }
    AppendEdits(&result.edits, std::move(fallback->edits));
    result.diff_text += second->DiffText(*result.rebuilt_network);
    MoveAppend(&result.change_log, std::move(second->change_log));
    MoveAppend(&result.edit_traces, std::move(second->edit_traces));
    result.patched_configs = std::move(second->patched_configs);
    result.patched_annotations = std::move(second->annotations);
    result.lines_changed = TotalLinesChanged(network.configs(), result.patched_configs);

    Result<Network> final_network =
        Network::Build(result.patched_configs, result.patched_annotations);
    if (!final_network.ok()) {
      return Error("fallback-patched configurations no longer form a valid network: " +
                   final_network.error().message());
    }
    result.rebuilt_network = std::make_unique<Network>(std::move(final_network).value());
    result.rebuilt_harc = std::make_unique<Harc>(Harc::Build(*result.rebuilt_network));
    // Any violation still left is the ordinary pipeline's situation too
    // (e.g. kPartial): CloseLoop re-verifies on this pair and reports it.
    result.status = fallback->status;
  }

  outcome.stats.applied = true;
  outcome.result = std::move(result);
  return outcome;
}

}  // namespace cpr::incremental
