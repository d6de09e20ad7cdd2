#include "compress/compress.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>

#include "compress/lift.h"
#include "config/diff.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "verify/checker.h"

namespace cpr::compress {

namespace {

class Timer {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

// Pin the group's policy endpoints so refinement keeps them expressible: the
// destination becomes a singleton role, and each source carries the set of
// policy demands it places on this destination.
SubnetPins GroupPins(const RepairProblem& group) {
  SubnetPins pins;
  for (SubnetId dst : group.dsts) {
    pins.tokens[dst] = "dst";
  }
  std::map<SubnetId, std::set<std::string>> roles;
  for (const Policy& policy : group.policies) {
    std::string role = PolicyClassName(policy.pc);
    if (policy.pc == PolicyClass::kReachability) {
      role += ":" + std::to_string(policy.k);
    }
    roles[policy.src].insert(std::move(role));
  }
  for (const auto& [src, demands] : roles) {
    if (pins.tokens.count(src) > 0) {
      continue;  // A subnet that is also a destination keeps the dst pin.
    }
    std::string token = "src";
    for (const std::string& demand : demands) {
      token += ":" + demand;
    }
    pins.tokens[src] = token;
  }
  return pins;
}

bool Mappable(const RepairProblem& group) {
  return std::all_of(group.policies.begin(), group.policies.end(), [](const Policy& p) {
    return p.pc == PolicyClass::kAlwaysBlocked || p.pc == PolicyClass::kAlwaysWaypoint ||
           p.pc == PolicyClass::kReachability;
  });
}

void AccumulateCounters(const std::vector<std::pair<std::string, double>>& from,
                        std::map<std::string, double>* into) {
  for (const auto& [key, value] : from) {
    (*into)[key] += value;
  }
}

void AccumulateStats(const RepairStats& from, RepairStats* into,
                     std::map<std::string, double>* counter_totals) {
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
  into->certify_checked += from.certify_checked;
  into->certify_verified += from.certify_verified;
  into->certify_failed += from.certify_failed;
  into->certify_artifacts += from.certify_artifacts;
  AccumulateCounters(from.solver_counter_totals, counter_totals);
}

// Everything the base (unpinned) partition depends on: per-device role
// signatures plus the link/subnet shape WL refinement walks. Two networks
// with equal keys refine to the same block structure, so a cached partition
// may survive a snapshot change (differ-small reuse).
std::string StructureKey(const Network& network) {
  std::ostringstream key;
  for (const Device& device : network.devices()) {
    key << device.name << '\x1f'
        << RoleSignature(network.configs()[static_cast<size_t>(device.config_index)])
        << '\x1e';
  }
  for (const TopoLink& link : network.links()) {
    key << 'L' << link.device_a << ' ' << link.interface_a << ' ' << link.device_b << ' '
        << link.interface_b << ' ' << (link.waypoint ? 1 : 0) << '\x1e';
  }
  for (const Subnet& subnet : network.subnets()) {
    key << 'S' << subnet.prefix.ToString() << ' ' << subnet.device << ' '
        << subnet.interface << '\x1e';
  }
  return key.str();
}

void AppendEdits(const RepairEdits& from, RepairEdits* into) {
  auto append = [](const auto& src, auto* dst) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(from.adjacencies, &into->adjacencies);
  append(from.redistributions, &into->redistributions);
  append(from.filters, &into->filters);
  append(from.static_routes, &into->static_routes);
  append(from.acls, &into->acls);
  append(from.costs, &into->costs);
  append(from.waypoints, &into->waypoints);
}

}  // namespace

Partition CompressionCache::Base(const Network& network) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RebindLocked(network);
    if (base_.has_value()) {
      ++hits_;
      return *base_;
    }
  }
  Partition computed = ComputePartition(network);
  std::lock_guard<std::mutex> lock(mu_);
  RebindLocked(network);
  if (!base_.has_value()) {
    ++misses_;
    base_ = computed;
  } else {
    ++hits_;
  }
  return *base_;
}

std::shared_ptr<const Quotient> CompressionCache::Find(const Network& network,
                                                       const std::string& pin_key) {
  std::lock_guard<std::mutex> lock(mu_);
  RebindLocked(network);
  auto it = quotients_.find(pin_key);
  if (it == quotients_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void CompressionCache::Insert(const Network& network, const std::string& pin_key,
                              std::shared_ptr<const Quotient> quotient) {
  std::lock_guard<std::mutex> lock(mu_);
  RebindLocked(network);
  quotients_.emplace(pin_key, std::move(quotient));
}

int64_t CompressionCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t CompressionCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t CompressionCache::partition_reuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_reuses_;
}

void CompressionCache::RebindLocked(const Network& network) {
  if (generation_ == network.generation()) {
    return;
  }
  std::string structure = StructureKey(network);
  const bool reuse = base_.has_value() && structure == structure_;
  generation_ = network.generation();
  structure_ = std::move(structure);
  quotients_.clear();
  if (reuse) {
    ++partition_reuses_;
  } else {
    base_.reset();
  }
}

Result<CompressionOutcome> TryCompressedRepair(const Network& network, const Harc& harc,
                                               const std::vector<Policy>& policies,
                                               const RepairOptions& options) {
  CompressionOutcome outcome;
  CompressionStats& stats = outcome.stats;
  stats.attempted = true;
  stats.routers = static_cast<int>(network.devices().size());
  obs::Registry& registry = obs::CurrentRegistry();
  registry.counter("compression.attempted").Increment();
  const CompressOptions& copt = options.compress;

  auto decline = [&](const std::string& reason) {
    stats.skipped_reason = reason;
    stats.quotient_ratio = 1.0;
    registry.counter("compression.declined").Increment();
    return std::move(outcome);
  };

  if (options.granularity != Granularity::kPerDst) {
    return decline("compression requires per-destination granularity");
  }
  if (copt.mode == CompressMode::kAuto && stats.routers < copt.min_routers) {
    return decline("network smaller than min_routers");
  }

  // Go/no-go: the unpinned base partition bounds every pinned one.
  {
    Timer timer;
    Partition base =
        copt.cache != nullptr ? copt.cache->Base(network) : ComputePartition(network);
    stats.partition_seconds += timer.Seconds();
    stats.base_blocks = base.block_count();
    if (copt.mode == CompressMode::kAuto && base.Ratio() < copt.min_ratio) {
      return decline("base partition ratio below min_ratio");
    }
  }

  const std::vector<RepairProblem> groups =
      PartitionProblems(harc, policies, options, FindViolations(harc, policies));
  stats.groups_total = static_cast<int>(groups.size());
  if (groups.empty()) {
    return decline("no violations");
  }

  // --- Per-group quotient solves.
  RepairEdits lifted_edits;
  std::set<std::string> emitted;
  std::vector<Policy> compressed_policies;
  RepairStats merged;
  std::map<std::string, double> counter_totals;
  obs::ProvenanceReport provenance;
  int64_t predicted_cost = 0;
  double ratio_sum = 0;
  {
    obs::StageSpan span("pipeline.compress");
    for (const RepairProblem& group : groups) {
      if (!Mappable(group) || options.deadline.Expired()) {
        continue;  // The concrete fallback repair picks these up.
      }
      const SubnetPins pins = GroupPins(group);
      const std::string pin_key = pins.Key();
      std::shared_ptr<const Quotient> quotient =
          copt.cache != nullptr ? copt.cache->Find(network, pin_key) : nullptr;
      if (quotient != nullptr) {
        ++stats.cache_hits;
      } else {
        ++stats.cache_misses;
        Timer partition_timer;
        const Partition partition = ComputePartition(network, pins);
        stats.partition_seconds += partition_timer.Seconds();
        Timer quotient_timer;
        Result<Quotient> built = BuildQuotient(network, partition);
        stats.quotient_seconds += quotient_timer.Seconds();
        if (!built.ok()) {
          continue;
        }
        auto owned = std::make_shared<Quotient>(std::move(built).value());
        quotient = owned;
        if (copt.cache != nullptr) {
          copt.cache->Insert(network, pin_key, quotient);
        }
      }
      const double required_ratio =
          copt.mode == CompressMode::kAuto ? copt.min_ratio : 1.0001;
      if (quotient->Ratio() < required_ratio) {
        continue;
      }
      std::vector<Policy> quotient_policies;
      quotient_policies.reserve(group.policies.size());
      for (const Policy& policy : group.policies) {
        auto mapped = MapPolicy(*quotient, policy);
        if (!mapped.has_value()) {
          break;
        }
        quotient_policies.push_back(*mapped);
      }
      if (quotient_policies.size() != group.policies.size()) {
        continue;
      }
      RepairOptions quotient_options = options;
      quotient_options.compress = CompressOptions{};
      quotient_options.num_threads = 1;
      Timer solve_timer;
      Result<RepairOutcome> solved =
          ComputeRepair(*quotient->harc, quotient_policies, quotient_options);
      stats.solve_seconds += solve_timer.Seconds();
      if (!solved.ok() || !solved->HasRepair() ||
          solved->status == RepairStatus::kPartial) {
        continue;
      }

      LiftedEdits lift = LiftEdits(*quotient, solved->edits, &emitted);
      stats.abstract_edits += lift.abstract_edits;
      stats.lifted_edits += lift.concrete_edits;
      AppendEdits(lift.edits, &lifted_edits);

      // Merge stats and provenance, renumbering problems sequentially and
      // re-expressing every id in concrete terms.
      const int problem_base = static_cast<int>(merged.problem_reports.size());
      AccumulateStats(solved->stats, &merged, &counter_totals);
      auto concrete = [&](ProblemReport report) {
        std::vector<SubnetId> concrete_dsts;
        for (SubnetId dst : report.dsts) {
          const auto& members = quotient->subnet_members[static_cast<size_t>(dst)];
          concrete_dsts.insert(concrete_dsts.end(), members.begin(), members.end());
        }
        report.dsts = std::move(concrete_dsts);
        return report;
      };
      for (const ProblemReport& report : solved->stats.problem_reports) {
        merged.problem_reports.push_back(concrete(report));
      }
      for (const ProblemReport& report : solved->stats.superseded_reports) {
        merged.superseded_reports.push_back(concrete(report));
      }
      std::vector<std::string> dst_names;
      for (SubnetId dst : group.dsts) {
        dst_names.push_back(network.subnets()[static_cast<size_t>(dst)].prefix.ToString());
      }
      std::vector<std::string> policy_names;
      for (const Policy& policy : group.policies) {
        policy_names.push_back(policy.ToString(network));
      }
      for (const obs::ProvenanceChain& chain : solved->provenance.chains) {
        auto fanout = lift.fanout.find(chain.construct);
        if (fanout == lift.fanout.end()) {
          continue;
        }
        for (const auto& [construct, description] : fanout->second) {
          obs::ProvenanceChain fanned = chain;
          fanned.construct = construct;
          fanned.edit = description;
          fanned.soft_label = construct;
          fanned.problem = problem_base + std::max(chain.problem, 0);
          fanned.dsts = dst_names;
          fanned.policies = policy_names;
          provenance.chains.push_back(std::move(fanned));
        }
      }
      for (const std::string& orphan : solved->provenance.orphan_edits) {
        auto fanout = lift.fanout.find(orphan);
        if (fanout != lift.fanout.end()) {
          for (const auto& [construct, description] : fanout->second) {
            (void)description;
            provenance.orphan_edits.push_back(construct);
          }
        } else {
          provenance.orphan_edits.push_back("quotient:" + orphan);
        }
      }

      compressed_policies.insert(compressed_policies.end(), group.policies.begin(),
                                 group.policies.end());
      ++stats.groups_compressed;
      ratio_sum += quotient->Ratio();
      predicted_cost += solved->predicted_cost;
    }
    if (stats.groups_compressed > 0) {
      std::ostringstream ratio;
      ratio << ratio_sum / stats.groups_compressed;
      span.Annotate("quotient_ratio", ratio.str());
      span.Annotate("groups_compressed", std::to_string(stats.groups_compressed));
    }
  }
  stats.groups_fallback = stats.groups_total - stats.groups_compressed;
  if (stats.groups_compressed == 0) {
    return decline("no compressible groups");
  }
  stats.quotient_ratio = ratio_sum / stats.groups_compressed;

  // --- Lift: translate on the concrete network, re-verify, fall back.
  Timer lift_timer;
  obs::StageSpan lift_span("pipeline.lift");
  Result<TranslationResult> translation = TranslateEdits(network, lifted_edits);
  if (!translation.ok()) {
    return decline("lifted edits failed to translate: " + translation.error().message());
  }
  Result<Network> rebuilt =
      Network::Build(translation->patched_configs, translation->annotations);
  if (!rebuilt.ok()) {
    return decline("lifted patch broke the network: " + rebuilt.error().message());
  }
  auto patched_network = std::make_unique<Network>(std::move(rebuilt).value());
  auto patched_harc = std::make_unique<Harc>(Harc::Build(*patched_network));
  const std::vector<Policy> residual = FindViolations(*patched_harc, policies);
  for (const Policy& policy : residual) {
    if (std::find(compressed_policies.begin(), compressed_policies.end(), policy) !=
        compressed_policies.end()) {
      ++stats.lift_verify_failures;
    }
  }
  stats.fallback_policies = static_cast<int>(residual.size());
  lift_span.Annotate("lifted_edits", std::to_string(stats.lifted_edits));
  lift_span.Annotate("verify_failures", std::to_string(stats.lift_verify_failures));

  CompressedRepairResult result;
  result.edits = lifted_edits;
  result.patched_configs = translation->patched_configs;
  result.patched_annotations = translation->annotations;
  result.change_log = translation->change_log;
  result.edit_traces = translation->edit_traces;
  result.predicted_cost = predicted_cost;
  result.provenance = std::move(provenance);

  if (residual.empty()) {
    result.status = RepairStatus::kSuccess;
    result.rebuilt_network = std::move(patched_network);
    result.rebuilt_harc = std::move(patched_harc);
  } else {
    // Uncompressed fallback on the patched network: repairs both the groups
    // compression never touched and any group whose lifted patch fell short.
    RepairOptions fallback_options = options;
    fallback_options.compress = CompressOptions{};
    Result<RepairOutcome> fallback =
        ComputeRepair(*patched_harc, residual, fallback_options);
    if (!fallback.ok()) {
      return fallback.error();
    }
    const int problem_base = static_cast<int>(merged.problem_reports.size());
    AccumulateStats(fallback->stats, &merged, &counter_totals);
    for (const ProblemReport& report : fallback->stats.problem_reports) {
      merged.problem_reports.push_back(report);
    }
    for (const ProblemReport& report : fallback->stats.superseded_reports) {
      merged.superseded_reports.push_back(report);
    }
    for (obs::ProvenanceChain chain : fallback->provenance.chains) {
      chain.problem += problem_base;
      result.provenance.chains.push_back(std::move(chain));
    }
    for (const std::string& orphan : fallback->provenance.orphan_edits) {
      result.provenance.orphan_edits.push_back(orphan);
    }
    for (obs::UnsatCoreReport core : fallback->provenance.unsat_cores) {
      core.problem += problem_base;
      result.provenance.unsat_cores.push_back(std::move(core));
    }
    if (fallback->HasRepair()) {
      Result<TranslationResult> second =
          TranslateEdits(*patched_network, fallback->edits);
      if (!second.ok()) {
        return second.error();
      }
      result.patched_configs = second->patched_configs;
      result.patched_annotations = second->annotations;
      result.change_log.insert(result.change_log.end(), second->change_log.begin(),
                               second->change_log.end());
      result.edit_traces.insert(result.edit_traces.end(), second->edit_traces.begin(),
                                second->edit_traces.end());
      AppendEdits(fallback->edits, &result.edits);
      result.predicted_cost += fallback->predicted_cost;
      result.status = fallback->status == RepairStatus::kSuccess ? RepairStatus::kSuccess
                                                                 : RepairStatus::kPartial;
    } else {
      // The lifted patch stands; the policies the fallback could not solve
      // remain in residual_graph_violations.
      result.status = RepairStatus::kPartial;
    }
  }
  stats.lift_seconds = lift_timer.Seconds();

  // Diff against the *original* configurations: phase-2 patches stack on
  // phase-1's, and "lines changed" must mean end to end.
  {
    std::ostringstream text;
    for (size_t i = 0; i < network.configs().size(); ++i) {
      const ConfigDiff diff = DiffConfigs(network.configs()[i], result.patched_configs[i]);
      if (diff.lines.empty()) {
        continue;
      }
      result.lines_changed += diff.total();
      text << "--- " << network.configs()[i].hostname << " ---\n" << diff.ToString();
    }
    result.diff_text = text.str();
  }

  merged.solver_counter_totals.assign(counter_totals.begin(), counter_totals.end());
  result.stats = std::move(merged);

  stats.applied = true;
  registry.counter("compression.applied").Increment();
  registry.counter("compression.groups_compressed")
      .Add(static_cast<int64_t>(stats.groups_compressed));
  registry.counter("compression.groups_fallback")
      .Add(static_cast<int64_t>(stats.groups_fallback));
  registry.counter("compression.abstract_edits")
      .Add(static_cast<int64_t>(stats.abstract_edits));
  registry.counter("compression.lifted_edits")
      .Add(static_cast<int64_t>(stats.lifted_edits));
  registry.counter("compression.lift_verify_failures")
      .Add(static_cast<int64_t>(stats.lift_verify_failures));
  registry.counter("compression.cache_hits").Add(static_cast<int64_t>(stats.cache_hits));
  registry.counter("compression.cache_misses")
      .Add(static_cast<int64_t>(stats.cache_misses));

  outcome.result = std::move(result);
  return outcome;
}

}  // namespace cpr::compress
