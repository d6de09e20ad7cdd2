#include "repair/repair.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "certify/artifact.h"
#include "certify/certify.h"
#include "netbase/deadline.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "solver/failover.h"
#include "solver/fault_injection.h"
#include "verify/checker.h"

namespace cpr {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Collects the tcs/policies of the given destination set into a problem.
// Isolation policies span two destinations; the partitioner guarantees both
// land in the same set.
RepairProblem MakeProblem(const std::vector<Policy>& policies,
                          const std::set<SubnetId>& dsts, bool mutable_aetg) {
  RepairProblem problem;
  problem.dsts.assign(dsts.begin(), dsts.end());
  problem.mutable_aetg = mutable_aetg;
  std::set<std::pair<SubnetId, SubnetId>> tcs;
  for (const Policy& policy : policies) {
    if (policy.pc == PolicyClass::kIsolation) {
      if (dsts.count(policy.dst) > 0 && dsts.count(policy.dst2) > 0) {
        problem.policies.push_back(policy);
        tcs.insert({policy.src, policy.dst});
        tcs.insert({policy.src2, policy.dst2});
      }
      continue;
    }
    if (dsts.count(policy.dst) > 0) {
      problem.policies.push_back(policy);
      tcs.insert({policy.src, policy.dst});
    }
  }
  problem.tcs.assign(tcs.begin(), tcs.end());
  return problem;
}

// Minimal union-find over subnet ids, used to group destinations that must
// be repaired together (shared PC4 costs, isolation pairs).
class DstGroups {
 public:
  explicit DstGroups(int n) : parent_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      parent_[static_cast<size_t>(i)] = i;
    }
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      x = parent_[static_cast<size_t>(x)] = parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    }
    return x;
  }
  void Union(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }

 private:
  std::vector<int> parent_;
};

// The must-solve-together destination groups of a policy set: PC4 policies
// share global edge costs so all their destinations form one group, and an
// isolation policy's two destinations constrain each other. Returned in
// deterministic (smallest-member) order — the incremental engine relies on
// the group list being stable across runs with an unchanged policy set.
std::map<int, std::set<SubnetId>> GroupPoliciedDsts(const Harc& harc,
                                                    const std::vector<Policy>& policies) {
  DstGroups groups(harc.SubnetCount());
  std::optional<SubnetId> pc4_anchor;
  for (const Policy& policy : policies) {
    if (policy.pc == PolicyClass::kPrimaryPath) {
      if (pc4_anchor.has_value()) {
        groups.Union(policy.dst, *pc4_anchor);
      } else {
        pc4_anchor = policy.dst;
      }
    }
    if (policy.pc == PolicyClass::kIsolation) {
      groups.Union(policy.dst, policy.dst2);
    }
  }
  std::map<int, std::set<SubnetId>> members;
  for (const Policy& policy : policies) {
    members[groups.Find(policy.dst)].insert(policy.dst);
    if (policy.pc == PolicyClass::kIsolation) {
      members[groups.Find(policy.dst2)].insert(policy.dst2);
    }
  }
  return members;
}

}  // namespace

std::vector<RepairProblem> PartitionProblems(const Harc& harc,
                                             const std::vector<Policy>& policies,
                                             const RepairOptions& options,
                                             const std::vector<Policy>& violations) {
  std::vector<RepairProblem> problems;
  if (policies.empty()) {
    return problems;
  }
  if (options.granularity == Granularity::kAllTcs) {
    std::set<SubnetId> dsts;
    for (const Policy& policy : policies) {
      dsts.insert(policy.dst);
    }
    problems.push_back(MakeProblem(policies, dsts, /*mutable_aetg=*/true));
    return problems;
  }

  // kPerDst: only destinations with a violated policy need repair, but
  // destinations coupled by shared state must be solved together:
  // PC4 policies share global edge costs (all their destinations form one
  // group), and an isolation policy's two destinations constrain each other.
  std::set<SubnetId> violated_dsts;
  for (const Policy& policy : violations) {
    violated_dsts.insert(policy.dst);
    if (policy.pc == PolicyClass::kIsolation) {
      violated_dsts.insert(policy.dst2);
    }
  }

  // A group is repaired when any member destination has a violation; the
  // PC4 group additionally pulls in all its members regardless.
  std::map<int, std::set<SubnetId>> members = GroupPoliciedDsts(harc, policies);
  for (const auto& [root, dsts] : members) {
    bool needed = std::any_of(dsts.begin(), dsts.end(), [&](SubnetId d) {
      return violated_dsts.count(d) > 0;
    });
    if (needed) {
      problems.push_back(MakeProblem(policies, dsts, /*mutable_aetg=*/false));
    }
  }
  return problems;
}

std::vector<RepairProblem> PartitionAllGroups(const Harc& harc,
                                              const std::vector<Policy>& policies,
                                              const RepairOptions& options) {
  std::vector<RepairProblem> problems;
  if (policies.empty()) {
    return problems;
  }
  if (options.granularity == Granularity::kAllTcs) {
    std::set<SubnetId> dsts;
    for (const Policy& policy : policies) {
      dsts.insert(policy.dst);
    }
    problems.push_back(MakeProblem(policies, dsts, /*mutable_aetg=*/true));
    return problems;
  }
  std::map<int, std::set<SubnetId>> members = GroupPoliciedDsts(harc, policies);
  for (const auto& [root, dsts] : members) {
    problems.push_back(MakeProblem(policies, dsts, /*mutable_aetg=*/false));
  }
  return problems;
}

namespace {

// Non-owning adapter so a provider-owned warm backend can sit at the bottom
// of the (owning) fault-injection/failover decorator stack.
class BorrowedBackend final : public MaxSmtBackend {
 public:
  explicit BorrowedBackend(MaxSmtBackend* inner) : inner_(inner) {}
  MaxSmtResult Solve(const ConstraintSystem& system, double timeout_seconds) override {
    return inner_->Solve(system, timeout_seconds);
  }
  MaxSmtResult SolveCertified(const ConstraintSystem& system,
                              double timeout_seconds) override {
    return inner_->SolveCertified(system, timeout_seconds);
  }
  std::string name() const override { return inner_->name(); }

 private:
  MaxSmtBackend* inner_;
};

// Stable per-problem identity for warm-state retention: the destination
// group. Groups are disjoint within a run, so the key also serializes access
// to the provider's per-key backend instance.
std::string ProblemKey(const std::vector<SubnetId>& dsts) {
  std::string key = "d";
  for (SubnetId d : dsts) {
    key += ':';
    key += std::to_string(d);
  }
  return key;
}

}  // namespace

// Builds one worker's solver stack: the chosen engine (or, when the
// incremental engine retained warm state for this problem, that borrowed
// warm instance), optionally wrapped in deterministic fault injection,
// always wrapped in the failover/retry/exception-isolation decorator. Each
// worker owns its own stack (Z3 contexts are created per call, so workers
// never share Z3 state).
std::unique_ptr<MaxSmtBackend> MakeWorkerBackend(const RepairOptions& options,
                                                 const Deadline& deadline,
                                                 MaxSmtBackend* warm_primary = nullptr) {
  std::unique_ptr<MaxSmtBackend> primary;
  if (warm_primary != nullptr) {
    primary = std::make_unique<BorrowedBackend>(warm_primary);
  } else {
    primary = options.backend == BackendChoice::kZ3 ? MakeZ3Backend()
                                                    : MakeInternalBackend();
  }
  if (options.fault_injection.enabled()) {
    primary = MakeFaultInjectingBackend(std::move(primary), options.fault_injection);
  }
  // The certifying wrapper must sit ABOVE fault injection (so seeded
  // certificate corruption is visible to the checker) and BELOW failover (so
  // a failed check on the primary can reroute to the secondary, which gets
  // its own independent checker).
  if (options.certify != certify::CertifyMode::kOff) {
    primary = certify::MakeCertifyingBackend(std::move(primary), options.certify);
  }
  std::unique_ptr<MaxSmtBackend> secondary;
  if (options.enable_failover && options.backend == BackendChoice::kInternal) {
    secondary = MakeZ3Backend();
    if (options.certify != certify::CertifyMode::kOff) {
      secondary = certify::MakeCertifyingBackend(std::move(secondary), options.certify);
    }
  }
  FailoverPolicy policy;
  policy.max_retries = options.max_retries;
  policy.backoff = options.retry_backoff;
  policy.max_timeout_seconds = options.max_timeout_seconds;
  policy.deadline = deadline;
  return MakeFailoverBackend(std::move(primary), std::move(secondary), policy);
}

namespace {

// A formulated destination group across its solve rounds. `encoded` is the
// problem the current encoder holds: first the group's undeferred policies,
// then (after an escalation) `full`, the whole-group problem.
struct Group {
  RepairProblem full;
  RepairProblem encoded;
  std::vector<Policy> deferred;
  bool escalated = false;
  std::unique_ptr<RepairEncoder> encoder;
  MaxSmtResult model;
  double seconds = 0;
  RepairEdits edits;  // The model's construct edits (solved groups only).
};

// Warm-state key of the group's current system. A warm backend reuses state
// only for an identical system, so an escalated group's full re-solve gets a
// key of its own rather than evicting its first round's state.
std::string SolveKey(const Group& group) {
  return ProblemKey(group.full.dsts) + (group.escalated ? "/full" : "");
}

// Solves every group's encoded system into its `model`, optionally in
// parallel. Every result is recorded individually: a failed problem
// (timeout/unsat/unsupported/error) never aborts the run, and an exception in
// a backend is converted to a result instead of terminating the worker
// thread.
void SolveGroups(const std::vector<Group*>& groups, const RepairOptions& options,
                 const Deadline& deadline) {
  // Workers and pool tasks inherit the submitting thread's registry and
  // trace, so a per-request RegistryScope installed around the repair covers
  // the whole parallel solve — concurrent requests never interleave counts.
  obs::Registry* request_registry = &obs::CurrentRegistry();
  obs::Trace* request_trace = &obs::CurrentTrace();
  auto solve_one = [&](Group* group, MaxSmtBackend* backend) {
    MaxSmtResult& model = group->model;
    model = MaxSmtResult{};
    group->seconds = 0;
    if (deadline.Expired()) {
      model.status = MaxSmtResult::Status::kTimeout;
      model.backend = backend->name();
      model.attempts = 0;
      model.message = "wall-clock deadline exhausted before solving";
      obs::CurrentRegistry().counter("repair.deadline_skips").Increment();
      return;
    }
    obs::StageSpan problem_span("repair.problem");
    Clock::time_point start = Clock::now();
    try {
      const double budget = deadline.ClampTimeout(options.timeout_seconds);
      model = options.certify != certify::CertifyMode::kOff
                  ? backend->SolveCertified(group->encoder->system(), budget)
                  : backend->Solve(group->encoder->system(), budget);
    } catch (const std::exception& e) {
      // The failover decorator already catches; this is the last line of
      // defense so a worker can never call std::terminate.
      model = MaxSmtResult{};
      model.status = MaxSmtResult::Status::kError;
      model.message = e.what();
    } catch (...) {
      model = MaxSmtResult{};
      model.status = MaxSmtResult::Status::kError;
      model.message = "unknown exception in solver worker";
    }
    group->seconds = Seconds(start);
    // Per-problem solver events for trace exports (--trace-out).
    problem_span.Annotate("problem", SolveKey(*group));
    problem_span.Annotate("backend", model.backend);
    problem_span.Annotate("status", MaxSmtStatusName(model.status));
    problem_span.Annotate("cost", std::to_string(model.cost));
    obs::CurrentRegistry().histogram("repair.problem_solve_seconds").Observe(group->seconds);
  };
  auto backend_for = [&](const Group* group) {
    MaxSmtBackend* warm =
        options.warm_backends == nullptr
            ? nullptr
            : options.warm_backends->BackendFor(SolveKey(*group), options.backend);
    return MakeWorkerBackend(options, deadline, warm);
  };
  if (options.solve_runner != nullptr) {
    // Shared-executor mode: one task per problem, so the per-dst problems of
    // concurrent repair requests interleave fairly across one bounded pool.
    // Each task builds its own backend (Z3 contexts are per call; internal
    // backend construction is cheap) and the submitter blocks until every
    // one of *its* tasks finished — tasks never block on other tasks, so a
    // fixed-size pool cannot deadlock.
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t done = 0;
    for (Group* group : groups) {
      options.solve_runner->Submit([&, group]() {
        {
          obs::RegistryScope registry_scope(request_registry);
          obs::TraceScope trace_scope(request_trace);
          std::unique_ptr<MaxSmtBackend> backend = backend_for(group);
          solve_one(group, backend.get());
        }
        {
          // Notify while still holding the lock: the waiting submitter owns
          // done_mu/done_cv on its stack, and the moment it observes the
          // final count it may return and destroy both. Signalling after
          // unlock would race with that destruction.
          std::lock_guard<std::mutex> lock(done_mu);
          ++done;
          done_cv.notify_one();
        }
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == groups.size(); });
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    obs::RegistryScope registry_scope(request_registry);
    obs::TraceScope trace_scope(request_trace);
    // Without warm state one solver stack serves the whole worker; with a
    // provider the primary is problem-keyed, so the stack is per problem.
    std::unique_ptr<MaxSmtBackend> shared;
    if (options.warm_backends == nullptr) {
      shared = MakeWorkerBackend(options, deadline);
    }
    while (true) {
      size_t index = next.fetch_add(1);
      if (index >= groups.size()) {
        return;
      }
      if (options.warm_backends != nullptr) {
        std::unique_ptr<MaxSmtBackend> backend = backend_for(groups[index]);
        solve_one(groups[index], backend.get());
      } else {
        solve_one(groups[index], shared.get());
      }
    }
  };
  int worker_count =
      std::max(1, std::min<int>(options.num_threads, static_cast<int>(groups.size())));
  if (worker_count == 1) {
    worker();
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    threads.emplace_back(worker);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// The merge's traffic-class rule: an un-encoded traffic class follows its
// (repaired) dETG minus the ACLs configured in the network.
void DeriveTcEtg(const Network& network, const EtgUniverse& universe, SubnetId src,
                 SubnetId dst, const Etg& detg, Etg* tcetg) {
  const TrafficClass tc(network.subnets()[static_cast<size_t>(src)].prefix,
                        network.subnets()[static_cast<size_t>(dst)].prefix);
  for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    bool value = detg.IsPresent(e);
    if (value) {
      switch (edge.kind) {
        case EtgEdgeKind::kInterDevice:
          value = !LinkAclBlocks(network, edge.link, edge.device, tc);
          break;
        case EtgEdgeKind::kEndpointSrc:
          value = edge.subnet == src &&
                  !EndpointAclBlocks(network, edge.subnet, /*src_side=*/true, tc);
          break;
        case EtgEdgeKind::kEndpointDst:
          value = edge.subnet == dst &&
                  !EndpointAclBlocks(network, edge.subnet, /*src_side=*/false, tc);
          break;
        case EtgEdgeKind::kIntraSelf:
        case EtgEdgeKind::kRedistribution:
          break;
      }
    }
    tcetg->SetPresent(e, value);
  }
}

// Whether each link direction backs at most one inter-device candidate
// edge, i.e. both ends of every link run a single routing process. Only then
// does the PC3 checker agree with the PC3 encoding: the checker counts
// edge-disjoint flow (capacity 1 per candidate edge), the encoding at most
// one path per physical link (constraint 12). With one edge per direction,
// flow over both directions of a link cancels, so the counts are equal; with
// two process pairs on one direction, the checker counts two paths the
// encoding allows once.
bool OneEdgePerLinkDirection(const EtgUniverse& universe) {
  std::set<std::pair<LinkId, DeviceId>> directions;
  for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    if (edge.kind == EtgEdgeKind::kInterDevice &&
        !directions.insert({edge.link, edge.device}).second) {
      return false;
    }
  }
  return true;
}

// Whether a satisfied policy may be left out of its group's first round.
// The graph checks of PC1 and PC2 agree with their encodings, and PC3's
// does when `pc3_check_exact` (OneEdgePerLinkDirection), so a first-round
// model that passes them extends to a model of the full encoding at the
// same cost. PC4's checker accepts equal-cost ties its encoding forbids, and
// PC5's ignores edges stranded off every path, so those are always encoded.
bool Deferrable(const Policy& policy, const std::vector<Policy>& violations,
                bool pc3_check_exact) {
  switch (policy.pc) {
    case PolicyClass::kReachability:
      if (!pc3_check_exact) {
        return false;
      }
      [[fallthrough]];
    case PolicyClass::kAlwaysBlocked:
    case PolicyClass::kAlwaysWaypoint:
      return std::find(violations.begin(), violations.end(), policy) == violations.end();
    case PolicyClass::kPrimaryPath:
    case PolicyClass::kIsolation:
      return false;
  }
  return false;
}

// Writes a solved model's layers into `repaired`.
void DecodeLayers(const Group& group, Harc* repaired) {
  const EtgUniverse& universe = repaired->universe();
  const RepairEncoder& encoder = *group.encoder;
  if (group.encoded.mutable_aetg) {
    for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
      repaired->mutable_aetg().SetPresent(e, encoder.DecodeAll(group.model, e));
    }
  }
  for (SubnetId dst : group.encoded.dsts) {
    for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
      repaired->mutable_detg(dst).SetPresent(e, encoder.DecodeDst(group.model, dst, e));
    }
  }
  for (const auto& [src, dst] : group.encoded.tcs) {
    for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
      repaired->mutable_tcetg(src, dst).SetPresent(
          e, encoder.DecodeTc(group.model, src, dst, e));
    }
  }
}

// Checks a first-round model against the group's deferred policies on the
// graph: the model's layers are already in `repaired`; traffic classes the
// round did not encode are derived by the merge's rule (their ACLs keep the
// configured values), then each deferred policy is verified with the
// waypoints this model placed. True when every deferred policy still holds.
bool DeferredPoliciesHold(const Group& group, Harc* repaired) {
  const Network& network = repaired->network();
  const EtgUniverse& universe = repaired->universe();
  for (const auto& [src, dst] : group.full.tcs) {
    if (!std::binary_search(group.encoded.tcs.begin(), group.encoded.tcs.end(),
                            std::make_pair(src, dst))) {
      DeriveTcEtg(network, universe, src, dst, repaired->detg(dst),
                  &repaired->mutable_tcetg(src, dst));
    }
  }
  std::set<LinkId> new_waypoints;
  for (const WaypointEdit& waypoint : group.edits.waypoints) {
    new_waypoints.insert(waypoint.link);
  }
  return std::all_of(group.deferred.begin(), group.deferred.end(), [&](const Policy& p) {
    return p.pc == PolicyClass::kAlwaysWaypoint
               ? CheckAlwaysWaypoint(*repaired, p.src, p.dst, new_waypoints)
               : VerifyPolicy(*repaired, p);
  });
}

// Puts back the original layers a group's discarded model overwrote.
void RestoreLayers(const Harc& original, const RepairProblem& full, Harc* repaired) {
  if (full.mutable_aetg) {
    repaired->mutable_aetg() = original.aetg();
  }
  for (SubnetId dst : full.dsts) {
    repaired->mutable_detg(dst) = original.detg(dst);
  }
  for (const auto& [src, dst] : full.tcs) {
    repaired->mutable_tcetg(src, dst) = original.tcetg(src, dst);
  }
}

}  // namespace

Result<RepairOutcome> ComputeRepair(const Harc& original,
                                    const std::vector<Policy>& policies,
                                    const RepairOptions& options) {
  Clock::time_point wall_start = Clock::now();
  // Shared wall-clock budget for the whole run; encoding draws it down too.
  // An absolute deadline (per-request budget started at admission) takes
  // precedence over the relative deadline_seconds convenience.
  Deadline deadline = options.deadline.unbounded()
                          ? Deadline::After(options.deadline_seconds)
                          : options.deadline;
  RepairOutcome outcome;
  // A budget that is already gone — zero, negative, or consumed by queue
  // wait — fails fast with a clean, empty report: no partitioning, no
  // encoding, no solver calls. (Mid-run exhaustion still reports kTimeout
  // per problem, preserving partial-merge semantics.)
  if (deadline.Expired()) {
    outcome.repaired = original;
    outcome.status = RepairStatus::kDeadlineExceeded;
    outcome.stats.wall_seconds = Seconds(wall_start);
    obs::CurrentRegistry().counter("repair.deadline_rejects").Increment();
    return outcome;
  }
  outcome.repaired = original;

  // Partition into destination groups. Each group's first round encodes
  // only what the graph check cannot vouch for — its violated policies —
  // and defers the rest (DESIGN.md §4).
  std::vector<Group> groups;
  {
    obs::StageSpan partition_span("repair.partition");
    const std::vector<Policy> violations =
        policies.empty() ? std::vector<Policy>{} : FindViolations(original, policies);
    std::vector<RepairProblem> problems =
        PartitionProblems(original, policies, options, violations);
    const bool pc3_check_exact = OneEdgePerLinkDirection(original.universe());
    groups.resize(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
      Group& group = groups[i];
      group.full = std::move(problems[i]);
      std::vector<Policy> kept;
      for (const Policy& policy : group.full.policies) {
        (Deferrable(policy, violations, pc3_check_exact) ? group.deferred : kept)
            .push_back(policy);
      }
      group.encoded = MakeProblem(
          kept, std::set<SubnetId>(group.full.dsts.begin(), group.full.dsts.end()),
          group.full.mutable_aetg);
      outcome.stats.policies_deferred += static_cast<int>(group.deferred.size());
    }
  }
  std::set<SubnetId> policied_dsts;
  for (const Policy& policy : policies) {
    policied_dsts.insert(policy.dst);
  }
  outcome.stats.problems_formulated = static_cast<int>(groups.size());
  outcome.stats.destinations_skipped =
      static_cast<int>(policied_dsts.size()) -
      static_cast<int>([&] {
        std::set<SubnetId> covered;
        for (const Group& g : groups) {
          covered.insert(g.full.dsts.begin(), g.full.dsts.end());
        }
        return covered.size();
      }());
  obs::Registry& registry = obs::CurrentRegistry();
  registry.counter("repair.policies_deferred").Add(outcome.stats.policies_deferred);
  if (groups.empty()) {
    outcome.status = RepairStatus::kNoViolations;
    outcome.stats.wall_seconds = Seconds(wall_start);
    return outcome;
  }

  // Encodes, solves and reports one round over `round` (group indices).
  // Group i's latest solve is problem_reports[i].
  std::map<std::string, double> counter_totals;
  outcome.stats.problem_reports.resize(groups.size());
  auto run_round = [&](const std::vector<size_t>& round) -> Status {
    Clock::time_point encode_start = Clock::now();
    {
      obs::StageSpan encode_span("repair.encode");
      for (size_t i : round) {
        Group& group = groups[i];
        group.encoder = std::make_unique<RepairEncoder>(original, group.encoded, options);
        Status status = group.encoder->Encode();
        if (!status.ok()) {
          return status;
        }
        const ConstraintSystem& system = group.encoder->system();
        outcome.stats.bool_vars += system.BoolCount();
        outcome.stats.hard_constraints += static_cast<int64_t>(system.hard().size());
        outcome.stats.soft_constraints += static_cast<int64_t>(system.soft().size());
      }
    }
    outcome.stats.encode_seconds += Seconds(encode_start);
    registry.gauge("repair.problems_formulated").Set(outcome.stats.problems_formulated);
    registry.gauge("repair.bool_vars").Set(outcome.stats.bool_vars);
    registry.gauge("repair.hard_constraints").Set(outcome.stats.hard_constraints);
    registry.gauge("repair.soft_constraints").Set(outcome.stats.soft_constraints);

    std::vector<Group*> solving;
    for (size_t i : round) {
      solving.push_back(&groups[i]);
    }
    Clock::time_point solve_start = Clock::now();
    {
      obs::StageSpan solve_span("repair.solve");
      SolveGroups(solving, options, deadline);
    }
    outcome.stats.solve_wall_seconds += Seconds(solve_start);

    for (size_t i : round) {
      Group& group = groups[i];
      const MaxSmtResult& model = group.model;
      const ConstraintSystem& system = group.encoder->system();
      outcome.stats.solve_seconds += group.seconds;
      ProblemReport report;
      report.dsts = group.full.dsts;
      report.status = model.status;
      report.attempts = model.attempts;
      report.backend = model.backend;
      report.solve_seconds = group.seconds;
      report.cost = model.cost;
      report.message = model.message;
      report.certification = model.certification;
      report.certify_message = model.certify_message;
      report.certificate = model.certificate;
      switch (report.certification) {
        case MaxSmtResult::Certification::kNone:
          break;
        case MaxSmtResult::Certification::kVerified:
          ++outcome.stats.certify_checked;
          ++outcome.stats.certify_verified;
          break;
        case MaxSmtResult::Certification::kFailed:
          ++outcome.stats.certify_checked;
          ++outcome.stats.certify_failed;
          break;
      }
      report.solver_counters = model.solver_counters;
      for (const auto& [name, value] : report.solver_counters) {
        counter_totals[name] += value;
      }
      for (int soft_index : model.violated_soft) {
        const SoftConstraint& soft = system.soft()[static_cast<size_t>(soft_index)];
        report.violated_softs.emplace_back(soft.label, soft.weight);
      }
      for (int hard_index : model.unsat_core) {
        const std::string& label = system.HardLabel(static_cast<size_t>(hard_index));
        // Many hard constraints share one policy tag; keep distinct labels.
        if (std::find(report.unsat_core_labels.begin(), report.unsat_core_labels.end(),
                      label) == report.unsat_core_labels.end()) {
          report.unsat_core_labels.push_back(label);
        }
      }
      if (model.status == MaxSmtResult::Status::kUnsat) {
        obs::UnsatCoreReport core;
        core.problem = static_cast<int>(i);
        core.backend = report.backend;
        core.labels = report.unsat_core_labels;
        outcome.provenance.unsat_cores.push_back(std::move(core));
      }
      outcome.stats.problem_reports[i] = std::move(report);
      group.edits = RepairEdits{};
      if (model.ok()) {
        group.encoder->CollectEdits(model, &group.edits);
        DecodeLayers(group, &outcome.repaired);
      }
    }
    return Status::Ok();
  };

  // Round 1, then the graph check of every deferred policy. A group whose
  // model breaks one is re-solved once with its full policy list — exactly
  // the encoding a single-round repair would have built. A failed first
  // round is the group's verdict: it is a relaxation of the full problem.
  std::vector<size_t> round;
  for (size_t i = 0; i < groups.size(); ++i) {
    round.push_back(i);
  }
  if (Status status = run_round(round); !status.ok()) {
    return status.error();
  }
  round.clear();
  for (size_t i = 0; i < groups.size(); ++i) {
    Group& group = groups[i];
    if (!group.model.ok() || group.deferred.empty() ||
        DeferredPoliciesHold(group, &outcome.repaired)) {
      continue;
    }
    outcome.stats.superseded_reports.push_back(std::move(outcome.stats.problem_reports[i]));
    RestoreLayers(original, group.full, &outcome.repaired);
    group.encoder.reset();  // It refers to the `encoded` problem replaced here.
    group.encoded = group.full;
    group.deferred.clear();
    group.escalated = true;
    round.push_back(i);
  }
  outcome.stats.groups_escalated = static_cast<int>(round.size());
  registry.counter("repair.groups_escalated").Add(outcome.stats.groups_escalated);
  if (!round.empty()) {
    if (Status status = run_round(round); !status.ok()) {
      return status.error();
    }
  }
  for (const Group& group : groups) {
    if (group.model.ok()) {
      ++outcome.stats.problems_solved;
    } else {
      ++outcome.stats.problems_failed;
    }
  }
  outcome.stats.solver_counter_totals.assign(counter_totals.begin(), counter_totals.end());
  registry.counter("repair.problems_solved").Add(outcome.stats.problems_solved);
  registry.counter("repair.problems_failed").Add(outcome.stats.problems_failed);

  // Persist certificate artifacts for offline re-checking (`cpr certify`),
  // one per solve that produced a certificate, superseded rounds included.
  // This runs even when every problem failed — UNSAT certificates are
  // exactly what a post-mortem wants. The sequence counter is process-wide
  // so successive runs into one directory never collide.
  if (options.certify != certify::CertifyMode::kOff &&
      !options.certify_artifact_dir.empty()) {
    obs::StageSpan certify_span("pipeline.certify");
    std::error_code ec;
    std::filesystem::create_directories(options.certify_artifact_dir, ec);
    static std::atomic<uint64_t> artifact_seq{0};
    int written = 0;
    auto write = [&](const ProblemReport& report) {
      if (report.certificate == nullptr) {
        return;
      }
      Certificate cert = *report.certificate;
      cert.problem = ProblemKey(report.dsts);
      const uint64_t seq = artifact_seq.fetch_add(1);
      const std::string path = options.certify_artifact_dir + "/p" +
                               std::to_string(seq) + "-" +
                               CertificateClaimName(cert.claim) + ".cert.json";
      if (certify::WriteCertificateFile(path, cert).ok()) {
        ++written;
      } else {
        registry.counter("certify.artifact_errors").Increment();
      }
    };
    std::for_each(outcome.stats.superseded_reports.begin(),
                  outcome.stats.superseded_reports.end(), write);
    std::for_each(outcome.stats.problem_reports.begin(),
                  outcome.stats.problem_reports.end(), write);
    outcome.stats.certify_artifacts = written;
    registry.counter("certify.artifacts").Add(written);
    certify_span.Annotate("artifacts", std::to_string(written));
  }
  auto overall_failure = [&]() {
    // The first failed group (in group order) names the run's status,
    // matching the pre-partial pipeline's abort-on-first-failure semantics.
    for (const Group& group : groups) {
      switch (group.model.status) {
        case MaxSmtResult::Status::kOptimal:
          break;
        case MaxSmtResult::Status::kUnsat:
          return RepairStatus::kUnsat;
        case MaxSmtResult::Status::kTimeout:
          return RepairStatus::kTimeout;
        case MaxSmtResult::Status::kUnsupported:
          return RepairStatus::kUnsupported;
        case MaxSmtResult::Status::kError:
          return RepairStatus::kError;
      }
    }
    return RepairStatus::kSuccess;
  };
  if (outcome.stats.problems_solved == 0 ||
      (outcome.stats.problems_failed > 0 && !options.allow_partial)) {
    outcome.repaired = original;
    outcome.status = overall_failure();
    outcome.stats.wall_seconds = Seconds(wall_start);
    return outcome;
  }

  // Merge the solved models. Their layers are already decoded into the
  // repaired HARC; failed groups' dETGs/tcETGs stay exactly as in the
  // original (the `settled` sets below also shield them from re-derivation),
  // so a partial repair degrades gracefully instead of corrupting unsolved
  // destinations. A group's deferred traffic classes were derived by the
  // same rule the propagation below applies, so they count as settled too.
  const EtgUniverse& universe = original.universe();
  std::set<SubnetId> settled_dsts;
  std::set<std::pair<SubnetId, SubnetId>> settled_tcs;
  for (size_t i = 0; i < groups.size(); ++i) {
    Group& group = groups[i];
    settled_dsts.insert(group.full.dsts.begin(), group.full.dsts.end());
    settled_tcs.insert(group.full.tcs.begin(), group.full.tcs.end());
    const MaxSmtResult& model = group.model;
    if (!model.ok()) {
      continue;
    }
    outcome.predicted_cost += model.cost;
    // Every edit of this group belongs to its final solve, which is what
    // lets each edit's provenance chain name its owning problem report and
    // the soft constraint it flipped — and what the incremental engine
    // replays for untouched groups.
    const RepairProblem& problem = group.encoded;
    const Network& problem_network = original.network();
    auto attach = [&](const auto& edits_vec) {
      for (size_t j = 0; j < edits_vec.size(); ++j) {
        std::string construct = ConstructKey(edits_vec[j]);
        obs::ProvenanceChain chain;
        chain.construct = construct;
        chain.edit = Describe(edits_vec[j]);
        chain.problem = static_cast<int>(i);
        chain.backend = model.backend;
        for (SubnetId dst : problem.dsts) {
          chain.dsts.push_back(
              problem_network.subnets()[static_cast<size_t>(dst)].prefix.ToString());
        }
        for (const Policy& policy : problem.policies) {
          chain.policies.push_back(policy.ToString(problem_network));
        }
        const auto& softs = group.encoder->system().soft();
        for (int soft_index : model.violated_soft) {
          const SoftConstraint& soft = softs[static_cast<size_t>(soft_index)];
          if (soft.label == construct) {
            chain.soft_label = soft.label;
            chain.soft_weight = soft.weight;
            break;
          }
        }
        if (chain.soft_label.empty()) {
          // Construct key mismatch between encoder label and decoder edit —
          // surfaced instead of silently dropped (check.sh greps for zero).
          outcome.provenance.orphan_edits.push_back(construct + ": " + chain.edit);
        } else {
          outcome.provenance.chains.push_back(std::move(chain));
        }
      }
    };
    const RepairEdits& problem_edits = group.edits;
    attach(problem_edits.adjacencies);
    attach(problem_edits.redistributions);
    attach(problem_edits.filters);
    attach(problem_edits.static_routes);
    attach(problem_edits.acls);
    attach(problem_edits.costs);
    attach(problem_edits.waypoints);
    auto splice = [](auto* into, const auto& from) {
      into->insert(into->end(), from.begin(), from.end());
    };
    splice(&outcome.edits.adjacencies, problem_edits.adjacencies);
    splice(&outcome.edits.redistributions, problem_edits.redistributions);
    splice(&outcome.edits.filters, problem_edits.filters);
    splice(&outcome.edits.static_routes, problem_edits.static_routes);
    splice(&outcome.edits.acls, problem_edits.acls);
    splice(&outcome.edits.costs, problem_edits.costs);
    splice(&outcome.edits.waypoints, problem_edits.waypoints);
    outcome.stats.problem_reports[i].edits = std::move(group.edits);
  }

  // Propagate changes to ETGs that were not encoded, by re-deriving them
  // from the (possibly changed) aETG plus the *unchanged* destination- and
  // traffic-class-scoped constructs in the configurations — the same rules
  // the HARC builder applies. This reproduces cross-traffic-class effects:
  // e.g. a newly enabled adjacency becomes visible to every unpoliced
  // destination, exactly as OSPF would behave. The incremental engine turns
  // this O(S^2 E) pass off and instead rebuilds exactly the dirty ETGs from
  // the patched network.
  const Network& network = original.network();
  const int subnet_count = options.propagate_merge ? original.SubnetCount() : 0;
  for (SubnetId d = 0; d < subnet_count; ++d) {
    const Ipv4Prefix& dst_prefix = network.subnets()[static_cast<size_t>(d)].prefix;
    if (settled_dsts.count(d) == 0) {
      Etg& detg = outcome.repaired.mutable_detg(d);
      for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
        const CandidateEdge& edge = universe.edge(e);
        bool value = false;
        switch (edge.kind) {
          case EtgEdgeKind::kIntraSelf:
            value = true;
            break;
          case EtgEdgeKind::kEndpointSrc:
            value = edge.subnet != d;
            break;
          case EtgEdgeKind::kEndpointDst:
            value = edge.subnet == d;
            break;
          case EtgEdgeKind::kRedistribution:
            value = outcome.repaired.aetg().IsPresent(e) &&
                    !ProcessBlocksDestination(network, edge.from_process, dst_prefix) &&
                    !ProcessBlocksDestination(network, edge.to_process, dst_prefix);
            break;
          case EtgEdgeKind::kInterDevice:
            value = (outcome.repaired.aetg().IsPresent(e) &&
                     !ProcessBlocksDestination(network, edge.from_process, dst_prefix) &&
                     !ProcessBlocksDestination(network, edge.to_process, dst_prefix)) ||
                    StaticRouteConfigured(network, edge.device, edge.link, dst_prefix);
            break;
        }
        detg.SetPresent(e, value);
      }
    }
    for (SubnetId s = 0; s < subnet_count; ++s) {
      if (s == d || settled_tcs.count({s, d}) > 0) {
        continue;
      }
      DeriveTcEtg(network, universe, s, d, outcome.repaired.detg(d),
                  &outcome.repaired.mutable_tcetg(s, d));
    }
  }

  // Apply new edge costs as weight overrides so graph-level verification of
  // the repaired HARC sees them (the translator separately turns them into
  // interface cost changes).
  for (const CostEdit& change : outcome.edits.costs) {
    for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
      const CandidateEdge& edge = universe.edge(e);
      if (edge.kind == EtgEdgeKind::kInterDevice && edge.link == change.link &&
          edge.device == change.egress_device) {
        outcome.repaired.ApplyWeightOverride(e, change.new_cost);
      }
    }
  }

  outcome.status = outcome.stats.problems_failed > 0 ? RepairStatus::kPartial
                                                     : RepairStatus::kSuccess;
  outcome.stats.wall_seconds = Seconds(wall_start);
  return outcome;
}

}  // namespace cpr
