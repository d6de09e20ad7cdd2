// The daemon workload (cprd_edits): closed-loop clients of an in-process
// serve::Daemon with the simulator on.
//
// Each client owns a small PC1 fat-tree lineage: the broken scenario is
// repaired once at set-up, and the repaired snapshot R is what the client
// keeps sending. Requests alternate between two kinds:
//
//   read   resubmit R, unchanged, with incremental re-repair off: the
//          snapshot cache serves the parsed network and HARC, and the
//          repair verifies (and simulates) a network with nothing to fix;
//   write  submit R with one seeded one-router edit that drops a deny the
//          repair added, re-breaking its traffic class, with incremental
//          re-repair on: the daemon diffs against its retained session and
//          re-solves only the dirty destination group.
//
// After the window every distinct snapshot is repaired directly with
// Cpr::Repair; each reply must match it (verdict, cost, lines, residuals),
// and the direct repair goes through the outside soundness oracle.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <regex>
#include <thread>

#include "config/parser.h"
#include "config/printer.h"
#include "e2e.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "verify/checker.h"
#include "workload/fattree.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using cpr::serve::Daemon;
using cpr::serve::RequestSpec;

constexpr int kPorts = 4;
constexpr int kPolicies = 8;
constexpr unsigned kScenarioSeed = 3;
// peak_rss_mb is read once this many requests have completed: the daemon
// keeps every finished request's record, so a reading at the end of the
// window would grow with throughput.
constexpr int kRssRequests = 40;

// Drops the `skip`-th deny line that a repair can have added to a router: an
// ACL deny on a router with a bound ACL, or a repair route-filter deny.
// Returns false when there are fewer than skip+1 such lines.
bool DropOneDeny(std::vector<std::string>* texts, int skip) {
  static const std::regex kAclDeny("( deny ip 10\\.[^\n]*\n)");
  static const std::regex kFilterDeny("(ip prefix-list CPR-FLT[^\n]* deny [^\n]*\n)");
  for (std::string& text : *texts) {
    for (const std::regex* pattern : {&kAclDeny, &kFilterDeny}) {
      if (pattern == &kAclDeny && text.find("access-group") == std::string::npos) {
        continue;
      }
      for (auto it = std::sregex_iterator(text.begin(), text.end(), *pattern);
           it != std::sregex_iterator(); ++it) {
        if (skip-- == 0) {
          text.erase(static_cast<size_t>(it->position(1)),
                     static_cast<size_t>(it->length(1)));
          return true;
        }
      }
    }
  }
  return false;
}

struct Client {
  Input repaired;               // R: the sound snapshot the lineage is at.
  std::vector<Input> edits;     // R with one deny dropped, each violating.
  RequestSpec read_spec;
  RequestSpec write_spec;
};

// Everything set-up builds; the daemon is last so it stops first.
struct Setup {
  std::vector<Client> clients;
  std::unique_ptr<Daemon> daemon;
};

cpr::Status WriteSnapshot(const fs::path& dir, const Input& input) {
  fs::create_directories(dir);
  for (const std::string& text : input.config_texts) {
    cpr::Result<cpr::Config> parsed = cpr::ParseConfig(text);
    if (!parsed.ok()) {
      return parsed.error();
    }
    std::ofstream out(dir / (parsed->hostname + ".cfg"));
    out << text;
    if (!out) {
      return cpr::Error("cannot write " + (dir / parsed->hostname).string());
    }
  }
  return cpr::Status::Ok();
}

// Runs one request to its terminal state, honouring retry-after hints;
// returns the final status.
std::optional<cpr::serve::RequestStatus> RoundTrip(Daemon* daemon, const RequestSpec& spec) {
  for (;;) {
    cpr::serve::AdmissionDecision decision = daemon->Submit(spec);
    if (decision.admitted) {
      daemon->WaitFor(decision.id, 120);
      return daemon->GetStatus(decision.id);
    }
    if (decision.retry_after_seconds <= 0) {
      return std::nullopt;  // Refused for good (draining, persist failure).
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(decision.retry_after_seconds, 0.25)));
  }
}

cpr::Result<Setup> MakeSetup(const fs::path& root) {
  Setup setup;
  const cpr::CprOptions options = BenchOptions();
  for (int c = 0; c < kDaemonClients; ++c) {
    cpr::FatTreeScenario scenario = cpr::MakeFatTreeScenario(
        kPorts, cpr::PolicyClass::kAlwaysBlocked, kPolicies, kScenarioSeed + c);
    cpr::Result<Input> broken = AsOnDisk("ft4-pc1-c" + std::to_string(c),
                                         scenario.broken_configs, scenario.annotations,
                                         scenario.policies);
    if (!broken.ok()) {
      return broken.error();
    }
    DirectRepair baseline = RepairDirect(*broken, options);
    if (!baseline.report.ok() || !baseline.report->Sound()) {
      return cpr::Error("baseline repair of " + broken->name + " is not sound");
    }
    Client client;
    client.repaired = *broken;
    client.repaired.name += "-repaired";
    client.repaired.config_texts.clear();
    for (const cpr::Config& patched : baseline.report->patched_configs) {
      client.repaired.config_texts.push_back(cpr::PrintConfig(patched));
    }
    client.repaired.annotations = baseline.report->patched_annotations;

    // The edit pool: every single dropped deny that re-breaks a policy.
    for (int skip = 0;; ++skip) {
      Input edit = client.repaired;
      if (!DropOneDeny(&edit.config_texts, skip)) {
        break;
      }
      cpr::Result<cpr::Cpr> pipeline =
          cpr::Cpr::FromConfigTexts(edit.config_texts, edit.annotations);
      if (pipeline.ok() && !cpr::FindViolations(pipeline->harc(), edit.policies).empty()) {
        edit.name = broken->name + "-edit" + std::to_string(skip);
        client.edits.push_back(std::move(edit));
      }
    }
    if (client.edits.empty()) {
      return cpr::Error("no edit re-breaks " + client.repaired.name);
    }

    const fs::path dir = root / ("client" + std::to_string(c));
    for (const char* source : {"read", "write"}) {
      cpr::Status written = WriteSnapshot(dir / source, client.repaired);
      if (!written.ok()) {
        return written.error();
      }
    }
    std::ofstream(dir / "policies") << client.repaired.policy_text;
    RequestSpec spec;
    spec.policy_file = (dir / "policies").string();
    spec.backend = "z3";
    spec.granularity = "perdst";
    spec.timeout_seconds = kSolverTimeoutSeconds;
    spec.simulate = true;
    client.read_spec = spec;
    client.read_spec.tag = "read" + std::to_string(c);
    client.read_spec.config_dir = (dir / "read").string();
    client.read_spec.incremental = "off";
    client.write_spec = spec;
    client.write_spec.tag = "write" + std::to_string(c);
    client.write_spec.config_dir = (dir / "write").string();
    client.write_spec.incremental = "auto";
    setup.clients.push_back(std::move(client));
  }

  cpr::serve::DaemonOptions daemon_options;
  daemon_options.workers = kDaemonWorkers;
  daemon_options.solve_threads = kDaemonSolveThreads;
  daemon_options.queue_capacity = 2 * kDaemonClients;
  daemon_options.checkpoint_dir = (root / "checkpoints").string();
  cpr::Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(daemon_options);
  if (!daemon.ok()) {
    return daemon.error();
  }
  setup.daemon = std::move(daemon).value();

  // Prime the baseline: the read source's snapshot enters the cache and the
  // write source's session is retained from its (already sound) snapshot.
  for (const Client& client : setup.clients) {
    for (const RequestSpec* spec : {&client.read_spec, &client.write_spec}) {
      std::optional<cpr::serve::RequestStatus> status = RoundTrip(setup.daemon.get(), *spec);
      if (!status.has_value() || status->state != cpr::serve::RequestState::kDone ||
          status->status != "no-violations") {
        return cpr::Error("priming request " + spec->tag + " did not verify clean");
      }
    }
  }
  return setup;
}

// Which snapshot a request carried: the repaired one, or edit e.
struct Submitted {
  int client = 0;
  int edit = -1;  // -1: the unchanged repaired snapshot (read path).
};

double Number(const cpr::obs::JsonValue* object, const char* key) {
  const cpr::obs::JsonValue* value = object == nullptr ? nullptr : object->Find(key);
  if (value == nullptr) {
    return 0;
  }
  if (value->type == cpr::obs::JsonValue::Type::kBool) {
    return value->bool_value ? 1 : 0;
  }
  return value->AsDouble();
}

// Fills a sample from the reply's stats-json document.
void ParseReply(const cpr::serve::RequestStatus& status, Sample* sample) {
  sample->queue_s = status.queue_seconds;
  sample->exec_s = status.exec_seconds;
  sample->verdict.status = status.status;
  cpr::obs::JsonValue doc;
  if (!cpr::obs::ParseJson(status.stats_json, &doc)) {
    sample->completed = false;
    sample->error = "unparseable stats-json";
    return;
  }
  const cpr::obs::JsonValue* repair = doc.Find("repair");
  Verdict& v = sample->verdict;
  v.predicted_cost = static_cast<int64_t>(Number(repair, "predicted_cost"));
  v.lines_changed = static_cast<int>(Number(repair, "lines_changed"));
  v.traffic_classes_impacted = static_cast<int>(Number(repair, "traffic_classes_impacted"));
  v.residual_graph = static_cast<int>(Number(repair, "residual_graph_violations"));
  v.residual_simulation = static_cast<int>(Number(repair, "residual_simulation_violations"));
  v.sound = (v.status == "success" || v.status == "no-violations") &&
            v.residual_graph == 0 && v.residual_simulation == 0;
  EngineStats& e = sample->engine;
  e.encode_s = Number(repair, "encode_seconds");
  e.solve_wall_s = Number(repair, "solve_wall_seconds");
  e.solve_cpu_sum_s = Number(repair, "solve_seconds_sum");
  e.problems = Number(repair, "problems_formulated");
  e.bool_vars = Number(repair, "bool_vars");
  e.hard_constraints = Number(repair, "hard_constraints");
  e.soft_constraints = Number(repair, "soft_constraints");
  if (const cpr::obs::JsonValue* problems = repair ? repair->Find("problems") : nullptr) {
    for (const cpr::obs::JsonValue& problem : problems->items) {
      e.problem_max_s = std::max(e.problem_max_s, Number(&problem, "solve_seconds"));
    }
  }
  if (const cpr::obs::JsonValue* totals =
          repair ? repair->Find("solver_counter_totals") : nullptr) {
    cpr::RepairStats stats;
    for (const auto& [name, value] : totals->members) {
      stats.solver_counter_totals.emplace_back(name, value.AsDouble());
    }
    const EngineStats counted = EngineStatsOf(stats);
    e.sat_conflicts = counted.sat_conflicts;
    e.cores = counted.cores;
    e.rlimit = counted.rlimit;
  }
  const cpr::obs::JsonValue* incremental = doc.Find("incremental");
  sample->groups_reused = Number(incremental, "groups_reused");
  sample->groups_total = Number(incremental, "groups_total");
  sample->warm_hits = Number(incremental, "warm_hits");
  sample->fallbacks = Number(incremental, "fell_back");

  // Layer split from the request's own span tree: the direct children of
  // the serve.request root, with HARC builds split out of whichever stage
  // ran them (building a network constructs its HARC; re-verification
  // rebuilds one).
  static const std::map<std::string, std::string> kLayerOf = {
      {"pipeline.parse_configs", "config.parse"}, {"pipeline.build_network", "topo.build"},
      {"pipeline.rebuild", "topo.build"},         {"harc.build", "arc.harc_build"},
      {"pipeline.lint", "lint.run"},              {"pipeline.lint_audit", "lint.run"},
      {"pipeline.repair", "repair.compute"},      {"pipeline.incremental", "repair.compute"},
      {"pipeline.translate", "translate"},        {"pipeline.reverify", "verify.find_violations"},
      {"pipeline.simulate", "simulate"}};
  const cpr::obs::JsonValue* stages = doc.Find("stages");
  if (stages == nullptr) {
    return;
  }
  struct Span {
    std::string name;
    int64_t parent;
    double seconds;
  };
  std::vector<Span> spans;
  for (const cpr::obs::JsonValue& stage : stages->items) {
    const cpr::obs::JsonValue* name = stage.Find("name");
    spans.push_back({name ? name->string : "", static_cast<int64_t>(Number(&stage, "parent")),
                     Number(&stage, "duration_seconds")});
  }
  for (size_t root = 0; root < spans.size(); ++root) {
    if (spans[root].name != "serve.request" || spans[root].parent != -1) {
      continue;
    }
    auto under = [&](size_t i, size_t ancestor) {
      for (int64_t p = spans[i].parent; p >= 0; p = spans[static_cast<size_t>(p)].parent) {
        if (static_cast<size_t>(p) == ancestor) return true;
      }
      return false;
    };
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != static_cast<int64_t>(root)) {
        continue;
      }
      auto layer = kLayerOf.find(spans[i].name);
      if (layer == kLayerOf.end()) {
        continue;
      }
      double seconds = spans[i].seconds;
      if (spans[i].name != "harc.build") {
        for (size_t j = 0; j < spans.size(); ++j) {
          if (spans[j].name == "harc.build" && under(j, i)) {
            seconds -= spans[j].seconds;
            sample->layers["arc.harc_build"] += spans[j].seconds;
          }
        }
      }
      sample->layers[layer->second] += seconds;
    }
  }
  sample->layers["serve.queue"] = status.queue_seconds;
}

int64_t GlobalCounter(const std::string& name) {
  for (const auto& [counter, value] : cpr::obs::Registry::Global().TakeSnapshot().counters) {
    if (counter == name) {
      return value;
    }
  }
  return 0;
}

}  // namespace

RunResult RunCprd(const RunConfig& config) {
  RunResult result;
  const fs::path root = fs::path(config.work_dir) / "cprd";

  cpr::Result<Setup> setup = cpr::Error("not set up");
  std::vector<double> setups;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < kSetupRepeats || SecondsSince(setup_start) < kSetupSeconds; ++i) {
    setup = cpr::Error("not set up");  // Stops the previous daemon first.
    fs::remove_all(root);
    const Clock::time_point start = Clock::now();
    setup = MakeSetup(root);
    setups.push_back(SecondsSince(start));
    if (!setup.ok()) {
      result.mismatches.push_back("set-up failed: " + setup.error().message());
      return result;
    }
  }
  const double setup_s = Median(setups);
  std::vector<Client>& clients = setup->clients;
  Daemon* daemon = setup->daemon.get();

  const int64_t hits_before = GlobalCounter("serve.cache.hits");
  const int64_t misses_before = GlobalCounter("serve.cache.misses");
  const int64_t rejects_before = GlobalCounter("serve.admission.rejects");

  // Per client: samples, which snapshot each carried, and (traced runs)
  // whether the benchmark's own spans were on for it.
  struct ClientLog {
    std::vector<Sample> samples;
    std::vector<Submitted> submitted;
    std::vector<bool> traced;
    std::vector<cpr::obs::SpanRecord> spans;
    std::string error;
  };
  std::vector<ClientLog> logs(clients.size());
  std::atomic<int> completed_requests{0};
  std::atomic<double> peak_rss_mb{0};
  const Clock::time_point window_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        Client& client = clients[c];
        ClientLog& log = logs[c];
        std::mt19937 rng(config.seed * 7919u + static_cast<unsigned>(c));
        cpr::obs::Trace trace;
        cpr::obs::TraceScope scope(&trace);
        for (int r = 0; SecondsSince(window_start) < config.seconds; ++r) {
          const bool write = r % 2 == 1;
          Submitted submitted{static_cast<int>(c), -1};
          if (write) {
            submitted.edit = static_cast<int>(rng() % client.edits.size());
            cpr::Status written =
                WriteSnapshot(client.write_spec.config_dir,
                              client.edits[static_cast<size_t>(submitted.edit)]);
            if (!written.ok()) {
              log.error = written.error().message();
              return;
            }
          }
          // Traced runs trace every other read/write pair, so the overhead
          // ratio compares like with like.
          const bool traced = config.trace && (r / 2) % 2 == 0;
          if (traced) {
            trace.Enable();
          }
          Sample sample;
          sample.write_path = write;
          const Clock::time_point start = Clock::now();
          std::optional<cpr::serve::RequestStatus> status;
          {
            cpr::obs::StageSpan span(write ? "e2e.serve.write" : "e2e.serve.read");
            status = RoundTrip(daemon, write ? client.write_spec : client.read_spec);
          }
          sample.seconds = SecondsSince(start);
          if (traced) {
            for (cpr::obs::SpanRecord& record : trace.Records()) {
              record.args.emplace_back("client", std::to_string(c));
              log.spans.push_back(std::move(record));
            }
            trace.Disable();
          }
          sample.completed =
              status.has_value() && status->state == cpr::serve::RequestState::kDone;
          if (!sample.completed) {
            sample.error = status.has_value() ? status->error : "admission refused";
          } else {
            ParseReply(*status, &sample);
          }
          if (++completed_requests == kRssRequests) {
            peak_rss_mb = PeakRssMb();
          }
          log.samples.push_back(std::move(sample));
          log.submitted.push_back(submitted);
          log.traced.push_back(traced);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  const double window_s = SecondsSince(window_start);
  if (completed_requests < kRssRequests) {
    peak_rss_mb = PeakRssMb();  // A window too short to reach the mark.
  }
  const double hits = static_cast<double>(GlobalCounter("serve.cache.hits") - hits_before);
  const double misses =
      static_cast<double>(GlobalCounter("serve.cache.misses") - misses_before);
  const double rejects =
      static_cast<double>(GlobalCounter("serve.admission.rejects") - rejects_before);
  setup->daemon.reset();  // Drains; every request above is terminal already.

  // Oracle: each distinct snapshot repaired directly once.
  const cpr::CprOptions options = BenchOptions();
  std::map<std::pair<int, int>, Verdict> direct;
  std::vector<Sample> composed;
  std::vector<Sample> all, traced_samples;
  std::vector<double> traced_s, untraced_s;
  for (size_t c = 0; c < logs.size(); ++c) {
    ClientLog& log = logs[c];
    if (!log.error.empty()) {
      result.mismatches.push_back("client " + std::to_string(c) + ": " + log.error);
    }
    for (cpr::obs::SpanRecord& record : log.spans) {
      result.spans.push_back(std::move(record));
    }
    for (size_t i = 0; i < log.samples.size(); ++i) {
      Sample& sample = log.samples[i];
      const Submitted submitted = log.submitted[i];
      const Client& client = clients[static_cast<size_t>(submitted.client)];
      const Input& input = submitted.edit < 0
                               ? client.repaired
                               : client.edits[static_cast<size_t>(submitted.edit)];
      const auto key = std::make_pair(submitted.client, submitted.edit);
      if (direct.find(key) == direct.end()) {
        DirectRepair run = RepairDirect(input, options);
        if (!run.report.ok()) {
          result.mismatches.push_back("direct repair of " + input.name +
                                      " failed: " + run.report.error().message());
          direct[key] = Verdict{};
          continue;
        }
        direct[key] = VerdictOf(*run.report);
        std::string why = CheckSoundness(input, *run.report);
        if (!why.empty()) {
          result.mismatches.push_back("soundness oracle disagrees on " + input.name + ": " +
                                      why);
        }
        if (config.trace) {
          // The composed pipeline must agree with Cpr::Repair here too.
          Sample layered;
          cpr::obs::Trace::Global().Enable();
          cpr::Result<cpr::CprReport> report = RepairComposed(input, options, &layered);
          cpr::obs::Trace::Global().Disable();
          if (!report.ok() || !(VerdictOf(*report) == direct[key])) {
            result.mismatches.push_back("composed pipeline differs from Cpr::Repair on " +
                                        input.name);
          }
          composed.push_back(std::move(layered));
        }
      }
      sample.policies_checked =
          sample.completed ? static_cast<int>(input.policies.size()) : 0;
      if (!sample.completed) {
        result.mismatches.push_back("request for " + input.name + " failed: " + sample.error);
      } else if (!(sample.verdict == direct[key])) {
        result.mismatches.push_back("reply for " + input.name + " (" +
                                    sample.verdict.ToString() + ") differs from Cpr::Repair (" +
                                    direct[key].ToString() + ")");
      }
      (log.traced[i] ? traced_s : untraced_s).push_back(sample.seconds);
      if (log.traced[i]) {
        traced_samples.push_back(sample);
      }
      all.push_back(std::move(sample));
    }
  }

  result.attempted = static_cast<int64_t>(all.size());
  for (const Sample& sample : all) {
    result.failed += sample.completed ? 0 : 1;
  }
  if (!config.trace) {
    std::vector<Verdict> quality;
    for (const Sample& sample : all) {
      quality.push_back(sample.verdict);
    }
    AddEndToEnd(all, quality, window_s, setup_s, peak_rss_mb, &result);
    return result;
  }

  LayerInputs layers;
  layers.traced = traced_samples;
  for (Sample& sample : layers.traced) {
    sample.traced_root_s = sample.seconds;
  }
  for (const Sample& sample : composed) {
    layers.policy_times.insert(layers.policy_times.end(), sample.simulate_policy_s.begin(),
                               sample.simulate_policy_s.end());
  }
  layers.solve_threads = kDaemonSolveThreads;
  layers.traced_p50_s = Median(traced_s);
  layers.untraced_p50_s = Median(untraced_s);
  layers.failed_share = FailedShare(all);
  layers.serve = all;
  layers.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers.admission_rejects = rejects;
  layers.peak_rss_mb = peak_rss_mb;
  AddPerLayer(layers, &result);
  return result;
}

}  // namespace perfbench
