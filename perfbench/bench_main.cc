// cpr_e2e_bench — the repository's end-to-end repair benchmark.
//
//   cpr_e2e_bench --workload dc_fig7|fattree_pc3|cprd_edits
//                 --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs one workload for S seconds (and at least one pass over its inputs),
// prints every metric as "metric <name> <value> <unit>", then, as the last
// line of standard output, one JSON object:
//
//   {"correct": true, "attempted": 12, "failed": 0,
//    "metrics": {"repair_p50_s": {"value": 2.1, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// split and writes the recorded spans to DIR/spans-<workload>-<seed>.json.
// Exits 1 when any result disagrees with the outside soundness oracle
// (the result line then says "correct": false), 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "e2e.h"
#include "obs/json.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cpr_e2e_bench: %s\nusage: cpr_e2e_bench --workload "
               "dc_fig7|fattree_pc3|cprd_edits --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::RunConfig* config) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return argc % 2 == 1 && config->seconds > 0 &&
         (config->workload == "dc_fig7" || config->workload == "fattree_pc3" ||
          config->workload == "cprd_edits");
}

void WriteSpans(const perfbench::RunConfig& config, const perfbench::RunResult& result) {
  cpr::obs::JsonWriter w;
  w.BeginObject().Key("workload").String(config.workload);
  w.Key("seed").Int(config.seed).Key("spans").BeginArray();
  for (const cpr::obs::SpanRecord& span : result.spans) {
    w.BeginObject().Key("name").String(span.name);
    w.Key("parent").Int(span.parent).Key("thread").Int(span.thread);
    w.Key("start_s").Double(span.start_seconds).Key("duration_s").Double(span.duration_seconds);
    w.Key("args").BeginObject();
    for (const auto& [key, value] : span.args) {
      w.Key(key).String(value);
    }
    w.EndObject().EndObject();
  }
  w.EndArray().EndObject();
  const std::filesystem::path path = std::filesystem::path(config.work_dir) /
                                     ("spans-" + config.workload + "-" +
                                      std::to_string(config.seed) + ".json");
  std::ofstream(path) << w.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    return Usage("bad arguments");
  }
  if (config.work_dir.empty()) {
    config.work_dir = ".bench_work";
  }
  std::filesystem::create_directories(config.work_dir);

  perfbench::RunResult result = config.workload == "cprd_edits"
                                    ? perfbench::RunCprd(config)
                                    : perfbench::RunDirect(config);
  if (config.trace) {
    WriteSpans(config, result);
  }

  std::printf("workload %s seed %u seconds %g trace %d\n", config.workload.c_str(),
              config.seed, config.seconds, config.trace ? 1 : 0);
  std::printf("threads solver=%d daemon_clients=%d daemon_workers=%d daemon_solve=%d\n",
              perfbench::kSolverThreads, perfbench::kDaemonClients,
              perfbench::kDaemonWorkers, perfbench::kDaemonSolveThreads);
  for (const auto* list : {&result.metrics, &result.reported}) {
    for (const perfbench::Metric& metric : *list) {
      std::printf("metric %s %.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
      if (!std::isfinite(metric.value)) {
        result.mismatches.push_back("metric " + metric.name + " is not finite");
      }
    }
  }
  for (const std::string& mismatch : result.mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", mismatch.c_str());
  }

  const bool correct = result.mismatches.empty();
  cpr::obs::JsonWriter w;
  w.BeginObject().Key("correct").Bool(correct);
  w.Key("attempted").Int(result.attempted).Key("failed").Int(result.failed);
  w.Key("metrics").BeginObject();
  for (const perfbench::Metric& metric : result.metrics) {
    w.Key(metric.name).BeginObject().Key("value").Double(metric.value);
    w.Key("unit").String(metric.unit).EndObject();
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.str().c_str());
  return correct ? 0 : 1;
}
