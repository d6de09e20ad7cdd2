// cpr_json_validate — strict RFC 8259 syntax check for scripts, plus schema
// checks for the telemetry documents (DESIGN.md §14).
//
//   cpr_json_validate FILE...            validate each file as one JSON
//                                        document (exit 1 on the first
//                                        invalid one)
//   cpr_json_validate --events FILE...   validate event-log JSONL: every
//                                        non-empty line is a JSON object with
//                                        "v" (int), "ts" (number), "type"
//                                        (non-empty string); "req"/"trace"
//                                        typed when present
//   cpr_json_validate --flight FILE...   validate a flight-recorder dump:
//                                        schema_version/reason/requests/
//                                        recent_events, every embedded event
//                                        held to the same rules as --events
//   cpr_json_validate --stats FILE...    validate a --stats-json run record:
//                                        the stats schema_version, and when
//                                        a "repair" section is present its
//                                        counts (problems_formulated,
//                                        problems_solved, problems_failed,
//                                        policies_deferred, groups_escalated,
//                                        bool_vars) are non-negative numbers,
//                                        "problems" holds one entry per
//                                        formulated problem, and
//                                        "superseded_problems" one per
//                                        escalated group
//   cpr_json_validate [--events|--flight|--stats]   (no files) validate stdin

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/schema_versions.h"
#include "obs/json.h"

namespace {

using cpr::obs::JsonValue;

int Fail(const std::string& label, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", label.c_str(), why.c_str());
  return 1;
}

int Validate(const std::string& label, const std::string& text) {
  std::string error;
  if (!cpr::obs::ValidateJson(text, &error)) {
    return Fail(label, "invalid JSON: " + error);
  }
  std::printf("%s: valid JSON (%zu bytes)\n", label.c_str(), text.size());
  return 0;
}

// One event object (an event-log line or an entry embedded in a flight
// dump). Mirrors the schema comment in obs/event_log.h.
bool CheckEventObject(const JsonValue& event, std::string* why) {
  if (event.type != JsonValue::Type::kObject) {
    *why = "event is not a JSON object";
    return false;
  }
  const JsonValue* v = event.Find("v");
  if (v == nullptr || !v->IsNumber()) {
    *why = "event missing numeric \"v\"";
    return false;
  }
  if (v->AsInt() != cpr::kEventSchemaVersion) {
    *why = "event schema version " + std::to_string(v->AsInt()) +
           " != " + std::to_string(cpr::kEventSchemaVersion);
    return false;
  }
  const JsonValue* ts = event.Find("ts");
  if (ts == nullptr || !ts->IsNumber() || ts->AsDouble() <= 0) {
    *why = "event missing positive numeric \"ts\"";
    return false;
  }
  const JsonValue* type = event.Find("type");
  if (type == nullptr || type->type != JsonValue::Type::kString ||
      type->string.empty()) {
    *why = "event missing non-empty string \"type\"";
    return false;
  }
  if (const JsonValue* req = event.Find("req");
      req != nullptr && (!req->IsNumber() || req->AsInt() <= 0)) {
    *why = "event \"req\" must be a positive number when present";
    return false;
  }
  if (const JsonValue* trace = event.Find("trace");
      trace != nullptr &&
      (trace->type != JsonValue::Type::kString || trace->string.empty())) {
    *why = "event \"trace\" must be a non-empty string when present";
    return false;
  }
  return true;
}

int ValidateEvents(const std::string& label, const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  int events = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::string where = label + ":" + std::to_string(line_number);
    std::string error;
    JsonValue event;
    if (!cpr::obs::ParseJson(line, &event, &error)) {
      return Fail(where, "invalid JSON: " + error);
    }
    if (!CheckEventObject(event, &error)) {
      return Fail(where, error);
    }
    ++events;
  }
  if (events == 0) {
    return Fail(label, "no events (empty log)");
  }
  std::printf("%s: valid event log (%d events)\n", label.c_str(), events);
  return 0;
}

int ValidateFlight(const std::string& label, const std::string& text) {
  std::string error;
  JsonValue dump;
  if (!cpr::obs::ParseJson(text, &dump, &error)) {
    return Fail(label, "invalid JSON: " + error);
  }
  if (dump.type != JsonValue::Type::kObject) {
    return Fail(label, "flight dump is not a JSON object");
  }
  const JsonValue* version = dump.Find("schema_version");
  if (version == nullptr || version->AsInt() != cpr::kFlightRecorderSchemaVersion) {
    return Fail(label, "missing/unknown schema_version");
  }
  const JsonValue* reason = dump.Find("reason");
  if (reason == nullptr || reason->type != JsonValue::Type::kString ||
      reason->string.empty()) {
    return Fail(label, "missing non-empty string \"reason\"");
  }
  const JsonValue* dumped = dump.Find("dumped_unix_seconds");
  if (dumped == nullptr || !dumped->IsNumber() || dumped->AsDouble() <= 0) {
    return Fail(label, "missing positive \"dumped_unix_seconds\"");
  }
  const JsonValue* requests = dump.Find("requests");
  if (requests == nullptr || requests->type != JsonValue::Type::kArray) {
    return Fail(label, "missing array \"requests\"");
  }
  int events = 0;
  for (size_t i = 0; i < requests->items.size(); ++i) {
    const JsonValue& lifecycle = requests->items[i];
    std::string where = label + ": requests[" + std::to_string(i) + "]";
    if (lifecycle.type != JsonValue::Type::kObject) {
      return Fail(where, "lifecycle is not a JSON object");
    }
    const JsonValue* id = lifecycle.Find("id");
    if (id == nullptr || !id->IsNumber() || id->AsInt() <= 0) {
      return Fail(where, "missing positive \"id\"");
    }
    if (lifecycle.Find("trace_id") == nullptr ||
        lifecycle.Find("terminal") == nullptr ||
        lifecycle.Find("dropped_events") == nullptr) {
      return Fail(where, "missing trace_id/terminal/dropped_events");
    }
    const JsonValue* lifecycle_events = lifecycle.Find("events");
    if (lifecycle_events == nullptr ||
        lifecycle_events->type != JsonValue::Type::kArray ||
        lifecycle_events->items.empty()) {
      return Fail(where, "missing non-empty array \"events\"");
    }
    for (const JsonValue& event : lifecycle_events->items) {
      if (!CheckEventObject(event, &error)) {
        return Fail(where, error);
      }
      ++events;
    }
  }
  const JsonValue* recent = dump.Find("recent_events");
  if (recent == nullptr || recent->type != JsonValue::Type::kArray) {
    return Fail(label, "missing array \"recent_events\"");
  }
  for (const JsonValue& event : recent->items) {
    if (!CheckEventObject(event, &error)) {
      return Fail(label + ": recent_events", error);
    }
  }
  std::printf("%s: valid flight dump (%zu lifecycles, %d events, %zu recent)\n",
              label.c_str(), requests->items.size(), events, recent->items.size());
  return 0;
}

int ValidateStats(const std::string& label, const std::string& text) {
  std::string error;
  JsonValue doc;
  if (!cpr::obs::ParseJson(text, &doc, &error)) {
    return Fail(label, "invalid JSON: " + error);
  }
  if (doc.type != JsonValue::Type::kObject) {
    return Fail(label, "stats document is not a JSON object");
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || version->AsInt() != cpr::kStatsSchemaVersion) {
    return Fail(label, "missing/unknown schema_version");
  }
  const JsonValue* repair = doc.Find("repair");
  if (repair == nullptr) {
    std::printf("%s: valid stats document (no repair section)\n", label.c_str());
    return 0;
  }
  if (repair->type != JsonValue::Type::kObject) {
    return Fail(label, "\"repair\" is not a JSON object");
  }
  for (const char* key : {"problems_formulated", "problems_solved", "problems_failed",
                          "policies_deferred", "groups_escalated", "bool_vars"}) {
    const JsonValue* value = repair->Find(key);
    if (value == nullptr || !value->IsNumber() || value->AsInt() < 0) {
      return Fail(label, std::string("repair: missing non-negative \"") + key + "\"");
    }
  }
  const auto array_of = [repair](const char* key) -> const JsonValue* {
    const JsonValue* value = repair->Find(key);
    return value != nullptr && value->type == JsonValue::Type::kArray ? value : nullptr;
  };
  const JsonValue* problems = array_of("problems");
  const JsonValue* superseded = array_of("superseded_problems");
  if (problems == nullptr || superseded == nullptr) {
    return Fail(label, "repair: missing array \"problems\" or \"superseded_problems\"");
  }
  const int64_t formulated = repair->Find("problems_formulated")->AsInt();
  const int64_t escalated = repair->Find("groups_escalated")->AsInt();
  if (static_cast<int64_t>(problems->items.size()) != formulated) {
    return Fail(label, "repair: \"problems\" length differs from problems_formulated");
  }
  if (static_cast<int64_t>(superseded->items.size()) != escalated) {
    return Fail(label,
                "repair: \"superseded_problems\" length differs from groups_escalated");
  }
  std::printf("%s: valid stats document (%lld problems, %lld escalated)\n", label.c_str(),
              static_cast<long long>(formulated), static_cast<long long>(escalated));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kDocument, kEvents, kFlight, kStats };
  Mode mode = Mode::kDocument;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--events") {
      mode = Mode::kEvents;
    } else if (arg == "--flight") {
      mode = Mode::kFlight;
    } else if (arg == "--stats") {
      mode = Mode::kStats;
    } else {
      files.push_back(arg);
    }
  }
  auto validate = [mode](const std::string& label, const std::string& text) {
    switch (mode) {
      case Mode::kEvents: return ValidateEvents(label, text);
      case Mode::kFlight: return ValidateFlight(label, text);
      case Mode::kStats: return ValidateStats(label, text);
      case Mode::kDocument: break;
    }
    return Validate(label, text);
  };
  if (files.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return validate("<stdin>", buffer.str());
  }
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "%s: cannot read\n", file.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (validate(file, buffer.str()) != 0) {
      return 1;
    }
  }
  return 0;
}
