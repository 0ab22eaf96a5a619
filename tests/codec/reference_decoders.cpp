// Reference decoders as they read records before the shared codec (see
// reference_decoders.hpp). Keep them as they are: they are the oracle.
#include "tests/codec/reference_decoders.hpp"

#include <cmath>
#include <limits>

#include "src/util/json.hpp"

namespace dovado::reference {
namespace {

/// static_cast<T>(d) where that is defined (trunc(d) within T's range); T's
/// minimum where the original cast was undefined (out of range, or NaN).
template <typename T>
T legacy_cast(double d) {
  // Both bounds are powers of two (or zero), so exact as doubles.
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi_excl = 2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (std::trunc(d) >= lo && std::trunc(d) < hi_excl) return static_cast<T>(d);
  return std::numeric_limits<T>::min();
}

}  // namespace

// --- store/format.cpp ------------------------------------------------------

using store::StoreRecord;

std::optional<StoreRecord> decode_payload(std::string_view payload) {
  util::Json parsed;
  if (!util::Json::parse(payload, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& obj = parsed.as_object();

  const auto params_it = obj.find("params");
  const auto backend_it = obj.find("backend");
  const auto tier_it = obj.find("tier");
  if (params_it == obj.end() || !params_it->second.is_object() ||
      backend_it == obj.end() || !backend_it->second.is_string() ||
      tier_it == obj.end() || !tier_it->second.is_string()) {
    return std::nullopt;
  }
  StoreRecord record;
  for (const auto& [name, value] : params_it->second.as_object()) {
    if (!value.is_number()) return std::nullopt;
    record.params[name] = legacy_cast<std::int64_t>(value.as_number());
  }
  if (record.params.empty()) return std::nullopt;
  record.backend = backend_it->second.as_string();
  record.tier = tier_it->second.as_string();
  if (record.backend.empty() || record.tier.empty()) return std::nullopt;
  if (auto it = obj.find("campaign"); it != obj.end() && it->second.is_string()) {
    record.campaign = it->second.as_string();
  }
  if (auto it = obj.find("metrics"); it != obj.end() && it->second.is_object()) {
    for (const auto& [name, value] : it->second.as_object()) {
      if (!value.is_number()) return std::nullopt;
      record.metrics[name] = value.as_number();
    }
  }
  if (auto it = obj.find("ok"); it != obj.end() && it->second.is_bool()) {
    record.ok = it->second.as_bool();
  }
  if (auto it = obj.find("failure"); it != obj.end() && it->second.is_string()) {
    record.failure = it->second.as_string();
  }
  if (auto it = obj.find("approximate"); it != obj.end() && it->second.is_bool()) {
    record.approximate = it->second.as_bool();
  }
  if (auto it = obj.find("quarantined"); it != obj.end() && it->second.is_bool()) {
    record.quarantined = it->second.as_bool();
  }
  if (auto it = obj.find("tool_seconds"); it != obj.end() && it->second.is_number()) {
    record.tool_seconds = it->second.as_number();
  }
  if (auto it = obj.find("timestamp"); it != obj.end() && it->second.is_number()) {
    record.timestamp = legacy_cast<std::int64_t>(it->second.as_number());
  }
  return record;
}

// --- core/journal.cpp -----------------------------------------------------

using core::FailureClass;
using core::health_event_kind_from_name;
using core::HealthEvent;
using core::InflightMark;
using core::JournalRecord;

namespace {

std::optional<FailureClass> failure_class_from_name(const std::string& name) {
  if (name == "none") return FailureClass::kNone;
  if (name == "transient") return FailureClass::kTransient;
  if (name == "deterministic") return FailureClass::kDeterministic;
  if (name == "timeout") return FailureClass::kTimeout;
  return std::nullopt;
}

}  // namespace

std::optional<JournalRecord> journal_record_from_json(const std::string& line) {
  util::Json parsed;
  if (!util::Json::parse(line, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& obj = parsed.as_object();

  auto params_it = obj.find("params");
  auto ok_it = obj.find("ok");
  if (params_it == obj.end() || !params_it->second.is_object() || ok_it == obj.end() ||
      !ok_it->second.is_bool()) {
    return std::nullopt;
  }
  JournalRecord record;
  for (const auto& [name, value] : params_it->second.as_object()) {
    if (!value.is_number()) return std::nullopt;
    record.params[name] = legacy_cast<std::int64_t>(value.as_number());
  }
  if (record.params.empty()) return std::nullopt;
  record.ok = ok_it->second.as_bool();
  if (auto it = obj.find("metrics"); it != obj.end() && it->second.is_object()) {
    for (const auto& [name, value] : it->second.as_object()) {
      if (!value.is_number()) return std::nullopt;
      record.metrics.values[name] = value.as_number();
    }
  }
  if (auto it = obj.find("error"); it != obj.end() && it->second.is_string()) {
    record.error = it->second.as_string();
  }
  if (auto it = obj.find("failure"); it != obj.end() && it->second.is_string()) {
    auto cls = failure_class_from_name(it->second.as_string());
    if (!cls) return std::nullopt;
    record.failure = *cls;
  }
  if (auto it = obj.find("attempts"); it != obj.end() && it->second.is_number()) {
    record.attempts = legacy_cast<int>(it->second.as_number());
  }
  if (auto it = obj.find("quarantined"); it != obj.end() && it->second.is_bool()) {
    record.quarantined = it->second.as_bool();
  }
  if (auto it = obj.find("tool_seconds"); it != obj.end() && it->second.is_number()) {
    record.tool_seconds = it->second.as_number();
  }
  return record;
}

std::optional<InflightMark> inflight_record_from_json(const std::string& line) {
  util::Json parsed;
  if (!util::Json::parse(line, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& obj = parsed.as_object();
  auto params_it = obj.find("params");
  if (params_it == obj.end() || !params_it->second.is_object()) return std::nullopt;
  InflightMark mark;
  for (const auto& [name, value] : params_it->second.as_object()) {
    if (!value.is_number()) return std::nullopt;
    mark.params[name] = legacy_cast<std::int64_t>(value.as_number());
  }
  if (mark.params.empty()) return std::nullopt;
  if (auto it = obj.find("optimizer"); it != obj.end() && it->second.is_string()) {
    mark.optimizer = it->second.as_string();
  }
  return mark;
}

std::optional<HealthEvent> health_event_from_json(const std::string& line) {
  util::Json parsed;
  if (!util::Json::parse(line, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& obj = parsed.as_object();
  auto backend_it = obj.find("backend");
  auto event_it = obj.find("event");
  if (backend_it == obj.end() || !backend_it->second.is_string() ||
      event_it == obj.end() || !event_it->second.is_string()) {
    return std::nullopt;
  }
  const auto kind = health_event_kind_from_name(event_it->second.as_string());
  if (!kind) return std::nullopt;
  HealthEvent event;
  event.backend = backend_it->second.as_string();
  event.kind = *kind;
  if (auto it = obj.find("cause"); it != obj.end() && it->second.is_string()) {
    event.cause = it->second.as_string();
  }
  if (auto it = obj.find("window_failures"); it != obj.end() && it->second.is_number()) {
    event.window_failures = legacy_cast<std::size_t>(it->second.as_number());
  }
  if (auto it = obj.find("window_size"); it != obj.end() && it->second.is_number()) {
    event.window_size = legacy_cast<std::size_t>(it->second.as_number());
  }
  return event;
}

std::optional<int> journal_header_version(const std::string& line) {
  util::Json parsed;
  if (!util::Json::parse(line, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& obj = parsed.as_object();
  std::string kind;
  if (auto it = obj.find("kind"); it != obj.end() && it->second.is_string()) {
    kind = it->second.as_string();
  }
  if (kind != "header") return std::nullopt;
  if (auto it = obj.find("version"); it != obj.end() && it->second.is_number()) {
    return legacy_cast<int>(it->second.as_number());
  }
  return std::nullopt;
}

// --- core/session.cpp ------------------------------------------------------

using core::ExploredPoint;

namespace {

std::optional<ExploredPoint> point_from_json(const util::Json& json) {
  if (!json.is_object()) return std::nullopt;
  const auto& obj = json.as_object();
  auto params_it = obj.find("params");
  auto metrics_it = obj.find("metrics");
  if (params_it == obj.end() || !params_it->second.is_object() ||
      metrics_it == obj.end() || !metrics_it->second.is_object()) {
    return std::nullopt;
  }
  ExploredPoint point;
  for (const auto& [name, value] : params_it->second.as_object()) {
    if (!value.is_number()) return std::nullopt;
    point.params[name] = legacy_cast<std::int64_t>(value.as_number());
  }
  for (const auto& [name, value] : metrics_it->second.as_object()) {
    if (!value.is_number()) return std::nullopt;
    point.metrics.values[name] = value.as_number();
  }
  auto flag = [&](const char* key) {
    auto it = obj.find(key);
    return it != obj.end() && it->second.is_bool() && it->second.as_bool();
  };
  point.estimated = flag("estimated");
  point.failed = flag("failed");
  point.approximate = flag("approximate");
  return point;
}

}  // namespace

std::optional<std::vector<ExploredPoint>> session_from_json(const std::string& text) {
  util::Json parsed;
  if (!util::Json::parse(text, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& root = parsed.as_object();
  auto it = root.find("explored");
  if (it == root.end() || !it->second.is_array()) return std::nullopt;
  std::vector<ExploredPoint> points;
  for (const auto& item : it->second.as_array()) {
    auto point = point_from_json(item);
    if (!point) return std::nullopt;
    points.push_back(std::move(*point));
  }
  return points;
}

// --- serve/protocol.cpp ----------------------------------------------------

using serve::FrontEntry;
using serve::Request;
using serve::RequestOp;
using serve::Response;
using serve::ResponseStatus;
using util::Json;
using util::JsonArray;
using util::JsonObject;

namespace {

const Json* find(const JsonObject& obj, const std::string& key) {
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

bool get_string(const JsonObject& obj, const std::string& key, std::string& out) {
  const Json* v = find(obj, key);
  if (v == nullptr || !v->is_string()) return false;
  out = v->as_string();
  return true;
}

bool get_number(const JsonObject& obj, const std::string& key, double& out) {
  const Json* v = find(obj, key);
  if (v == nullptr || !v->is_number()) return false;
  out = v->as_number();
  return true;
}

std::int64_t to_int(double d) { return legacy_cast<std::int64_t>(std::round(d)); }

bool point_from_json(const Json& json, core::DesignPoint& out, std::string& error) {
  if (!json.is_object()) {
    error = "'point' must be an object of parameter -> integer value";
    return false;
  }
  out.clear();
  for (const auto& [name, value] : json.as_object()) {
    if (!value.is_number()) {
      error = "parameter '" + name + "' must be a number";
      return false;
    }
    out[name] = to_int(value.as_number());
  }
  return true;
}

bool domain_from_json(const Json& json, core::ParamSpec& out, std::string& error) {
  if (!json.is_object()) {
    error = "each 'space' entry must be an object";
    return false;
  }
  const JsonObject& obj = json.as_object();
  if (!get_string(obj, "name", out.name) || out.name.empty()) {
    error = "space entry is missing a 'name'";
    return false;
  }
  std::string kind;
  (void)get_string(obj, "kind", kind);
  if (kind == "range" || kind.empty()) {
    double lo = 0.0;
    double hi = 0.0;
    double step = 1.0;
    if (!get_number(obj, "lo", lo) || !get_number(obj, "hi", hi)) {
      error = "range parameter '" + out.name + "' needs numeric 'lo' and 'hi'";
      return false;
    }
    (void)get_number(obj, "step", step);
    if (to_int(step) <= 0 || to_int(hi) < to_int(lo)) {
      error = "range parameter '" + out.name + "' has an empty or invalid range";
      return false;
    }
    out.domain = core::ParamDomain::range(to_int(lo), to_int(hi), to_int(step));
    return true;
  }
  if (kind == "values") {
    const Json* values = find(obj, "values");
    if (values == nullptr || !values->is_array() || values->as_array().empty()) {
      error = "values parameter '" + out.name + "' needs a non-empty 'values' array";
      return false;
    }
    std::vector<std::int64_t> list;
    for (const Json& v : values->as_array()) {
      if (!v.is_number()) {
        error = "values of parameter '" + out.name + "' must be numbers";
        return false;
      }
      list.push_back(to_int(v.as_number()));
    }
    out.domain = core::ParamDomain::values(std::move(list));
    return true;
  }
  error = "unknown domain kind '" + kind + "' for parameter '" + out.name +
          "' (expected 'range' or 'values')";
  return false;
}

bool metrics_from_json(const Json& json, util::FlatMap<double>& out) {
  if (!json.is_object()) return false;
  out.clear();
  for (const auto& [name, value] : json.as_object()) {
    if (!value.is_number()) return false;
    out[name] = value.as_number();
  }
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request& out, std::string& error) {
  Json json;
  if (!Json::parse(line, json) || !json.is_object()) {
    error = "malformed request frame (not a JSON object)";
    return false;
  }
  const JsonObject& obj = json.as_object();
  std::string op;
  if (!get_string(obj, "op", op)) {
    error = "request is missing 'op'";
    return false;
  }
  out = Request{};
  (void)get_string(obj, "tenant", out.tenant);
  (void)get_string(obj, "id", out.id);
  if (op == "ping") {
    out.op = RequestOp::kPing;
    return true;
  }
  if (op == "stats") {
    out.op = RequestOp::kStats;
    return true;
  }
  if (op == "eval") {
    out.op = RequestOp::kEval;
    const Json* point = find(obj, "point");
    if (point == nullptr) {
      error = "eval request is missing 'point'";
      return false;
    }
    if (!point_from_json(*point, out.point, error)) return false;
    if (out.point.empty()) {
      error = "eval request has an empty 'point'";
      return false;
    }
    (void)get_number(obj, "deadline_tool_seconds", out.deadline_tool_seconds);
    if (out.deadline_tool_seconds < 0.0) {
      error = "'deadline_tool_seconds' must be >= 0";
      return false;
    }
    return true;
  }
  if (op == "campaign") {
    out.op = RequestOp::kCampaign;
    const Json* space = find(obj, "space");
    if (space == nullptr || !space->is_array() || space->as_array().empty()) {
      error = "campaign request needs a non-empty 'space' array";
      return false;
    }
    for (const Json& entry : space->as_array()) {
      // ParamDomain has no default constructor; start from a placeholder
      // domain that domain_from_json() always overwrites.
      core::ParamSpec spec{std::string(), core::ParamDomain::boolean()};
      if (!domain_from_json(entry, spec, error)) return false;
      out.campaign.space.params.push_back(std::move(spec));
    }
    const Json* objectives = find(obj, "objectives");
    if (objectives == nullptr || !objectives->is_array() ||
        objectives->as_array().empty()) {
      error = "campaign request needs a non-empty 'objectives' array";
      return false;
    }
    for (const Json& entry : objectives->as_array()) {
      if (!entry.is_object()) {
        error = "each objective must be an object with a 'metric'";
        return false;
      }
      core::Objective objective;
      if (!get_string(entry.as_object(), "metric", objective.metric) ||
          objective.metric.empty()) {
        error = "each objective needs a non-empty 'metric'";
        return false;
      }
      const Json* maximize = find(entry.as_object(), "maximize");
      objective.maximize = maximize != nullptr && maximize->is_bool() &&
                           maximize->as_bool();
      out.campaign.objectives.push_back(std::move(objective));
    }
    double budget = 0.0;
    if (!get_number(obj, "budget", budget) || to_int(budget) <= 0) {
      error = "campaign request needs a positive 'budget'";
      return false;
    }
    out.campaign.budget = static_cast<std::size_t>(to_int(budget));
    (void)get_string(obj, "optimizer", out.campaign.optimizer);
    double population = static_cast<double>(out.campaign.population);
    (void)get_number(obj, "population", population);
    if (to_int(population) <= 0) {
      error = "'population' must be positive";
      return false;
    }
    out.campaign.population = static_cast<std::size_t>(to_int(population));
    double seed = static_cast<double>(out.campaign.seed);
    (void)get_number(obj, "seed", seed);
    out.campaign.seed = static_cast<std::uint64_t>(to_int(seed));
    return true;
  }
  error = "unknown op '" + op + "' (expected eval, campaign, stats, or ping)";
  return false;
}

bool parse_response(const std::string& line, Response& out, std::string& error) {
  Json json;
  if (!Json::parse(line, json) || !json.is_object()) {
    error = "malformed response frame (not a JSON object)";
    return false;
  }
  const JsonObject& obj = json.as_object();
  std::string status;
  if (!get_string(obj, "status", status)) {
    error = "response is missing 'status'";
    return false;
  }
  out = Response{};
  (void)get_string(obj, "id", out.id);
  if (status == "ok") {
    out.status = ResponseStatus::kOk;
  } else if (status == "failed") {
    out.status = ResponseStatus::kFailed;
  } else if (status == "shed") {
    out.status = ResponseStatus::kShed;
  } else if (status == "draining") {
    out.status = ResponseStatus::kDraining;
  } else if (status == "error") {
    out.status = ResponseStatus::kError;
  } else {
    error = "unknown response status '" + status + "'";
    return false;
  }
  if (const Json* metrics = find(obj, "metrics")) {
    if (!metrics_from_json(*metrics, out.metrics)) {
      error = "'metrics' must be an object of metric -> number";
      return false;
    }
  }
  (void)get_number(obj, "tool_seconds", out.tool_seconds);
  if (const Json* v = find(obj, "cache_hit")) out.cache_hit = v->is_bool() && v->as_bool();
  if (const Json* v = find(obj, "store_hit")) out.store_hit = v->is_bool() && v->as_bool();
  double attempts = 0.0;
  if (get_number(obj, "attempts", attempts)) out.attempts = legacy_cast<int>(attempts);
  (void)get_string(obj, "error", out.error);
  if (out.status == ResponseStatus::kError) (void)get_string(obj, "message", out.error);
  double retry_after = 0.0;
  if (get_number(obj, "retry_after_ms", retry_after)) {
    out.retry_after_ms = to_int(retry_after);
  }
  (void)get_string(obj, "reason", out.reason);
  if (const Json* front = find(obj, "front"); front != nullptr && front->is_array()) {
    for (const Json& entry : front->as_array()) {
      if (!entry.is_object()) continue;
      FrontEntry fe;
      if (const Json* point = find(entry.as_object(), "point")) {
        std::string point_error;
        if (!point_from_json(*point, fe.point, point_error)) continue;
      }
      if (const Json* objectives = find(entry.as_object(), "objectives")) {
        (void)metrics_from_json(*objectives, fe.objectives);
      }
      out.front.push_back(std::move(fe));
    }
    double evaluations = 0.0;
    if (get_number(obj, "evaluations", evaluations)) {
      out.evaluations = static_cast<std::size_t>(to_int(evaluations));
    }
  }
  if (const Json* stats = find(obj, "stats")) out.stats_json = stats->dump();
  return true;
}

}  // namespace dovado::reference
