#include "src/serve/protocol.hpp"

#include "src/util/json.hpp"

namespace dovado::serve {
namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;
using util::find_field;
using util::IntField;
using util::read_bool;
using util::read_integer;
using util::read_number;
using util::read_string;

Json domain_to_json(const core::ParamSpec& spec) {
  JsonObject obj;
  obj["name"] = Json(spec.name);
  if (spec.domain.kind() == core::ParamDomain::Kind::kRange) {
    obj["kind"] = Json("range");
    obj["lo"] = Json(spec.domain.range_lo());
    obj["hi"] = Json(spec.domain.range_hi());
    obj["step"] = Json(spec.domain.range_step());
  } else {
    // Value lists and power-of-two domains both travel as their explicit
    // value list (the powers are the values).
    obj["kind"] = Json("values");
    JsonArray values;
    for (std::int64_t i = 0; i < spec.domain.size(); ++i) {
      values.emplace_back(spec.domain.value_at(i));
    }
    obj["values"] = Json(std::move(values));
  }
  return Json(std::move(obj));
}

bool domain_from_json(const Json& json, core::ParamSpec& out, std::string& error) {
  if (!json.is_object()) {
    error = "each 'space' entry must be an object";
    return false;
  }
  const JsonObject& obj = json.as_object();
  if (!read_string(obj, "name", out.name) || out.name.empty()) {
    error = "space entry is missing a 'name'";
    return false;
  }
  std::string kind;
  (void)read_string(obj, "kind", kind);
  if (kind == "range" || kind.empty()) {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::int64_t step = 1;
    if (read_integer(obj, "lo", lo) != IntField::kOk ||
        read_integer(obj, "hi", hi) != IntField::kOk ||
        read_integer(obj, "step", step) == IntField::kBad) {
      error = "range parameter '" + out.name + "' needs integer 'lo', 'hi' (and 'step')";
      return false;
    }
    if (step <= 0 || hi < lo) {
      error = "range parameter '" + out.name + "' has an empty or invalid range";
      return false;
    }
    out.domain = core::ParamDomain::range(lo, hi, step);
    return true;
  }
  if (kind == "values") {
    const Json* values = find_field(obj, "values");
    if (values == nullptr || !values->is_array() || values->as_array().empty()) {
      error = "values parameter '" + out.name + "' needs a non-empty 'values' array";
      return false;
    }
    std::vector<std::int64_t> list;
    for (const Json& v : values->as_array()) {
      std::int64_t value = 0;
      if (!v.is_number() || !util::exact_integer(v.as_number(), value)) {
        error = "values of parameter '" + out.name + "' must be integers";
        return false;
      }
      list.push_back(value);
    }
    out.domain = core::ParamDomain::values(std::move(list));
    return true;
  }
  error = "unknown domain kind '" + kind + "' for parameter '" + out.name +
          "' (expected 'range' or 'values')";
  return false;
}

}  // namespace

std::string request_op_name(RequestOp op) {
  switch (op) {
    case RequestOp::kEval: return "eval";
    case RequestOp::kCampaign: return "campaign";
    case RequestOp::kStats: return "stats";
    case RequestOp::kPing: return "ping";
  }
  return "ping";
}

std::string response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kFailed: return "failed";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kDraining: return "draining";
    case ResponseStatus::kError: return "error";
  }
  return "error";
}

std::string serialize_request(const Request& request) {
  JsonObject obj;
  obj["op"] = Json(request_op_name(request.op));
  if (!request.tenant.empty()) obj["tenant"] = Json(request.tenant);
  if (!request.id.empty()) obj["id"] = Json(request.id);
  if (request.op == RequestOp::kEval) {
    obj["point"] = util::encode_point(request.point);
    if (request.deadline_tool_seconds > 0.0) {
      obj["deadline_tool_seconds"] = Json(request.deadline_tool_seconds);
    }
  } else if (request.op == RequestOp::kCampaign) {
    JsonArray space;
    for (const auto& spec : request.campaign.space.params) {
      space.push_back(domain_to_json(spec));
    }
    obj["space"] = Json(std::move(space));
    JsonArray objectives;
    for (const auto& objective : request.campaign.objectives) {
      JsonObject o;
      o["metric"] = Json(objective.metric);
      if (objective.maximize) o["maximize"] = Json(true);
      objectives.push_back(Json(std::move(o)));
    }
    obj["objectives"] = Json(std::move(objectives));
    obj["budget"] = Json(request.campaign.budget);
    obj["optimizer"] = Json(request.campaign.optimizer);
    obj["population"] = Json(request.campaign.population);
    obj["seed"] = Json(static_cast<double>(request.campaign.seed));
  }
  return Json(std::move(obj)).dump();
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  Json json;
  if (!Json::parse(line, json) || !json.is_object()) {
    error = "malformed request frame (not a JSON object)";
    return false;
  }
  const JsonObject& obj = json.as_object();
  std::string op;
  if (!read_string(obj, "op", op)) {
    error = "request is missing 'op'";
    return false;
  }
  out = Request{};
  (void)read_string(obj, "tenant", out.tenant);
  (void)read_string(obj, "id", out.id);
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
    const Json* point = find_field(obj, "point");
    if (point == nullptr) {
      error = "eval request is missing 'point'";
      return false;
    }
    if (!util::decode_point(*point, out.point, &error)) {
      error = "bad 'point': " + error;
      return false;
    }
    if (out.point.empty()) {
      error = "eval request has an empty 'point'";
      return false;
    }
    (void)read_number(obj, "deadline_tool_seconds", out.deadline_tool_seconds);
    if (out.deadline_tool_seconds < 0.0) {
      error = "'deadline_tool_seconds' must be >= 0";
      return false;
    }
    return true;
  }
  if (op == "campaign") {
    out.op = RequestOp::kCampaign;
    const Json* space = find_field(obj, "space");
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
    const Json* objectives = find_field(obj, "objectives");
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
      if (!read_string(entry.as_object(), "metric", objective.metric) ||
          objective.metric.empty()) {
        error = "each objective needs a non-empty 'metric'";
        return false;
      }
      (void)read_bool(entry.as_object(), "maximize", objective.maximize);
      out.campaign.objectives.push_back(std::move(objective));
    }
    if (read_integer(obj, "budget", out.campaign.budget) == IntField::kBad ||
        read_integer(obj, "population", out.campaign.population) == IntField::kBad ||
        read_integer(obj, "seed", out.campaign.seed) == IntField::kBad) {
      error = "'budget', 'population' and 'seed' must be non-negative integers below 2^53";
      return false;
    }
    if (out.campaign.budget == 0) {
      error = "campaign request needs a positive 'budget'";
      return false;
    }
    if (out.campaign.population == 0) {
      error = "'population' must be positive";
      return false;
    }
    (void)read_string(obj, "optimizer", out.campaign.optimizer);
    return true;
  }
  error = "unknown op '" + op + "' (expected eval, campaign, stats, or ping)";
  return false;
}

std::string serialize_response(const Response& response) {
  JsonObject obj;
  obj["status"] = Json(response_status_name(response.status));
  if (!response.id.empty()) obj["id"] = Json(response.id);
  switch (response.status) {
    case ResponseStatus::kOk:
      if (!response.metrics.empty()) obj["metrics"] = util::encode_metrics(response.metrics);
      if (response.tool_seconds > 0.0) obj["tool_seconds"] = Json(response.tool_seconds);
      if (response.cache_hit) obj["cache_hit"] = Json(true);
      if (response.store_hit) obj["store_hit"] = Json(true);
      if (response.attempts > 0) obj["attempts"] = Json(response.attempts);
      if (!response.front.empty() || response.evaluations > 0) {
        JsonArray front;
        for (const auto& entry : response.front) {
          JsonObject e;
          e["point"] = util::encode_point(entry.point);
          e["objectives"] = util::encode_metrics(entry.objectives);
          front.push_back(Json(std::move(e)));
        }
        obj["front"] = Json(std::move(front));
        obj["evaluations"] = Json(response.evaluations);
      }
      if (!response.stats_json.empty()) {
        Json stats;
        if (Json::parse(response.stats_json, stats)) obj["stats"] = std::move(stats);
      }
      break;
    case ResponseStatus::kFailed:
      obj["error"] = Json(response.error);
      if (response.tool_seconds > 0.0) obj["tool_seconds"] = Json(response.tool_seconds);
      if (response.attempts > 0) obj["attempts"] = Json(response.attempts);
      break;
    case ResponseStatus::kShed:
      obj["retry_after_ms"] = Json(static_cast<double>(response.retry_after_ms));
      obj["reason"] = Json(response.reason);
      break;
    case ResponseStatus::kDraining:
      break;
    case ResponseStatus::kError:
      obj["message"] = Json(response.error);
      break;
  }
  return Json(std::move(obj)).dump();
}

bool parse_response(const std::string& line, Response& out, std::string& error) {
  Json json;
  if (!Json::parse(line, json) || !json.is_object()) {
    error = "malformed response frame (not a JSON object)";
    return false;
  }
  const JsonObject& obj = json.as_object();
  std::string status;
  if (!read_string(obj, "status", status)) {
    error = "response is missing 'status'";
    return false;
  }
  out = Response{};
  (void)read_string(obj, "id", out.id);
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
  if (const Json* metrics = find_field(obj, "metrics")) {
    if (!util::decode_metrics(*metrics, out.metrics)) {
      error = "'metrics' must be an object of metric -> number";
      return false;
    }
  }
  (void)read_number(obj, "tool_seconds", out.tool_seconds);
  (void)read_bool(obj, "cache_hit", out.cache_hit);
  (void)read_bool(obj, "store_hit", out.store_hit);
  (void)read_string(obj, "error", out.error);
  if (out.status == ResponseStatus::kError) (void)read_string(obj, "message", out.error);
  (void)read_string(obj, "reason", out.reason);
  if (read_integer(obj, "attempts", out.attempts) == IntField::kBad ||
      read_integer(obj, "retry_after_ms", out.retry_after_ms) == IntField::kBad) {
    error = "'attempts' and 'retry_after_ms' must be integers below 2^53";
    return false;
  }
  if (const Json* front = find_field(obj, "front"); front != nullptr && front->is_array()) {
    for (const Json& entry : front->as_array()) {
      if (!entry.is_object()) continue;
      FrontEntry fe;
      if (const Json* point = find_field(entry.as_object(), "point")) {
        if (!util::decode_point(*point, fe.point)) continue;
      }
      if (const Json* objectives = find_field(entry.as_object(), "objectives")) {
        (void)util::decode_metrics(*objectives, fe.objectives);
      }
      out.front.push_back(std::move(fe));
    }
    if (read_integer(obj, "evaluations", out.evaluations) == IntField::kBad) {
      error = "'evaluations' must be a non-negative integer below 2^53";
      return false;
    }
  }
  if (const Json* stats = find_field(obj, "stats")) out.stats_json = stats->dump();
  return true;
}

}  // namespace dovado::serve
