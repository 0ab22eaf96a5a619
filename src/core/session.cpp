#include "src/core/session.hpp"

#include <fstream>
#include <sstream>

#include "src/core/writers.hpp"

namespace dovado::core {

namespace {

std::optional<ExploredPoint> explored_point_from_json(const util::Json& json) {
  if (!json.is_object()) return std::nullopt;
  const auto& obj = json.as_object();
  const util::Json* params = util::find_field(obj, "params");
  const util::Json* metrics = util::find_field(obj, "metrics");
  ExploredPoint point;
  if (params == nullptr || metrics == nullptr || !util::decode_point(*params, point.params) ||
      !util::decode_metrics(*metrics, point.metrics.values)) {
    return std::nullopt;
  }
  (void)util::read_bool(obj, "estimated", point.estimated);
  (void)util::read_bool(obj, "failed", point.failed);
  (void)util::read_bool(obj, "approximate", point.approximate);
  return point;
}

}  // namespace

std::string session_to_json(const std::vector<ExploredPoint>& explored, int indent) {
  util::JsonObject root;
  root["format"] = util::Json("dovado-session");
  root["version"] = util::Json(1);
  util::JsonArray points;
  for (const auto& p : explored) points.push_back(explored_point_to_json(p));
  root["explored"] = util::Json(std::move(points));
  return util::Json(std::move(root)).dump(indent);
}

std::optional<std::vector<ExploredPoint>> session_from_json(const std::string& text) {
  util::Json parsed;
  if (!util::Json::parse(text, parsed) || !parsed.is_object()) return std::nullopt;
  const util::Json* explored = util::find_field(parsed.as_object(), "explored");
  if (explored == nullptr || !explored->is_array()) return std::nullopt;
  std::vector<ExploredPoint> points;
  for (const auto& item : explored->as_array()) {
    auto point = explored_point_from_json(item);
    if (!point) return std::nullopt;
    points.push_back(std::move(*point));
  }
  return points;
}

bool save_session(const std::string& path, const std::vector<ExploredPoint>& explored) {
  std::ofstream out(path);
  if (!out) return false;
  out << session_to_json(explored);
  return static_cast<bool>(out);
}

SessionLoad load_session_ex(const std::string& path) {
  SessionLoad out;
  std::ifstream in(path);
  if (!in) {
    // Missing file vs unreadable content are different situations for the
    // caller: --resume on a first run should fall back to a fresh start,
    // while a present-but-broken file must be a hard error (resuming
    // "fresh" would silently discard a paid-for session).
    out.status = SessionLoadStatus::kMissing;
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = session_from_json(buffer.str());
  if (!parsed) {
    out.status = SessionLoadStatus::kCorrupt;
    return out;
  }
  out.status = SessionLoadStatus::kLoaded;
  out.explored = std::move(*parsed);
  return out;
}

std::optional<std::vector<ExploredPoint>> load_session(const std::string& path) {
  SessionLoad load = load_session_ex(path);
  if (load.status != SessionLoadStatus::kLoaded) return std::nullopt;
  return std::move(load.explored);
}

}  // namespace dovado::core
