#include "src/core/writers.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

#include "src/util/csv.hpp"
#include "src/util/strings.hpp"

namespace dovado::core {

namespace {

/// Union of parameter names / metric names over a point set, in stable
/// (sorted) order.
std::pair<std::vector<std::string>, std::vector<std::string>> column_names(
    const std::vector<ExploredPoint>& points) {
  std::set<std::string> params;
  std::set<std::string> metrics;
  for (const auto& p : points) {
    for (const auto& [name, value] : p.params) {
      (void)value;
      params.insert(name);
    }
    for (const auto& [name, value] : p.metrics.values) {
      (void)value;
      metrics.insert(name);
    }
  }
  return {{params.begin(), params.end()}, {metrics.begin(), metrics.end()}};
}

std::string metric_to_string(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  return util::format("%.3f", v);
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<ExploredPoint>& points) {
  util::CsvWriter writer(out);
  const auto [params, metrics] = column_names(points);
  std::vector<std::string> header = params;
  header.insert(header.end(), metrics.begin(), metrics.end());
  header.push_back("estimated");
  header.push_back("failed");
  header.push_back("approximate");
  writer.row(header);
  for (const auto& p : points) {
    std::vector<std::string> row;
    row.reserve(header.size());
    for (const auto& name : params) {
      auto it = p.params.find(name);
      row.push_back(it == p.params.end() ? "" : std::to_string(it->second));
    }
    for (const auto& name : metrics) {
      auto it = p.metrics.values.find(name);
      row.push_back(it == p.metrics.values.end() ? "" : metric_to_string(it->second));
    }
    row.push_back(p.estimated ? "1" : "0");
    row.push_back(p.failed ? "1" : "0");
    row.push_back(p.approximate ? "1" : "0");
    writer.row(row);
  }
}

util::Json explored_point_to_json(const ExploredPoint& point) {
  util::JsonObject obj;
  obj["params"] = util::encode_point(point.params);
  obj["metrics"] = util::encode_metrics(point.metrics.values);
  obj["estimated"] = util::Json(point.estimated);
  obj["failed"] = util::Json(point.failed);
  obj["approximate"] = util::Json(point.approximate);
  return util::Json(std::move(obj));
}

std::string to_json(const DseResult& result, int indent) {
  util::JsonObject root;
  util::JsonArray pareto;
  for (const auto& p : result.pareto) pareto.push_back(explored_point_to_json(p));
  util::JsonArray explored;
  for (const auto& p : result.explored) explored.push_back(explored_point_to_json(p));

  util::JsonObject stats;
  stats["ga_evaluations"] = util::Json(result.stats.ga_evaluations);
  stats["tool_runs"] = util::Json(result.stats.tool_runs);
  stats["estimates"] = util::Json(result.stats.estimates);
  stats["cache_hits"] = util::Json(result.stats.cache_hits);
  stats["failures"] = util::Json(result.stats.failures);
  stats["pretrain_runs"] = util::Json(result.stats.pretrain_runs);
  stats["simulated_tool_seconds"] = util::Json(result.stats.simulated_tool_seconds);
  stats["deadline_hit"] = util::Json(result.stats.deadline_hit);
  stats["generations"] = util::Json(result.stats.generations);
  stats["single_flight_joins"] = util::Json(result.stats.single_flight_joins);
  stats["lease_waits"] = util::Json(result.stats.lease_waits);
  stats["deadline_skips"] = util::Json(result.stats.deadline_skips);
  stats["screened_out"] = util::Json(result.stats.screened_out);
  stats["screen_runs"] = util::Json(result.stats.screen_runs);
  stats["screen_tool_seconds"] = util::Json(result.stats.screen_tool_seconds);
  util::JsonObject backend_runs;
  for (const auto& [name, runs] : result.stats.backend_runs) {
    backend_runs[name] = util::Json(runs);
  }
  stats["backend_runs"] = util::Json(std::move(backend_runs));
  stats["retries"] = util::Json(result.stats.retries);
  stats["transient_failures"] = util::Json(result.stats.transient_failures);
  stats["deterministic_failures"] = util::Json(result.stats.deterministic_failures);
  stats["timeouts"] = util::Json(result.stats.timeouts);
  stats["quarantined"] = util::Json(result.stats.quarantined);
  stats["approx_fallbacks"] = util::Json(result.stats.approx_fallbacks);
  stats["journal_replays"] = util::Json(result.stats.journal_replays);
  stats["journal_skipped_records"] = util::Json(result.stats.journal_skipped_records);
  stats["store_hits"] = util::Json(result.stats.store_hits);
  stats["store_appends"] = util::Json(result.stats.store_appends);
  stats["store_seeded_points"] = util::Json(result.stats.store_seeded_points);
  stats["store_quarantined_records"] = util::Json(result.stats.store_quarantined_records);
  stats["faults_injected"] = util::Json(result.stats.faults_injected);
  stats["backoff_tool_seconds"] = util::Json(result.stats.backoff_tool_seconds);
  stats["breaker_trips"] = util::Json(result.stats.breaker_trips);
  stats["breaker_recoveries"] = util::Json(result.stats.breaker_recoveries);
  stats["breaker_fast_fails"] = util::Json(result.stats.breaker_fast_fails);
  stats["probe_runs"] = util::Json(result.stats.probe_runs);
  stats["degraded_evals"] = util::Json(result.stats.degraded_evals);
  stats["reverified_points"] = util::Json(result.stats.reverified_points);
  if (!result.stats.optimizer_name.empty()) {
    stats["optimizer"] = util::Json(result.stats.optimizer_name);
    util::JsonArray members;
    for (const auto& member : result.stats.optimizer_members) {
      util::JsonObject m;
      m["name"] = util::Json(member.name);
      m["asks"] = util::Json(member.asks);
      m["tells"] = util::Json(member.tells);
      m["hv_gain"] = util::Json(member.hv_gain);
      m["cost_seconds"] = util::Json(member.cost_seconds);
      m["weight"] = util::Json(member.weight);
      members.push_back(util::Json(std::move(m)));
    }
    stats["optimizer_members"] = util::Json(std::move(members));
  }

  root["pareto"] = util::Json(std::move(pareto));
  root["explored"] = util::Json(std::move(explored));
  root["stats"] = util::Json(std::move(stats));
  return util::Json(std::move(root)).dump(indent);
}

std::string format_table(const std::vector<ExploredPoint>& points) {
  const auto [params, metrics] = column_names(points);
  std::vector<std::string> header = params;
  header.insert(header.end(), metrics.begin(), metrics.end());

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : points) {
    std::vector<std::string> row;
    for (const auto& name : params) {
      auto it = p.params.find(name);
      row.push_back(it == p.params.end() ? "-" : std::to_string(it->second));
    }
    for (const auto& name : metrics) {
      auto it = p.metrics.values.find(name);
      row.push_back(it == p.metrics.values.end() ? "-" : metric_to_string(it->second));
    }
    rows.push_back(std::move(row));
  }

  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    widths[c] = header[c].size();
    for (const auto& row : rows) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c] << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  auto emit_sep = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      out << (c == 0 ? "+-" : "-+-") << std::string(widths[c], '-');
    }
    out << "-+\n";
  };
  emit_sep();
  emit_row(header);
  emit_sep();
  for (const auto& row : rows) emit_row(row);
  emit_sep();
  return out.str();
}

}  // namespace dovado::core
