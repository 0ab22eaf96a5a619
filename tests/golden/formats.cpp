// Format golden: the exact bytes every record encoder writes.
//
// Writes a fixed set of design points (one to three parameters), metrics
// and flags through each encoder that puts an evaluation on disk or on the
// wire:
//   store     the evaluation store's record payload (store/format.hpp);
//   journal   a journal file: header, eval, inflight and health lines
//             (core/journal.hpp);
//   session   a session file and the full-result JSON of to_json
//             (core/session.hpp, core/writers.hpp);
//   export    the document `dovado db export` prints for a store;
//   serve     request and response frames of the serve protocol.
// Every non-integral number is chosen so that %.17g prints it exactly, so
// equal text means equal values. A refactor of the codecs must leave this
// file byte-identical (tests/golden/formats.txt).
//
// Usage: formats [--json FILE]
//   --json FILE  write the sections to FILE (without it they go to stdout).
//                Scratch journal and store files are made next to FILE (or
//                in the temp directory) and removed afterwards.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cli/commands.hpp"
#include "src/core/journal.hpp"
#include "src/core/session.hpp"
#include "src/core/writers.hpp"
#include "src/serve/protocol.hpp"
#include "src/store/store.hpp"

using namespace dovado;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Replace every occurrence of `from` in `text` with `to`.
std::string replace_all(std::string text, const std::string& from, const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

const std::vector<core::DesignPoint> kPoints = {
    {{"DEPTH", 16}},
    {{"DEPTH", 256}, {"WIDTH", 32}},
    {{"A", -7}, {"B", 0}, {"C", 4503599627370496}},
};

const std::vector<util::FlatMap<double>> kMetrics = {
    {{"fmax_mhz", 412.5}, {"lut", 120.0}},
    {{"ff", 0.0}, {"fmax_mhz", 0.10000000000000001}, {"lut", 1234.5678}, {"power_w", 1e21}},
    {},
};

std::vector<store::StoreRecord> store_records() {
  std::vector<store::StoreRecord> records;
  store::StoreRecord full;
  full.params = kPoints[1];
  full.backend = "vivado-sim";
  full.tier = "hifi";
  full.campaign = "camp-1";
  full.metrics = kMetrics[1];
  full.ok = true;
  full.tool_seconds = 312.25;
  full.timestamp = 1700000000;
  records.push_back(full);

  store::StoreRecord failed;
  failed.params = kPoints[2];
  failed.backend = "analytic";
  failed.tier = "screen";
  failed.metrics = kMetrics[2];
  failed.ok = false;
  failed.failure = "deterministic";
  failed.approximate = true;
  failed.quarantined = true;
  failed.tool_seconds = 0.5;
  failed.timestamp = 42;
  records.push_back(failed);

  store::StoreRecord small;
  small.params = kPoints[0];
  small.backend = "vivado-sim";
  small.tier = "screen";
  small.metrics = kMetrics[0];
  small.ok = true;
  small.tool_seconds = 60.0;
  small.timestamp = 1;
  records.push_back(small);
  return records;
}

std::vector<core::JournalRecord> journal_records() {
  std::vector<core::JournalRecord> records;
  core::JournalRecord ok;
  ok.params = kPoints[0];
  ok.metrics.values = kMetrics[0];
  ok.ok = true;
  ok.tool_seconds = 187.75;
  records.push_back(ok);

  core::JournalRecord failed;
  failed.params = kPoints[1];
  failed.metrics.values = kMetrics[1];
  failed.ok = false;
  failed.error = "tool \"crashed\"\n\tat step 3";
  failed.failure = core::FailureClass::kTransient;
  failed.attempts = 4;
  failed.quarantined = true;
  failed.tool_seconds = 0.10000000000000001;
  records.push_back(failed);

  core::JournalRecord timeout;
  timeout.params = kPoints[2];
  timeout.ok = false;
  timeout.failure = core::FailureClass::kTimeout;
  timeout.attempts = 2;
  records.push_back(timeout);
  return records;
}

std::vector<core::ExploredPoint> explored_points() {
  std::vector<core::ExploredPoint> points;
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    core::ExploredPoint p;
    p.params = kPoints[i];
    p.metrics.values = kMetrics[i];
    p.estimated = i == 1;
    p.failed = i == 2;
    p.approximate = i == 2;
    points.push_back(std::move(p));
  }
  return points;
}

std::string journal_file(const std::string& path) {
  std::string error;
  {
    auto journal = core::SessionJournal::open(path, nullptr, error);
    if (!journal) return "<" + error + ">\n";
    for (const auto& record : journal_records()) (void)journal->append(record);
    (void)journal->append_inflight(kPoints[1]);
    (void)journal->append_inflight(kPoints[2], "nsga2");
    core::HealthEvent trip;
    trip.backend = "vivado-sim";
    trip.kind = core::HealthEventKind::kTrip;
    trip.cause = "license server unreachable";
    trip.window_failures = 5;
    trip.window_size = 8;
    (void)journal->append_event(trip);
    core::HealthEvent recover;
    recover.backend = "vivado-sim";
    recover.kind = core::HealthEventKind::kRecover;
    (void)journal->append_event(recover);
  }
  std::string text = read_file(path);
  std::filesystem::remove(path);
  return text;
}

std::string db_export(const std::string& path) {
  std::filesystem::remove(path);
  {
    auto opened = store::EvalStore::open_writer(path);
    if (!opened.store) return "<" + opened.error + ">\n";
    for (const auto& record : store_records()) (void)opened.store->append(record);
  }
  cli::Options options;
  options.db_action = "export";
  options.store_path = path;
  std::ostringstream out;
  std::ostringstream err;
  (void)cli::run_db(options, out, err);
  std::filesystem::remove(path);
  // The document names the store file; pin the name, not the build tree.
  return replace_all(out.str() + err.str(), path, "formats.dvstore");
}

core::DseResult dse_result() {
  core::DseResult result;
  result.explored = explored_points();
  result.pareto = {result.explored[0], result.explored[1]};
  result.stats.ga_evaluations = 12;
  result.stats.tool_runs = 3;
  result.stats.simulated_tool_seconds = 561.5;
  result.stats.backend_runs = {{"vivado-sim", 3}};
  result.stats.optimizer_name = "portfolio";
  opt::MemberStats member;
  member.name = "nsga2";
  member.asks = 7;
  member.tells = 6;
  member.hv_gain = 0.25;
  member.cost_seconds = 400.5;
  member.weight = 0.75;
  result.stats.optimizer_members.push_back(member);
  return result;
}

std::vector<serve::Request> requests() {
  std::vector<serve::Request> out;
  serve::Request ping;
  ping.op = serve::RequestOp::kPing;
  ping.id = "p1";
  out.push_back(ping);

  serve::Request stats;
  stats.op = serve::RequestOp::kStats;
  stats.tenant = "ops";
  stats.id = "s1";
  out.push_back(stats);

  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    serve::Request eval;
    eval.op = serve::RequestOp::kEval;
    eval.tenant = "alice";
    eval.id = "r" + std::to_string(i);
    eval.point = kPoints[i];
    eval.deadline_tool_seconds = i == 1 ? 120.5 : 0.0;
    out.push_back(eval);
  }

  serve::Request campaign;
  campaign.op = serve::RequestOp::kCampaign;
  campaign.tenant = "bob";
  campaign.id = "c1";
  campaign.campaign.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200, 8)});
  campaign.campaign.space.params.push_back(
      {"WIDTH", core::ParamDomain::values({8, 16, 32})});
  campaign.campaign.space.params.push_back({"WAYS", core::ParamDomain::power_of_two(1, 8)});
  campaign.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  campaign.campaign.budget = 40;
  campaign.campaign.optimizer = "portfolio";
  campaign.campaign.population = 12;
  campaign.campaign.seed = 11;
  out.push_back(campaign);
  return out;
}

std::vector<serve::Response> responses() {
  std::vector<serve::Response> out;
  serve::Response eval;
  eval.status = serve::ResponseStatus::kOk;
  eval.id = "r1";
  eval.metrics = kMetrics[1];
  eval.tool_seconds = 312.25;
  eval.attempts = 2;
  out.push_back(eval);

  serve::Response hit;
  hit.status = serve::ResponseStatus::kOk;
  hit.id = "r2";
  hit.metrics = kMetrics[0];
  hit.cache_hit = true;
  hit.store_hit = true;
  out.push_back(hit);

  serve::Response campaign;
  campaign.status = serve::ResponseStatus::kOk;
  campaign.id = "c1";
  for (std::size_t i = 0; i < 2; ++i) campaign.front.push_back({kPoints[i], kMetrics[i]});
  campaign.evaluations = 40;
  out.push_back(campaign);

  serve::Response stats;
  stats.status = serve::ResponseStatus::kOk;
  stats.id = "s1";
  stats.stats_json = R"({"tenants":[{"name":"alice","inflight":2}],"uptime_s":1.5})";
  out.push_back(stats);

  serve::Response failed;
  failed.status = serve::ResponseStatus::kFailed;
  failed.id = "r3";
  failed.error = "over-utilization: 120% LUT";
  failed.tool_seconds = 90.5;
  failed.attempts = 1;
  out.push_back(failed);

  serve::Response shed;
  shed.status = serve::ResponseStatus::kShed;
  shed.id = "r4";
  shed.retry_after_ms = 1500;
  shed.reason = "tool_quota";
  out.push_back(shed);

  serve::Response draining;
  draining.status = serve::ResponseStatus::kDraining;
  draining.id = "r5";
  out.push_back(draining);

  serve::Response error;
  error.status = serve::ResponseStatus::kError;
  error.error = "unknown op 'frobnicate'";
  out.push_back(error);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: formats [--json FILE]\n");
      return 2;
    }
  }
  const std::string scratch =
      json_path != nullptr
          ? std::string(json_path)
          : (std::filesystem::temp_directory_path() / "dovado_formats").string();

  std::string text;
  auto section = [&](const std::string& name, const std::string& body) {
    text += "# " + name + "\n" + body;
    if (body.empty() || body.back() != '\n') text += "\n";
  };
  for (const auto& record : store_records()) {
    section("store payload", store::encode_payload(record));
  }
  section("journal file", journal_file(scratch + ".journal"));
  section("session file", core::session_to_json(explored_points()));
  section("to_json", core::to_json(dse_result()));
  section("db export", db_export(scratch + ".dvstore"));
  for (const auto& request : requests()) {
    section("serve request", serve::serialize_request(request));
  }
  for (const auto& response : responses()) {
    section("serve response", serve::serialize_response(response));
  }

  std::FILE* out = json_path != nullptr ? std::fopen(json_path, "w") : stdout;
  if (out == nullptr || std::fputs(text.c_str(), out) < 0 ||
      (out != stdout && std::fclose(out) != 0)) {
    std::fprintf(stderr, "formats: cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
