// Differential test of the record decoders built on util/json.hpp's shared
// codec against the reference copies of the decoders it replaced
// (reference_decoders.hpp).
//
// A seeded corpus of valid lines — store payloads, journal eval, inflight,
// health and header lines, session files, serve requests and responses, all
// written by the live encoders — is mutated with byte stomps, insertions and
// deletions over the characters JSON decides on, with number tokens swapped
// for edge values (fractions, 1e30, 2^53 + 1, negatives, int overflows), and
// with scalars swapped for another type or an empty string. Each mutant runs
// through both decoders. They must accept and
// reject the same lines and return equal records, with one exception: a line
// in which an integer field breaks the integer rule (integral, |v| < 2^53,
// within the field's type) may be accepted by the reference and must then be
// rejected, or read differently, by the live decoder.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/core/journal.hpp"
#include "src/core/session.hpp"
#include "src/serve/protocol.hpp"
#include "src/store/format.hpp"
#include "src/util/json.hpp"
#include "tests/codec/reference_decoders.hpp"

namespace dovado {
namespace {

// --- the integer class -----------------------------------------------------

constexpr double kTwo53 = 9007199254740992.0;
constexpr double kIntMin = std::numeric_limits<int>::min();
constexpr double kIntMax = std::numeric_limits<int>::max();

/// Integer fields by key, with the range the field's type admits.
const std::map<std::string, std::pair<double, double>>& integer_fields() {
  static const std::map<std::string, std::pair<double, double>> fields = {
      {"timestamp", {-kTwo53, kTwo53}},   {"attempts", {kIntMin, kIntMax}},
      {"version", {kIntMin, kIntMax}},    {"window_failures", {0, kTwo53}},
      {"window_size", {0, kTwo53}},       {"lo", {-kTwo53, kTwo53}},
      {"hi", {-kTwo53, kTwo53}},          {"step", {-kTwo53, kTwo53}},
      {"budget", {-kTwo53, kTwo53}},      {"population", {-kTwo53, kTwo53}},
      {"seed", {0, kTwo53}},              {"retry_after_ms", {-kTwo53, kTwo53}},
      {"evaluations", {0, kTwo53}},
  };
  return fields;
}

/// A number that is not an integer of magnitude below 2^53 within [lo, hi].
/// Written out here rather than calling util::exact_integer, the code under
/// test.
bool breaks_rule(const util::Json& v, double lo = -kTwo53, double hi = kTwo53) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  const bool integer = std::trunc(d) == d && std::fabs(d) < kTwo53;
  return !integer || d < lo || d > hi;
}

/// True when some integer field anywhere in `json` breaks the rule: a
/// design-point value (under "params" or "point"), a domain value (under
/// "values"), or one of integer_fields().
bool has_bad_integer(const util::Json& json) {
  if (json.is_array()) {
    for (const auto& item : json.as_array()) {
      if (has_bad_integer(item)) return true;
    }
    return false;
  }
  if (!json.is_object()) return false;
  for (const auto& [key, value] : json.as_object()) {
    if ((key == "params" || key == "point") && value.is_object()) {
      for (const auto& [name, v] : value.as_object()) {
        if (breaks_rule(v)) return true;
      }
    }
    if (key == "values" && value.is_array()) {
      for (const auto& v : value.as_array()) {
        if (breaks_rule(v)) return true;
      }
    }
    if (const auto it = integer_fields().find(key);
        it != integer_fields().end() && breaks_rule(value, it->second.first, it->second.second)) {
      return true;
    }
    if (has_bad_integer(value)) return true;
  }
  return false;
}

bool line_has_bad_integer(const std::string& line) {
  util::Json json;
  return util::Json::parse(line, json) && has_bad_integer(json);
}

// --- the mutation corpus ---------------------------------------------------

constexpr std::string_view kAlphabet = "0123456789.eE+-,:{}[]\"tfnul aZ\\";
const std::vector<std::string> kEdgeNumbers = {
    "16.7",  "1e30", "-1e30", "9007199254740993", "9007199254740992", "-9007199254740991",
    "0.5",   "-1",   "0",     "3",                "2147483648",       "-2147483649",
    "1e2",   "4.0",  "1e-300", "-0",              "18446744073709551616"};

/// Values a scalar token may be swapped for: another type, or an empty one.
const std::vector<std::string> kEdgeValues = {"\"\"", "\"x\"", "null", "true", "false",
                                              "[]",   "{}",    "0",    "-2"};

/// Byte ranges of the scalar tokens in `line`: numbers, or (with `strings`)
/// string values of object members, quotes included.
std::vector<std::pair<std::size_t, std::size_t>> tokens_of(const std::string& line,
                                                           bool strings) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::size_t end = i + 1;
    if (line[i] == '"') {
      while (end < line.size() && (line[end] != '"' || line[end - 1] == '\\')) ++end;
      if (end == line.size()) break;
      if (strings && i > 0 && line[i - 1] == ':') tokens.emplace_back(i, end + 1 - i);
      i = end;
      continue;
    }
    if (strings || !(line[i] == '-' || (line[i] >= '0' && line[i] <= '9'))) continue;
    while (end < line.size() &&
           std::string_view("0123456789.eE+-").find(line[end]) != std::string_view::npos) {
      ++end;
    }
    tokens.emplace_back(i, end - i);
    i = end - 1;
  }
  return tokens;
}

/// One or two edits: a byte stomp, deletion or insertion, a number swapped
/// for an edge number, or a scalar swapped for another type.
std::string mutate(const std::string& line, std::mt19937& rng) {
  std::string out = line;
  const int edits = 1 + static_cast<int>(rng() % 2);
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng() % out.size();
    const char c = kAlphabet[rng() % kAlphabet.size()];
    const unsigned kind = rng() % 6;
    switch (kind) {
      case 0: out[pos] = c; break;
      case 1: out.erase(pos, 1); break;
      case 2: out.insert(pos, 1, c); break;
      default: {
        const bool strings = kind == 5 && rng() % 2 == 0;
        const auto tokens = tokens_of(out, strings);
        if (tokens.empty()) break;
        const auto [start, length] = tokens[rng() % tokens.size()];
        const auto& pool = kind == 5 ? kEdgeValues : kEdgeNumbers;
        out.replace(start, length, pool[rng() % pool.size()]);
      }
    }
  }
  return out;
}

enum class Outcome { kBothReject, kBothAcceptEqual, kIntegerClass, kMismatch };

/// Compare one mutant: `reference` and `live` decode it (true = accepted,
/// with the decoded record rendered into the string).
using Decode = std::function<bool(const std::string&, std::string&)>;

Outcome compare(const std::string& line, const Decode& reference, const Decode& live) {
  std::string old_record;
  std::string new_record;
  const bool old_ok = reference(line, old_record);
  const bool new_ok = live(line, new_record);
  if (!old_ok && !new_ok) return Outcome::kBothReject;
  if (old_ok && new_ok && old_record == new_record) return Outcome::kBothAcceptEqual;
  // The live decoder never accepts what the reference rejected; any other
  // disagreement must be explained by a broken integer field.
  if (old_ok && line_has_bad_integer(line)) return Outcome::kIntegerClass;
  return Outcome::kMismatch;
}

/// Run `mutants` seeded mutants of every corpus line through both decoders.
void run_corpus(const char* name, const std::vector<std::string>& corpus,
                const Decode& reference, const Decode& live, std::uint32_t seed,
                int mutants = 1500) {
  std::mt19937 rng(seed);
  std::map<Outcome, int> counts;
  for (const auto& line : corpus) {
    // Every valid line decodes the same on both sides.
    ASSERT_EQ(compare(line, reference, live), Outcome::kBothAcceptEqual) << name << ": " << line;
    for (int m = 0; m < mutants; ++m) {
      const std::string mutant = mutate(line, rng);
      const Outcome outcome = compare(mutant, reference, live);
      ++counts[outcome];
      EXPECT_NE(outcome, Outcome::kMismatch) << name << " mutant: " << mutant;
    }
  }
  // The corpus reaches all three agreeing outcomes, so a pass means
  // something.
  EXPECT_GT(counts[Outcome::kBothReject], 0) << name;
  EXPECT_GT(counts[Outcome::kBothAcceptEqual], 0) << name;
  EXPECT_GT(counts[Outcome::kIntegerClass], 0) << name;
}

// --- corpora ---------------------------------------------------------------

std::vector<core::DesignPoint> points() {
  return {{{"DEPTH", 16}},
          {{"DEPTH", 256}, {"WIDTH", 32}},
          {{"A", -7}, {"B", 0}, {"C", 4503599627370496}}};
}

std::vector<std::string> store_corpus() {
  std::vector<std::string> corpus;
  for (const auto& point : points()) {
    store::StoreRecord record;
    record.params = point;
    record.backend = "vivado-sim";
    record.tier = point.size() == 2 ? "screen" : "hifi";
    record.campaign = point.size() == 1 ? "c1" : "";
    record.metrics = {{"lut", 120.0}, {"fmax_mhz", 412.5}};
    record.ok = point.size() != 3;
    record.failure = record.ok ? "none" : "deterministic";
    record.approximate = point.size() == 3;
    record.tool_seconds = 60.25;
    record.timestamp = 1700000000;
    corpus.push_back(store::encode_payload(record));
  }
  return corpus;
}

std::vector<std::string> eval_corpus() {
  std::vector<std::string> corpus;
  for (const auto& point : points()) {
    core::JournalRecord record;
    record.params = point;
    record.metrics.values = {{"lut", 120.0}, {"ff", 3.5}};
    record.ok = point.size() == 1;
    if (!record.ok) {
      record.error = "crash";
      record.failure = core::FailureClass::kTransient;
      record.attempts = 3;
    }
    record.tool_seconds = 187.75;
    corpus.push_back(core::journal_record_to_json(record));
  }
  return corpus;
}

std::string render(const core::HealthEvent& e) { return core::health_event_to_json(e); }
std::string render(const core::InflightMark& m) {
  return core::inflight_record_to_json(m.params, m.optimizer);
}
std::string render(const core::JournalRecord& r) { return core::journal_record_to_json(r); }
std::string render(const store::StoreRecord& r) { return store::encode_payload(r); }

/// A decoder returning std::optional<T>, as a Decode.
template <typename T>
Decode optional_decoder(std::function<std::optional<T>(const std::string&)> decode) {
  return [decode](const std::string& line, std::string& record) {
    const auto decoded = decode(line);
    if (decoded) record = render(*decoded);
    return decoded.has_value();
  };
}

std::string render(const serve::Response& r) {
  std::string out = serve::response_status_name(r.status) + "|" + r.id + "|" +
                    util::encode_metrics(r.metrics).dump() + "|" +
                    std::to_string(r.tool_seconds) + "|" + std::to_string(r.cache_hit) +
                    std::to_string(r.store_hit) + "|" + std::to_string(r.attempts) + "|" +
                    r.error + "|" + std::to_string(r.retry_after_ms) + "|" + r.reason + "|" +
                    std::to_string(r.evaluations) + "|" + r.stats_json;
  for (const auto& entry : r.front) {
    out += "|" + util::encode_point(entry.point).dump() +
           util::encode_metrics(entry.objectives).dump();
  }
  return out;
}

std::string render(const serve::Request& r) {
  return serve::request_op_name(r.op) + "|" + r.tenant + "|" + r.id + "|" +
         serve::serialize_request(r);
}

TEST(CodecDifferential, StorePayloads) {
  run_corpus("store", store_corpus(),
             optional_decoder<store::StoreRecord>(
                 [](const std::string& l) { return reference::decode_payload(l); }),
             optional_decoder<store::StoreRecord>(
                 [](const std::string& l) { return store::decode_payload(l); }),
             0xC0DE01);
}

TEST(CodecDifferential, JournalEvalLines) {
  run_corpus("eval", eval_corpus(),
             optional_decoder<core::JournalRecord>(reference::journal_record_from_json),
             optional_decoder<core::JournalRecord>(core::journal_record_from_json), 0xC0DE02);
}

TEST(CodecDifferential, JournalInflightLines) {
  std::vector<std::string> corpus;
  for (const auto& point : points()) {
    corpus.push_back(core::inflight_record_to_json(point, point.size() == 2 ? "nsga2" : ""));
  }
  run_corpus("inflight", corpus,
             optional_decoder<core::InflightMark>(reference::inflight_record_from_json),
             optional_decoder<core::InflightMark>(core::inflight_record_from_json), 0xC0DE03);
}

TEST(CodecDifferential, JournalHealthLines) {
  core::HealthEvent trip;
  trip.backend = "vivado-sim";
  trip.kind = core::HealthEventKind::kTrip;
  trip.cause = "license";
  trip.window_failures = 5;
  trip.window_size = 8;
  core::HealthEvent recover;
  recover.backend = "vivado-sim";
  recover.kind = core::HealthEventKind::kRecover;
  run_corpus("health", {core::health_event_to_json(trip), core::health_event_to_json(recover)},
             optional_decoder<core::HealthEvent>(reference::health_event_from_json),
             optional_decoder<core::HealthEvent>(core::health_event_from_json), 0xC0DE04);
}

// The header is read inside SessionJournal::open, so the live side replays
// a two-line journal: the mutated header, then an intact eval record.
TEST(CodecDifferential, JournalHeaderLines) {
  const std::string path = ::testing::TempDir() + "/codec_header.jsonl";
  const std::string eval_line = eval_corpus().front();
  const Decode reference = [](const std::string& line, std::string& record) {
    const auto version = reference::journal_header_version(line);
    if (!version || *version > core::kJournalVersion) return false;
    record = std::to_string(*version);
    return true;
  };
  const Decode live = [&](const std::string& line, std::string& record) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << line << "\n" << eval_line << "\n";
    }
    core::SessionJournal::Replay replay;
    std::string error;
    auto journal = core::SessionJournal::open(path, &replay, error);
    if (!journal) return false;
    record = std::to_string(replay.version);
    return true;
  };
  // A line that parses as an object of another kind is not a header: both
  // sides pass it over alike.
  const auto headers_only = [](const Decode& decode) -> Decode {
    return [decode](const std::string& line, std::string& record) {
      util::Json json;
      std::string kind;
      if (util::Json::parse(line, json) && json.is_object() &&
          (!util::read_string(json.as_object(), "kind", kind) || kind != "header")) {
        record = "other kind";
        return true;
      }
      return decode(line, record);
    };
  };
  run_corpus("header", {R"({"kind":"header","version":3})", R"({"kind":"header","version":1})"},
             headers_only(reference), headers_only(live), 0xC0DE05, 150);
  std::remove(path.c_str());
}

TEST(CodecDifferential, SessionFiles) {
  std::vector<core::ExploredPoint> explored;
  for (const auto& point : points()) {
    core::ExploredPoint p;
    p.params = point;
    p.metrics.values = {{"lut", 120.0}, {"fmax_mhz", 0.10000000000000001}};
    p.estimated = point.size() == 2;
    p.failed = point.size() == 3;
    explored.push_back(std::move(p));
  }
  const auto decode = [](auto from_json) {
    return [from_json](const std::string& line, std::string& record) {
      const auto decoded = from_json(line);
      if (decoded) record = core::session_to_json(*decoded, 0);
      return decoded.has_value();
    };
  };
  run_corpus("session",
             {core::session_to_json(explored, 0),
              core::session_to_json(
                  std::vector<core::ExploredPoint>(explored.begin(), explored.begin() + 1), 0)},
             decode(reference::session_from_json), decode(core::session_from_json), 0xC0DE06);
}

TEST(CodecDifferential, ServeRequests) {
  std::vector<std::string> corpus;
  for (const auto& point : points()) {
    serve::Request eval;
    eval.op = serve::RequestOp::kEval;
    eval.tenant = "alice";
    eval.id = "r1";
    eval.point = point;
    eval.deadline_tool_seconds = point.size() == 2 ? 120.5 : 0.0;
    corpus.push_back(serve::serialize_request(eval));
  }
  serve::Request campaign;
  campaign.op = serve::RequestOp::kCampaign;
  campaign.tenant = "bob";
  campaign.id = "c1";
  campaign.campaign.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200, 8)});
  campaign.campaign.space.params.push_back({"WIDTH", core::ParamDomain::values({8, 16, 32})});
  campaign.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  campaign.campaign.budget = 40;
  campaign.campaign.population = 12;
  campaign.campaign.seed = 11;
  corpus.push_back(serve::serialize_request(campaign));

  const auto decode = [](auto parse) {
    return [parse](const std::string& line, std::string& record) {
      serve::Request request;
      std::string error;
      if (!parse(line, request, error)) return false;
      record = render(request);
      return true;
    };
  };
  run_corpus("request", corpus, decode(reference::parse_request), decode(serve::parse_request),
             0xC0DE07);
}

TEST(CodecDifferential, ServeResponses) {
  std::vector<std::string> corpus;
  serve::Response eval;
  eval.status = serve::ResponseStatus::kOk;
  eval.id = "r1";
  eval.metrics = {{"lut", 120.0}, {"fmax_mhz", 412.5}};
  eval.tool_seconds = 312.25;
  eval.attempts = 2;
  corpus.push_back(serve::serialize_response(eval));
  serve::Response front;
  front.status = serve::ResponseStatus::kOk;
  front.id = "c1";
  for (const auto& point : points()) front.front.push_back({point, {{"lut", 120.0}}});
  front.evaluations = 40;
  corpus.push_back(serve::serialize_response(front));
  serve::Response shed;
  shed.status = serve::ResponseStatus::kShed;
  shed.id = "r2";
  shed.retry_after_ms = 1500;
  shed.reason = "tool_quota";
  corpus.push_back(serve::serialize_response(shed));
  serve::Response failed;
  failed.status = serve::ResponseStatus::kFailed;
  failed.id = "r3";
  failed.error = "crash";
  failed.attempts = 4;
  corpus.push_back(serve::serialize_response(failed));

  const auto decode = [](auto parse) {
    return [parse](const std::string& line, std::string& record) {
      serve::Response response;
      std::string error;
      if (!parse(line, response, error)) return false;
      record = render(response);
      return true;
    };
  };
  run_corpus("response", corpus, decode(reference::parse_response),
             decode(serve::parse_response), 0xC0DE08);
}

}  // namespace
}  // namespace dovado
