#include "src/core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/fs.hpp"
#include "src/util/json.hpp"

namespace dovado::core {

namespace {

std::optional<FailureClass> failure_class_from_name(const std::string& name) {
  if (name == "none") return FailureClass::kNone;
  if (name == "transient") return FailureClass::kTransient;
  if (name == "deterministic") return FailureClass::kDeterministic;
  if (name == "timeout") return FailureClass::kTimeout;
  return std::nullopt;
}

std::string header_line() {
  util::JsonObject obj;
  obj["kind"] = util::Json(std::string("header"));
  obj["version"] = util::Json(kJournalVersion);
  return util::Json(std::move(obj)).dump();
}

/// Parse one line as a JSON object; null on malformed input.
std::optional<util::JsonObject> parse_object(const std::string& line) {
  util::Json parsed;
  if (!util::Json::parse(line, parsed) || !parsed.is_object()) return std::nullopt;
  return std::move(parsed.as_object());
}

/// The record's design point: required, non-empty, every value an integer.
bool read_params(const util::JsonObject& obj, DesignPoint& out) {
  const util::Json* params = util::find_field(obj, "params");
  return params != nullptr && util::decode_point(*params, out) && !out.empty();
}

std::optional<JournalRecord> eval_from_object(const util::JsonObject& obj) {
  JournalRecord record;
  if (!read_params(obj, record.params) || !util::read_bool(obj, "ok", record.ok)) {
    return std::nullopt;
  }
  if (const util::Json* metrics = util::find_field(obj, "metrics");
      metrics != nullptr && metrics->is_object() &&
      !util::decode_metrics(*metrics, record.metrics.values)) {
    return std::nullopt;
  }
  (void)util::read_string(obj, "error", record.error);
  if (std::string name; util::read_string(obj, "failure", name)) {
    auto cls = failure_class_from_name(name);
    if (!cls) return std::nullopt;
    record.failure = *cls;
  }
  if (util::read_integer(obj, "attempts", record.attempts) == util::IntField::kBad) {
    return std::nullopt;
  }
  (void)util::read_bool(obj, "quarantined", record.quarantined);
  (void)util::read_number(obj, "tool_seconds", record.tool_seconds);
  return record;
}

std::optional<InflightMark> inflight_from_object(const util::JsonObject& obj) {
  InflightMark mark;
  if (!read_params(obj, mark.params)) return std::nullopt;
  (void)util::read_string(obj, "optimizer", mark.optimizer);
  return mark;
}

std::optional<HealthEvent> health_from_object(const util::JsonObject& obj) {
  HealthEvent event;
  std::string kind_name;
  if (!util::read_string(obj, "backend", event.backend) ||
      !util::read_string(obj, "event", kind_name)) {
    return std::nullopt;
  }
  const auto kind = health_event_kind_from_name(kind_name);
  if (!kind) return std::nullopt;
  event.kind = *kind;
  (void)util::read_string(obj, "cause", event.cause);
  if (util::read_integer(obj, "window_failures", event.window_failures) ==
          util::IntField::kBad ||
      util::read_integer(obj, "window_size", event.window_size) == util::IntField::kBad) {
    return std::nullopt;
  }
  return event;
}

}  // namespace

std::string journal_record_to_json(const JournalRecord& record) {
  util::JsonObject obj;
  obj["kind"] = util::Json(std::string("eval"));
  obj["params"] = util::encode_point(record.params);
  obj["metrics"] = util::encode_metrics(record.metrics.values);
  obj["ok"] = util::Json(record.ok);
  if (!record.error.empty()) obj["error"] = util::Json(record.error);
  obj["failure"] = util::Json(failure_class_name(record.failure));
  obj["attempts"] = util::Json(record.attempts);
  obj["quarantined"] = util::Json(record.quarantined);
  obj["tool_seconds"] = util::Json(record.tool_seconds);
  return util::Json(std::move(obj)).dump();
}

std::optional<JournalRecord> journal_record_from_json(const std::string& line) {
  const auto obj = parse_object(line);
  return obj ? eval_from_object(*obj) : std::nullopt;
}

std::string inflight_record_to_json(const DesignPoint& point,
                                    const std::string& optimizer) {
  util::JsonObject obj;
  obj["kind"] = util::Json(std::string("inflight"));
  obj["params"] = util::encode_point(point);
  if (!optimizer.empty()) obj["optimizer"] = util::Json(optimizer);
  return util::Json(std::move(obj)).dump();
}

std::optional<InflightMark> inflight_record_from_json(const std::string& line) {
  const auto obj = parse_object(line);
  return obj ? inflight_from_object(*obj) : std::nullopt;
}

std::string health_event_to_json(const HealthEvent& event) {
  util::JsonObject obj;
  obj["kind"] = util::Json(std::string("health"));
  obj["backend"] = util::Json(event.backend);
  obj["event"] = util::Json(std::string(health_event_kind_name(event.kind)));
  if (!event.cause.empty()) obj["cause"] = util::Json(event.cause);
  obj["window_failures"] = util::Json(event.window_failures);
  obj["window_size"] = util::Json(event.window_size);
  return util::Json(std::move(obj)).dump();
}

std::optional<HealthEvent> health_event_from_json(const std::string& line) {
  const auto obj = parse_object(line);
  return obj ? health_from_object(*obj) : std::nullopt;
}

std::unique_ptr<SessionJournal> SessionJournal::open(const std::string& path,
                                                     Replay* replay, std::string& error) {
  std::size_t keep_bytes = 0;
  std::vector<InflightMark> inflight_marks;
  if (replay != nullptr) {
    *replay = Replay{};
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string text = buffer.str();
      std::size_t pos = 0;
      while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool has_newline = nl != std::string::npos;
        const std::string line =
            text.substr(pos, has_newline ? nl - pos : std::string::npos);
        const std::size_t next = has_newline ? nl + 1 : text.size();
        if (line.empty()) {
          pos = next;
          continue;
        }
        // Dispatch on the record kind. Parse failures — unreadable JSON or
        // a malformed record of a known kind — follow the torn-tail rule:
        // only a *tail* may be torn (the writer died mid-append); a bad
        // line with intact content after it is a damaged file.
        bool parsed_ok = false;
        if (const auto obj = parse_object(line)) {
          std::string kind;
          (void)util::read_string(*obj, "kind", kind);
          if (kind == "header") {
            if (util::read_integer(*obj, "version", replay->version) == util::IntField::kOk) {
              if (replay->version > kJournalVersion) {
                error = "journal '" + path + "' was written by a newer dovado (format version " +
                        std::to_string(replay->version) + "; this build reads up to " +
                        std::to_string(kJournalVersion) + ")";
                return nullptr;
              }
              parsed_ok = true;
            }
          } else if (kind == "health") {
            if (auto event = health_from_object(*obj)) {
              replay->health_events.push_back(std::move(*event));
              parsed_ok = true;
            }
          } else if (kind == "inflight") {
            if (auto mark = inflight_from_object(*obj)) {
              inflight_marks.push_back(std::move(*mark));
              parsed_ok = true;
            }
          } else if (kind == "eval" || kind.empty()) {
            // No "kind" = a legacy version-1 eval record.
            if (auto record = eval_from_object(*obj)) {
              replay->records.push_back(std::move(*record));
              parsed_ok = true;
            }
          } else {
            // Unknown kind within a readable version: skip tolerantly so a
            // newer dovado may add record kinds without breaking resume.
            ++replay->skipped_records;
            parsed_ok = true;
          }
        }
        if (!parsed_ok) {
          if (text.find_first_not_of(" \t\r\n", next) != std::string::npos) {
            error = "journal '" + path + "' is corrupt (damaged record mid-file)";
            return nullptr;
          }
          replay->torn_tail = true;
          break;
        }
        keep_bytes = next;
        pos = next;
      }
    }
    // An inflight mark is superseded by an eval record for the same point
    // anywhere in the file (a completed point is cached and never re-run
    // fresh, so position does not matter). What survives is work the
    // crashed campaign submitted but never got an answer for.
    for (auto& mark : inflight_marks) {
      const bool superseded =
          std::any_of(replay->records.begin(), replay->records.end(),
                      [&](const JournalRecord& rec) { return rec.params == mark.params; });
      const bool duplicate =
          std::any_of(replay->inflight.begin(), replay->inflight.end(),
                      [&](const InflightMark& m) { return m.params == mark.params; });
      if (!superseded && !duplicate) replay->inflight.push_back(std::move(mark));
    }
  }

  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  if (replay == nullptr) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    error = "cannot open journal '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  if (replay != nullptr) {
    // Drop the torn tail so appended records follow the intact prefix.
    if (::ftruncate(fd, static_cast<off_t>(keep_bytes)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
      error = "cannot recover journal '" + path + "': " + std::strerror(errno);
      ::close(fd);
      return nullptr;
    }
  }
  auto journal = std::unique_ptr<SessionJournal>(new SessionJournal(fd, path));
  // A fresh (or recovered-to-empty) journal starts with the version header.
  if (replay == nullptr || keep_bytes == 0) {
    if (!journal->append_line(header_line() + "\n")) {
      error = "cannot write journal header to '" + path + "': " + std::strerror(errno);
      return nullptr;
    }
  }
  // append_line fsyncs every frame, but the *directory entry* for a newly
  // created journal is not durable until the parent directory is synced —
  // a machine crash right after campaign start could otherwise lose the
  // whole file, not just the tail.
  (void)util::fsync_parent_dir(path);
  return journal;
}

SessionJournal::~SessionJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool SessionJournal::append_line(const std::string& line) {
  util::MutexLock lock(mutex_);
  if (fd_ < 0) return false;
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  // The record only counts once it is durable: a crash right after append()
  // returns must find it on disk.
  return ::fsync(fd_) == 0;
}

bool SessionJournal::append(const JournalRecord& record) {
  return append_line(journal_record_to_json(record) + "\n");
}

bool SessionJournal::append_event(const HealthEvent& event) {
  return append_line(health_event_to_json(event) + "\n");
}

bool SessionJournal::append_inflight(const DesignPoint& point,
                                     const std::string& optimizer) {
  return append_line(inflight_record_to_json(point, optimizer) + "\n");
}

}  // namespace dovado::core
