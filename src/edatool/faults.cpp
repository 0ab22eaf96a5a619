#include "src/edatool/faults.hpp"

#include "src/util/json.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace dovado::edatool {

namespace {

// Distinct salts keep the per-point abort stream independent from the
// per-attempt transient stream (and both independent from SimVivado's own
// content-addressed noise).
constexpr std::uint64_t kAbortSalt = 0xab0a7ab0a7ab0a70ULL;
constexpr std::uint64_t kAttemptSalt = 0x7fa41e5e7fa41e50ULL;

[[nodiscard]] double unit_from_hash(std::uint64_t h) {
  // Top 53 bits -> [0, 1), matching util::Rng::uniform's mapping.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kCorruptReport: return "corrupt-report";
    case FaultKind::kPersistentAbort: return "persistent-abort";
  }
  return "unknown";
}

std::uint64_t fault_point_key(const util::FlatMap<std::int64_t>& point) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& [name, value] : point) {
    h = util::hash_combine(h, std::hash<std::string>{}(name));
    h = util::hash_combine(h, static_cast<std::uint64_t>(value));
  }
  return h;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec, std::string& error) {
  FaultPlan plan;
  if (util::trim(spec).empty()) return plan;  // empty spec = no faults
  for (const auto& item : util::split(spec, ',')) {
    const std::string_view entry = util::trim(item);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "fault-plan entry must be key=value: '" + std::string(entry) + "'";
      return std::nullopt;
    }
    const std::string key(util::trim(entry.substr(0, eq)));
    const std::string value(util::trim(entry.substr(eq + 1)));
    double num = 0.0;
    if (!util::parse_double(value, num)) {
      error = "fault-plan value for '" + key + "' is not a number: '" + value + "'";
      return std::nullopt;
    }
    // Seeds and attempt ordinals: integral, below 2^53 (util::exact_integer)
    // and non-negative. A plain cast of an out-of-range double is undefined.
    std::int64_t whole = 0;
    const bool is_count = util::exact_integer(num, whole) && whole >= 0;
    auto count = [&](std::uint64_t& field) {
      if (is_count) field = static_cast<std::uint64_t>(whole);
      else error = "fault-plan '" + key + "' must be a non-negative integer below 2^53";
      return is_count;
    };
    auto rate = [&](double& field) {
      if (num < 0.0 || num > 1.0) {
        error = "fault-plan rate '" + key + "' must be in [0,1]";
        return false;
      }
      field = num;
      return true;
    };
    if (key == "seed") {
      if (!count(plan.seed)) return std::nullopt;
    } else if (key == "crash") {
      if (!rate(plan.crash_rate)) return std::nullopt;
    } else if (key == "hang") {
      if (!rate(plan.hang_rate)) return std::nullopt;
    } else if (key == "corrupt") {
      if (!rate(plan.corrupt_rate)) return std::nullopt;
    } else if (key == "abort") {
      if (!rate(plan.abort_rate)) return std::nullopt;
    } else if (key == "hang_factor") {
      if (num < 1.0) {
        error = "fault-plan hang_factor must be >= 1";
        return std::nullopt;
      }
      plan.hang_factor = num;
    } else if (key == "outage_start") {
      if (!count(plan.outage_start)) return std::nullopt;
    } else if (key == "outage_len") {
      if (!count(plan.outage_len)) return std::nullopt;
    } else if (key == "flap_up") {
      if (!count(plan.flap_up)) return std::nullopt;
    } else if (key == "flap_down") {
      if (!count(plan.flap_down)) return std::nullopt;
    } else {
      error = "unknown fault-plan key '" + key + "'";
      return std::nullopt;
    }
  }
  if (plan.crash_rate + plan.hang_rate + plan.corrupt_rate > 1.0) {
    error = "fault-plan transient rates (crash+hang+corrupt) must sum to <= 1";
    return std::nullopt;
  }
  if ((plan.flap_up > 0) != (plan.flap_down > 0)) {
    error = "fault-plan flapping needs both flap_up and flap_down";
    return std::nullopt;
  }
  if (plan.outage_len > 0 && plan.outage_start == 0) {
    error = "fault-plan outage_len needs outage_start";
    return std::nullopt;
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string spec =
      util::format("seed=%llu,crash=%g,hang=%g,corrupt=%g,abort=%g,hang_factor=%g",
                   static_cast<unsigned long long>(seed), crash_rate, hang_rate,
                   corrupt_rate, abort_rate, hang_factor);
  // Sequence faults are emitted only when configured, so the canonical
  // spec of a plain stochastic plan is unchanged (round-trip stability).
  if (outage_start > 0) {
    spec += util::format(",outage_start=%llu,outage_len=%llu",
                         static_cast<unsigned long long>(outage_start),
                         static_cast<unsigned long long>(outage_len));
  }
  if (flap_up > 0 && flap_down > 0) {
    spec += util::format(",flap_up=%llu,flap_down=%llu",
                         static_cast<unsigned long long>(flap_up),
                         static_cast<unsigned long long>(flap_down));
  }
  return spec;
}

FaultInjector::Decision FaultInjector::decide(std::uint64_t point_key, int attempt) const {
  Decision decision;
  if (!plan_.active()) return decision;

  // Sequence faults first: the backend being down beats any per-point
  // decision. The ordinal only advances when sequence faults are
  // configured, keeping the stateless streams order-independent otherwise.
  if (plan_.sequence_faults()) {
    const std::uint64_t ordinal =
        attempt_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan_.outage_start > 0 && ordinal >= plan_.outage_start &&
        (plan_.outage_len == 0 || ordinal < plan_.outage_start + plan_.outage_len)) {
      ++crashes_;
      decision.kind = FaultKind::kCrash;
      return decision;
    }
    if (plan_.flap_up > 0 && plan_.flap_down > 0 &&
        (ordinal - 1) % (plan_.flap_up + plan_.flap_down) >= plan_.flap_up) {
      ++crashes_;
      decision.kind = FaultKind::kCrash;
      return decision;
    }
  }

  // Persistent aborts depend on the point alone: the same point aborts on
  // attempt 0, 1, 2, ... — modelling a design configuration that reliably
  // kills the tool.
  if (plan_.abort_rate > 0.0) {
    const double u = unit_from_hash(util::mix64(plan_.seed ^ kAbortSalt ^ point_key));
    if (u < plan_.abort_rate) {
      ++aborts_;
      decision.kind = FaultKind::kPersistentAbort;
      return decision;
    }
  }

  // Transient faults re-roll per attempt: a retry may succeed.
  std::uint64_t h = util::hash_combine(plan_.seed ^ kAttemptSalt, point_key);
  h = util::hash_combine(h, static_cast<std::uint64_t>(attempt));
  const double u = unit_from_hash(util::mix64(h));
  if (u < plan_.crash_rate) {
    ++crashes_;
    decision.kind = FaultKind::kCrash;
  } else if (u < plan_.crash_rate + plan_.hang_rate) {
    ++hangs_;
    decision.kind = FaultKind::kHang;
    decision.hang_factor = plan_.hang_factor;
  } else if (u < plan_.crash_rate + plan_.hang_rate + plan_.corrupt_rate) {
    ++corrupted_;
    decision.kind = FaultKind::kCorruptReport;
  }
  return decision;
}

FaultInjector::Counters FaultInjector::counters() const {
  Counters c;
  c.crashes = crashes_.load(std::memory_order_relaxed);
  c.hangs = hangs_.load(std::memory_order_relaxed);
  c.corrupted_reports = corrupted_.load(std::memory_order_relaxed);
  c.aborts = aborts_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace dovado::edatool
