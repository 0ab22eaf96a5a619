#include "src/store/format.hpp"

#include <array>
#include <cstring>

#include "src/util/rng.hpp"

namespace dovado::store {

namespace {

/// CRC32C lookup table (Castagnoli polynomial 0x1EDC6F41, reflected form
/// 0x82F63B78), built once on first use.
const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

std::uint32_t get_u32le(const char* p) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/// The marker's little-endian byte sequence, for resynchronization scans.
std::string_view marker_bytes() {
  static const std::string bytes = [] {
    std::string s;
    put_u32le(s, kRecordMarker);
    return s;
  }();
  return bytes;
}

/// Validate and decode the frame starting at `pos`. On success fills
/// `record` and `end` (offset just past the payload) and returns true.
bool try_frame(std::string_view data, std::size_t pos, StoreRecord& record,
               std::size_t& end) {
  if (pos + kFrameBytes > data.size()) return false;
  if (get_u32le(data.data() + pos) != kRecordMarker) return false;
  const std::uint32_t length = get_u32le(data.data() + pos + 4);
  const std::uint32_t expected_crc = get_u32le(data.data() + pos + 8);
  if (length > kMaxPayloadBytes) return false;
  if (pos + kFrameBytes + length > data.size()) return false;
  const std::string_view payload = data.substr(pos + kFrameBytes, length);
  if (crc32c(payload.data(), payload.size()) != expected_crc) return false;
  auto decoded = decode_payload(payload);
  if (!decoded) return false;
  record = std::move(*decoded);
  end = pos + kFrameBytes + length;
  return true;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& table = crc32c_table();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t design_key(const core::DesignPoint& point) {
  // Byte-wise over the sorted (name, value) pairs — deliberately avoids
  // std::hash, whose values are implementation-defined and must not leak
  // into a persistent format.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& [name, value] : point) {
    for (const char c : name) {
      h = util::hash_combine(h, static_cast<unsigned char>(c));
    }
    h = util::hash_combine(h, name.size());
    h = util::hash_combine(h, static_cast<std::uint64_t>(value));
  }
  return h;
}

StoreKey key_of(const StoreRecord& record) {
  return StoreKey{design_key(record.params), record.backend, record.tier};
}

util::Json record_to_json(const StoreRecord& record) {
  util::JsonObject obj;
  obj["params"] = util::encode_point(record.params);
  obj["backend"] = util::Json(record.backend);
  obj["tier"] = util::Json(record.tier);
  if (!record.campaign.empty()) obj["campaign"] = util::Json(record.campaign);
  obj["metrics"] = util::encode_metrics(record.metrics);
  obj["ok"] = util::Json(record.ok);
  if (record.failure != "none") obj["failure"] = util::Json(record.failure);
  if (record.approximate) obj["approximate"] = util::Json(true);
  if (record.quarantined) obj["quarantined"] = util::Json(true);
  obj["tool_seconds"] = util::Json(record.tool_seconds);
  obj["timestamp"] = util::Json(record.timestamp);
  return util::Json(std::move(obj));
}

std::string encode_payload(const StoreRecord& record) {
  return record_to_json(record).dump();
}

std::optional<StoreRecord> decode_payload(std::string_view payload) {
  util::Json parsed;
  if (!util::Json::parse(payload, parsed) || !parsed.is_object()) return std::nullopt;
  const auto& obj = parsed.as_object();
  StoreRecord record;
  const util::Json* params = util::find_field(obj, "params");
  if (params == nullptr || !util::decode_point(*params, record.params) ||
      record.params.empty() || !util::read_string(obj, "backend", record.backend) ||
      !util::read_string(obj, "tier", record.tier) || record.backend.empty() ||
      record.tier.empty()) {
    return std::nullopt;
  }
  (void)util::read_string(obj, "campaign", record.campaign);
  if (const util::Json* metrics = util::find_field(obj, "metrics");
      metrics != nullptr && metrics->is_object() &&
      !util::decode_metrics(*metrics, record.metrics)) {
    return std::nullopt;
  }
  (void)util::read_bool(obj, "ok", record.ok);
  (void)util::read_string(obj, "failure", record.failure);
  (void)util::read_bool(obj, "approximate", record.approximate);
  (void)util::read_bool(obj, "quarantined", record.quarantined);
  (void)util::read_number(obj, "tool_seconds", record.tool_seconds);
  if (util::read_integer(obj, "timestamp", record.timestamp) == util::IntField::kBad) {
    return std::nullopt;
  }
  return record;
}

std::string frame_payload(std::string_view payload) {
  std::string out;
  out.reserve(kFrameBytes + payload.size());
  put_u32le(out, kRecordMarker);
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, crc32c(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

ScanStats scan_store(std::string_view data,
                     const std::function<void(StoreRecord&&)>& on_record) {
  ScanStats stats;
  std::size_t pos = 0;
  if (data.size() >= sizeof(kStoreMagic) &&
      std::memcmp(data.data(), kStoreMagic, sizeof(kStoreMagic)) == 0) {
    stats.header_ok = true;
    pos = sizeof(kStoreMagic);
    stats.keep_bytes = pos;
  }
  // A missing/damaged header is itself a corrupt region: records recovered
  // after it count as preceded by damage.
  bool in_bad_region = !stats.header_ok && !data.empty();
  while (pos < data.size()) {
    StoreRecord record;
    std::size_t end = 0;
    if (try_frame(data, pos, record, end)) {
      if (in_bad_region) {
        ++stats.quarantined;
        in_bad_region = false;
      }
      ++stats.records;
      stats.keep_bytes = end;
      if (on_record) on_record(std::move(record));
      pos = end;
      continue;
    }
    // Damaged frame or payload: resynchronize on the next marker. Anything
    // skipped is one contiguous corrupt region.
    in_bad_region = true;
    const std::size_t next = data.find(marker_bytes(), pos + 1);
    if (next == std::string_view::npos) break;
    pos = next;
  }
  // Damage that runs to end-of-file is a torn tail (writer died
  // mid-append): recoverable by truncating to keep_bytes.
  if (in_bad_region) stats.torn_tail = true;
  return stats;
}

}  // namespace dovado::store
