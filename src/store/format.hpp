// On-disk format of the cross-campaign evaluation store.
//
// The store is a log-structured append-only file (DESIGN.md "Evaluation
// store & warm start"): an 8-byte file header followed by framed records,
//   [u32 sync marker][u32 payload length][u32 CRC32C(payload)][payload]
// little-endian, payload = one JSON object. The frame buys three things the
// journal's bare JSONL cannot: a length prefix (no reliance on newline
// framing, payloads may contain anything), a checksum (bit rot is detected,
// not parsed), and a sync marker (after a corrupt region the reader can
// resynchronize on the next frame instead of losing the rest of the file).
//
// Recovery rule, mirroring the journal's torn-tail discipline: a corrupt
// region with an intact record *after* it is quarantined (skipped and
// counted, never served); a corrupt region that runs to end-of-file is a
// torn tail (the writer died mid-append) and is truncated on the next
// writer open. A reader never aborts on corruption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/param_domain.hpp"
#include "src/util/json.hpp"

namespace dovado::store {

/// File header: identifies the store format (and its version — bump the
/// trailing digit on incompatible changes).
inline constexpr char kStoreMagic[8] = {'D', 'V', 'S', 'T', 'O', 'R', '0', '1'};

/// Per-record sync marker. Chosen to never occur in JSON payload text
/// (every byte is > 0x7f), so a resynchronization scan cannot lock onto
/// payload bytes of an intact record.
inline constexpr std::uint32_t kRecordMarker = 0xD0FAB4CEu;

/// Frame = marker + payload length + CRC32C, each 4 bytes little-endian.
inline constexpr std::size_t kFrameBytes = 12;

/// Sanity bound on one record's payload; anything larger is treated as a
/// corrupt length field (a real record is a few hundred bytes).
inline constexpr std::uint32_t kMaxPayloadBytes = 16u * 1024 * 1024;

/// CRC32C (Castagnoli polynomial, as used by iSCSI/ext4), software
/// table-driven. Known answer: crc32c("123456789") == 0xE3069283.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t size,
                                   std::uint32_t seed = 0);

/// Content-addressed design hash: a stable 64-bit key over the sorted
/// (name, value) pairs of a design point. Byte-wise (no std::hash), so the
/// value is identical across builds and platforms — it is persisted.
[[nodiscard]] std::uint64_t design_key(const core::DesignPoint& point);

/// One persisted evaluation. `tier` is the fidelity tier the answer was
/// produced at ("hifi" or "screen"); lookups are keyed by (design hash,
/// backend, tier) so a cheap screen estimate can never be served as a
/// high-fidelity answer.
struct StoreRecord {
  core::DesignPoint params;
  std::string backend;   ///< backend name, e.g. "vivado-sim"
  std::string tier;      ///< fidelity tier: "hifi" or "screen"
  std::string campaign;  ///< campaign id of the producing run (may be empty)
  util::FlatMap<double> metrics;
  bool ok = false;
  std::string failure = "none";  ///< FailureClass name for failed runs
  bool approximate = false;      ///< degraded/hedged answer, flagged on append
  bool quarantined = false;      ///< producer exhausted its retries
  double tool_seconds = 0.0;
  std::int64_t timestamp = 0;    ///< unix seconds at append
};

/// Lookup key of a record; ordering enables std::map indexing.
struct StoreKey {
  std::uint64_t design_hash = 0;
  std::string backend;
  std::string tier;

  [[nodiscard]] bool operator<(const StoreKey& other) const {
    if (design_hash != other.design_hash) return design_hash < other.design_hash;
    if (backend != other.backend) return backend < other.backend;
    return tier < other.tier;
  }
  [[nodiscard]] bool operator==(const StoreKey& other) const {
    return design_hash == other.design_hash && backend == other.backend &&
           tier == other.tier;
  }
};

[[nodiscard]] StoreKey key_of(const StoreRecord& record);

/// A record as JSON: the store payload and each `dovado db export` record.
[[nodiscard]] util::Json record_to_json(const StoreRecord& record);

/// Serialize one record payload (JSON, no frame).
[[nodiscard]] std::string encode_payload(const StoreRecord& record);

/// Parse one payload back; nullopt on malformed or incomplete JSON,
/// including a parameter or timestamp that breaks the integer rule
/// (util/json.hpp).
[[nodiscard]] std::optional<StoreRecord> decode_payload(std::string_view payload);

/// Frame a payload: marker + length + CRC32C + payload bytes.
[[nodiscard]] std::string frame_payload(std::string_view payload);

/// Outcome of scanning a store image.
struct ScanStats {
  std::size_t records = 0;           ///< intact records surfaced
  std::size_t quarantined = 0;       ///< corrupt regions skipped mid-file
  bool torn_tail = false;            ///< trailing corrupt/incomplete region
  std::size_t keep_bytes = 0;        ///< prefix length up to the last intact record
  bool header_ok = false;            ///< file began with the store magic
};

/// Scan a whole store image, invoking `on_record` for every intact record
/// in file order. Corruption never aborts the scan: a damaged region is
/// skipped by resynchronizing on the next record marker with a valid
/// checksum (counted in `quarantined` when intact content follows, flagged
/// `torn_tail` when the damage runs to end-of-file). `keep_bytes` is the
/// byte count of the longest intact prefix — the writer truncates to it.
[[nodiscard]] ScanStats scan_store(std::string_view data,
                                   const std::function<void(StoreRecord&&)>& on_record);

}  // namespace dovado::store
