// Reference copies of the record decoders that util/json.hpp's shared codec
// replaced: the store payload, journal (eval, inflight, health, header),
// session file and serve protocol decoders, each as it read records before
// the integer rule. The differential test (codec_differential_test.cpp)
// compares the live decoders against these.
//
// The copies are verbatim except for their integer casts. The originals
// cast an out-of-range double straight to an integer type, which is
// undefined behaviour; here every such cast goes through legacy_cast, which
// equals static_cast in range and returns the type's minimum outside it (what
// x86 gives for the signed types). The differential test never compares
// those values: the live decoders reject every such input.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dse.hpp"
#include "src/core/journal.hpp"
#include "src/serve/protocol.hpp"
#include "src/store/format.hpp"

namespace dovado::reference {

[[nodiscard]] std::optional<store::StoreRecord> decode_payload(std::string_view payload);

[[nodiscard]] std::optional<core::JournalRecord> journal_record_from_json(
    const std::string& line);
[[nodiscard]] std::optional<core::InflightMark> inflight_record_from_json(
    const std::string& line);
[[nodiscard]] std::optional<core::HealthEvent> health_event_from_json(const std::string& line);
/// The version a journal header line carries; nullopt when the line is not
/// a readable header (replay then treats it as torn or corrupt).
[[nodiscard]] std::optional<int> journal_header_version(const std::string& line);

[[nodiscard]] std::optional<std::vector<core::ExploredPoint>> session_from_json(
    const std::string& text);

[[nodiscard]] bool parse_request(const std::string& line, serve::Request& out,
                                 std::string& error);
[[nodiscard]] bool parse_response(const std::string& line, serve::Response& out,
                                  std::string& error);

}  // namespace dovado::reference
