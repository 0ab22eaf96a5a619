// Wire protocol of the `dovado serve` daemon.
//
// Newline-delimited JSON over a local stream socket: every frame is one
// JSON object, one request per frame, exactly one response per request
// (carrying the request's `id` back). A connection is a sequential
// request/response channel — the client sends a frame, then reads frames
// until the response with its id arrives (the server never pushes
// unsolicited frames, so in practice the next frame *is* the response).
//
// Requests:
//   {"op":"eval","tenant":"alice","id":"r1","point":{"DEPTH":16},
//    "deadline_tool_seconds":120}            (deadline optional)
//   {"op":"campaign","tenant":"alice","id":"c1",
//    "space":[{"name":"DEPTH","kind":"range","lo":8,"hi":200,"step":1},
//             {"name":"WIDTH","kind":"values","values":[8,16,32]}],
//    "objectives":[{"metric":"lut"},{"metric":"fmax_mhz","maximize":true}],
//    "budget":40,"optimizer":"nsga2","population":16,"seed":11}
//   {"op":"stats","id":"s1"}   {"op":"ping","id":"p1"}
//
// Responses, by status:
//   ok        eval answer (metrics, tool_seconds, flags), campaign front,
//             stats payload, or pong
//   failed    the evaluation ran and failed (error, failure class)
//   shed      load-shedding: NOT enqueued; retry_after_ms says when to come
//             back, reason says which limit fired (request_rate, tool_quota,
//             queue_full, backend_unavailable, deadline)
//   draining  the daemon is shutting down and admits nothing new
//   error     malformed or invalid request (message)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/dse.hpp"
#include "src/core/param_domain.hpp"

namespace dovado::serve {

enum class RequestOp { kEval, kCampaign, kStats, kPing };

/// A campaign submission: a self-contained search-space + objectives +
/// budget description (the serve-side equivalent of a DseConfig subset).
struct CampaignSpec {
  core::DesignSpace space;
  std::vector<core::Objective> objectives;
  std::size_t budget = 0;  ///< tool evaluations to spend (asks told back)
  std::string optimizer = "nsga2";
  std::size_t population = 16;
  std::uint64_t seed = 1;
};

struct Request {
  RequestOp op = RequestOp::kPing;
  std::string tenant;
  std::string id;
  core::DesignPoint point;               ///< kEval
  double deadline_tool_seconds = 0.0;    ///< kEval; 0 = server default
  CampaignSpec campaign;                 ///< kCampaign
};

enum class ResponseStatus { kOk, kFailed, kShed, kDraining, kError };

/// One member of a campaign's final non-dominated front. Objective values
/// are in the *metric's* direction (maximized metrics are not negated).
struct FrontEntry {
  core::DesignPoint point;
  util::FlatMap<double> objectives;
};

struct Response {
  ResponseStatus status = ResponseStatus::kError;
  std::string id;

  // kOk (eval) / kFailed
  util::FlatMap<double> metrics;
  double tool_seconds = 0.0;
  bool cache_hit = false;
  bool store_hit = false;
  int attempts = 0;
  std::string error;  ///< kFailed / kError detail

  // kShed
  std::int64_t retry_after_ms = 0;
  std::string reason;

  // kOk (campaign)
  std::vector<FrontEntry> front;
  std::size_t evaluations = 0;

  // kOk (stats): opaque JSON payload rendered by `dovado top`
  std::string stats_json;
};

[[nodiscard]] std::string request_op_name(RequestOp op);
[[nodiscard]] std::string response_status_name(ResponseStatus status);

/// Serialize to one wire frame (no trailing newline; the socket layer adds
/// the frame terminator).
[[nodiscard]] std::string serialize_request(const Request& request);
[[nodiscard]] std::string serialize_response(const Response& response);

/// Parse one wire frame. Returns false with `error` filled on malformed
/// JSON, unknown ops/statuses, or structurally invalid fields; `out` is
/// left in an unspecified state on failure.
[[nodiscard]] bool parse_request(const std::string& line, Request& out,
                                 std::string& error);
[[nodiscard]] bool parse_response(const std::string& line, Response& out,
                                  std::string& error);

}  // namespace dovado::serve
