// Wire-protocol round trips: every request/response shape survives
// serialize -> parse, and malformed frames fail with a diagnostic instead
// of a crash (the reader thread feeds untrusted bytes straight in here).
#include "src/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dovado::serve {
namespace {

TEST(Protocol, EvalRequestRoundTrip) {
  Request request;
  request.op = RequestOp::kEval;
  request.tenant = "alice";
  request.id = "r7";
  request.point = {{"DEPTH", 32}, {"WIDTH", 8}};
  request.deadline_tool_seconds = 120.5;

  Request parsed;
  std::string error;
  ASSERT_TRUE(parse_request(serialize_request(request), parsed, error)) << error;
  EXPECT_EQ(parsed.op, RequestOp::kEval);
  EXPECT_EQ(parsed.tenant, "alice");
  EXPECT_EQ(parsed.id, "r7");
  EXPECT_EQ(parsed.point, request.point);
  EXPECT_DOUBLE_EQ(parsed.deadline_tool_seconds, 120.5);
}

TEST(Protocol, CampaignRequestRoundTrip) {
  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "bob";
  request.id = "c1";
  request.campaign.space.params.push_back(
      {"DEPTH", core::ParamDomain::range(8, 200)});
  request.campaign.space.params.push_back(
      {"WIDTH", core::ParamDomain::values({8, 16, 32})});
  request.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  request.campaign.budget = 40;
  request.campaign.optimizer = "random";
  request.campaign.population = 12;
  request.campaign.seed = 99;

  Request parsed;
  std::string error;
  ASSERT_TRUE(parse_request(serialize_request(request), parsed, error)) << error;
  EXPECT_EQ(parsed.op, RequestOp::kCampaign);
  ASSERT_EQ(parsed.campaign.space.params.size(), 2u);
  EXPECT_EQ(parsed.campaign.space.params[0].name, "DEPTH");
  EXPECT_EQ(parsed.campaign.space.params[1].domain.size(), 3);
  ASSERT_EQ(parsed.campaign.objectives.size(), 2u);
  EXPECT_EQ(parsed.campaign.objectives[0].metric, "lut");
  EXPECT_FALSE(parsed.campaign.objectives[0].maximize);
  EXPECT_TRUE(parsed.campaign.objectives[1].maximize);
  EXPECT_EQ(parsed.campaign.budget, 40u);
  EXPECT_EQ(parsed.campaign.optimizer, "random");
  EXPECT_EQ(parsed.campaign.population, 12u);
  EXPECT_EQ(parsed.campaign.seed, 99u);
}

TEST(Protocol, PingAndStatsRoundTrip) {
  for (const RequestOp op : {RequestOp::kPing, RequestOp::kStats}) {
    Request request;
    request.op = op;
    request.id = "x";
    Request parsed;
    std::string error;
    ASSERT_TRUE(parse_request(serialize_request(request), parsed, error)) << error;
    EXPECT_EQ(parsed.op, op);
    EXPECT_EQ(parsed.id, "x");
  }
}

TEST(Protocol, OkEvalResponseRoundTrip) {
  Response response;
  response.status = ResponseStatus::kOk;
  response.id = "r7";
  response.metrics = {{"lut", 123.0}, {"fmax_mhz", 402.5}};
  response.tool_seconds = 60.7;
  response.cache_hit = true;
  response.store_hit = false;
  response.attempts = 2;

  Response parsed;
  std::string error;
  ASSERT_TRUE(parse_response(serialize_response(response), parsed, error)) << error;
  EXPECT_EQ(parsed.status, ResponseStatus::kOk);
  EXPECT_EQ(parsed.id, "r7");
  EXPECT_EQ(parsed.metrics, response.metrics);
  EXPECT_DOUBLE_EQ(parsed.tool_seconds, 60.7);
  EXPECT_TRUE(parsed.cache_hit);
  EXPECT_FALSE(parsed.store_hit);
  EXPECT_EQ(parsed.attempts, 2);
}

TEST(Protocol, ShedResponseCarriesRetryHint) {
  Response response;
  response.status = ResponseStatus::kShed;
  response.id = "r9";
  response.reason = "tool_quota";
  response.retry_after_ms = 750;

  Response parsed;
  std::string error;
  ASSERT_TRUE(parse_response(serialize_response(response), parsed, error)) << error;
  EXPECT_EQ(parsed.status, ResponseStatus::kShed);
  EXPECT_EQ(parsed.reason, "tool_quota");
  EXPECT_EQ(parsed.retry_after_ms, 750);
}

TEST(Protocol, CampaignFrontRoundTrip) {
  Response response;
  response.status = ResponseStatus::kOk;
  response.id = "c1";
  response.evaluations = 40;
  response.tool_seconds = 1234.5;
  FrontEntry entry;
  entry.point = {{"DEPTH", 16}};
  entry.objectives = {{"lut", 90.0}, {"fmax_mhz", 410.0}};
  response.front.push_back(entry);

  Response parsed;
  std::string error;
  ASSERT_TRUE(parse_response(serialize_response(response), parsed, error)) << error;
  ASSERT_EQ(parsed.front.size(), 1u);
  EXPECT_EQ(parsed.front[0].point, entry.point);
  EXPECT_EQ(parsed.front[0].objectives, entry.objectives);
  EXPECT_EQ(parsed.evaluations, 40u);
}

TEST(Protocol, FailedAndErrorResponsesCarryTheirDiagnostic) {
  for (const ResponseStatus status :
       {ResponseStatus::kFailed, ResponseStatus::kError}) {
    Response response;
    response.status = status;
    response.id = "z";
    response.error = "synthesis crashed";
    Response parsed;
    std::string error;
    ASSERT_TRUE(parse_response(serialize_response(response), parsed, error)) << error;
    EXPECT_EQ(parsed.status, status);
    EXPECT_EQ(parsed.error, "synthesis crashed");
  }
  // Draining is a bare status: nothing but the id travels.
  Response draining;
  draining.status = ResponseStatus::kDraining;
  draining.id = "z";
  Response parsed;
  std::string error;
  ASSERT_TRUE(parse_response(serialize_response(draining), parsed, error)) << error;
  EXPECT_EQ(parsed.status, ResponseStatus::kDraining);
  EXPECT_EQ(parsed.id, "z");
}

TEST(Protocol, MalformedFramesAreRejectedWithDiagnostics) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request("not json", request, error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(parse_request("[1,2,3]", request, error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(parse_request(R"({"op":"warp","id":"x"})", request, error));
  EXPECT_FALSE(error.empty());

  Response response;
  error.clear();
  EXPECT_FALSE(parse_response(R"({"status":"meh","id":"x"})", response, error));
  EXPECT_FALSE(error.empty());
}

TEST(Protocol, EvalRequestRequiresAPoint) {
  Request request;
  std::string error;
  EXPECT_FALSE(
      parse_request(R"({"op":"eval","tenant":"a","id":"x"})", request, error));
  EXPECT_FALSE(error.empty());
}

TEST(Protocol, CampaignRequestValidatesSpaceShape) {
  // A range with lo > hi must be rejected at parse time, not crash later.
  Request request;
  std::string error;
  const std::string frame =
      R"({"op":"campaign","tenant":"a","id":"c","budget":4,)"
      R"("space":[{"name":"D","kind":"range","lo":9,"hi":2}],)"
      R"("objectives":[{"metric":"lut"}]})";
  EXPECT_FALSE(parse_request(frame, request, error));
  EXPECT_FALSE(error.empty());
}

// The integer rule (util/json.hpp) on every integer field of the wire
// protocol: a value that is not an integer of magnitude below 2^53, or does
// not fit the field's type, fails the frame with a diagnostic (the daemon
// answers `error`) instead of being rounded.
TEST(Protocol, NonIntegralOrOutOfRangeIntegersAreErrors) {
  const auto eval = [](const std::string& depth) {
    return R"({"op":"eval","tenant":"a","id":"x","point":{"DEPTH":)" + depth + "}}";
  };
  const auto campaign = [](const std::string& range, const std::string& values,
                           const std::string& tail) {
    return R"({"op":"campaign","tenant":"a","id":"c","objectives":[{"metric":"lut"}],)"
           R"("space":[{"name":"D","kind":"range",)" + range +
           R"(},{"name":"W","kind":"values","values":[8,)" + values + "]}]," + tail + "}";
  };
  const std::string range = R"("lo":8,"hi":64,"step":8)";
  const std::string tail = R"("budget":4,"population":8,"seed":3)";
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(eval("16"), request, error)) << error;
  ASSERT_TRUE(parse_request(campaign(range, "16", tail), request, error)) << error;
  EXPECT_EQ(request.campaign.seed, 3u);

  for (const std::string bad : {"16.7", "1e30", "-1e30", "9007199254740993"}) {
    error.clear();
    EXPECT_FALSE(parse_request(eval(bad), request, error)) << bad;
    EXPECT_NE(error.find("DEPTH"), std::string::npos) << bad << ": " << error;
    for (const std::string& frame :
         {campaign(R"("lo":)" + bad + R"(,"hi":64,"step":8)", "16", tail),
          campaign(R"("lo":8,"hi":)" + bad + R"(,"step":8)", "16", tail),
          campaign(R"("lo":8,"hi":64,"step":)" + bad, "16", tail),
          campaign(range, bad, tail),
          campaign(range, "16", R"("budget":)" + bad + R"(,"population":8,"seed":3)"),
          campaign(range, "16", R"("budget":4,"population":)" + bad + R"(,"seed":3)"),
          campaign(range, "16", R"("budget":4,"population":8,"seed":)" + bad)}) {
      error.clear();
      EXPECT_FALSE(parse_request(frame, request, error)) << frame;
      EXPECT_FALSE(error.empty()) << frame;
    }
    Response response;
    for (const std::string& frame :
         {R"({"status":"ok","id":"x","attempts":)" + bad + "}",
          R"({"status":"shed","id":"x","retry_after_ms":)" + bad + "}",
          R"({"status":"ok","id":"x","front":[],"evaluations":)" + bad + "}"}) {
      error.clear();
      EXPECT_FALSE(parse_response(frame, response, error)) << frame;
      EXPECT_FALSE(error.empty()) << frame;
    }
  }
  // In the rule's range but not the field's type: a negative seed.
  EXPECT_FALSE(parse_request(campaign(range, "16", R"("budget":4,"seed":-1)"), request, error));
}

}  // namespace
}  // namespace dovado::serve
