// Admission control under a virtual clock: token-bucket refill math,
// request-rate shedding with honest retry hints, and the post-paid
// tool-second quota (overdraft, then shed until the refill pays it off).
#include "src/serve/admission.hpp"

#include <gtest/gtest.h>

namespace dovado::serve {
namespace {

TEST(TokenBucket, RefillsAtRateUpToBurst) {
  TokenBucket bucket(/*rate=*/2.0, /*burst=*/4.0, /*now=*/0.0);
  EXPECT_DOUBLE_EQ(bucket.level(0.0), 4.0);

  EXPECT_TRUE(bucket.try_take(4.0, 0.0));
  EXPECT_DOUBLE_EQ(bucket.level(0.0), 0.0);
  EXPECT_FALSE(bucket.try_take(1.0, 0.0));

  // 0.5 s at 2 tokens/s refills 1 token.
  EXPECT_TRUE(bucket.try_take(1.0, 0.5));
  // Level never exceeds burst no matter how long the bucket idles.
  EXPECT_DOUBLE_EQ(bucket.level(1000.0), 4.0);
}

TEST(TokenBucket, ChargeDrivesTheLevelNegative) {
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/2.0, /*now=*/0.0);
  bucket.charge(5.0, 0.0);
  EXPECT_DOUBLE_EQ(bucket.level(0.0), -3.0);
  // seconds_until reports the honest wait: 3 tokens of debt at 1/s.
  EXPECT_DOUBLE_EQ(bucket.seconds_until(0.0, 0.0), 3.0);
  // After the debt is repaid the level climbs normally again.
  EXPECT_DOUBLE_EQ(bucket.level(4.0), 1.0);
}

TEST(TokenBucket, SecondsUntilIsZeroWhenAlreadyThere) {
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/2.0, /*now=*/0.0);
  EXPECT_DOUBLE_EQ(bucket.seconds_until(1.0, 0.0), 0.0);
}

TEST(Admission, RequestRateShedsWithRetryHint) {
  TenantPolicy policy;
  policy.request_rate = 1.0;  // one admission per second, burst 1
  policy.request_burst = 1.0;
  AdmissionController admission;
  admission.set_policy("alice", policy, 0.0);

  AdmissionDecision first = admission.admit("alice", 0.0);
  EXPECT_TRUE(first.admitted);

  AdmissionDecision second = admission.admit("alice", 0.0);
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(second.reason, "request_rate");
  EXPECT_GT(second.retry_after_ms, 0);

  // Waiting the advertised time makes the next request admissible.
  const double retry_at = static_cast<double>(second.retry_after_ms) / 1000.0;
  EXPECT_TRUE(admission.admit("alice", retry_at).admitted);
}

TEST(Admission, ZeroRatesMeanUnlimited) {
  AdmissionController admission;  // unpinned tenants: all rates 0
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.admit("anyone", 0.0).admitted);
  }
}

TEST(Admission, ToolQuotaIsPostPaid) {
  TenantPolicy policy;
  policy.tool_seconds_rate = 10.0;   // 10 tool-seconds/second refill
  policy.tool_seconds_burst = 50.0;  // 50 tool-seconds of headroom
  AdmissionController admission;
  admission.set_policy("bob", policy, 0.0);

  // Admission only needs a non-negative quota level; the cost lands later.
  EXPECT_TRUE(admission.admit("bob", 0.0).admitted);
  admission.charge_tool_seconds("bob", 120.0, 0.0);  // overdraft: 50 - 120 = -70

  AdmissionDecision shed = admission.admit("bob", 0.0);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, "tool_quota");
  EXPECT_GT(shed.retry_after_ms, 0);

  // The refill rate pays the debt off: 70 tool-seconds at 10/s = 7 s.
  EXPECT_FALSE(admission.admit("bob", 6.9).admitted);
  EXPECT_TRUE(admission.admit("bob", 7.1).admitted);
}

TEST(Admission, TenantsAreIsolated) {
  TenantPolicy policy;
  policy.tool_seconds_rate = 1.0;
  policy.tool_seconds_burst = 1.0;
  AdmissionController admission;
  admission.set_policy("hog", policy, 0.0);
  admission.set_policy("frugal", policy, 0.0);

  admission.charge_tool_seconds("hog", 1000.0, 0.0);
  EXPECT_FALSE(admission.admit("hog", 0.0).admitted);
  // A different tenant's quota is untouched by the hog's overdraft.
  EXPECT_TRUE(admission.admit("frugal", 0.0).admitted);
}

TEST(Admission, PinnedPolicyOverridesTheDefault) {
  AdmissionController admission;  // unlimited default

  TenantPolicy strict;
  strict.request_rate = 1.0;
  strict.request_burst = 1.0;
  admission.set_policy("vip", strict, 0.0);

  EXPECT_TRUE(admission.admit("vip", 0.0).admitted);
  EXPECT_FALSE(admission.admit("vip", 0.0).admitted);
  EXPECT_TRUE(admission.admit("walk-in", 0.0).admitted);
  EXPECT_TRUE(admission.admit("walk-in", 0.0).admitted);

  EXPECT_DOUBLE_EQ(admission.policy("vip").request_rate, 1.0);
  EXPECT_DOUBLE_EQ(admission.policy("walk-in").request_rate, 0.0);
}

TEST(Admission, StatsCountEveryDecision) {
  TenantPolicy policy;
  policy.request_rate = 1.0;
  policy.request_burst = 1.0;
  AdmissionController admission;
  admission.set_policy("alice", policy, 0.0);

  EXPECT_TRUE(admission.admit("alice", 0.0).admitted);
  EXPECT_FALSE(admission.admit("alice", 0.0).admitted);
  admission.charge_tool_seconds("alice", 12.5, 0.0);

  const auto stats = admission.stats();
  ASSERT_TRUE(stats.count("alice"));
  EXPECT_EQ(stats.at("alice").admitted, 1u);
  EXPECT_EQ(stats.at("alice").shed_request_rate, 1u);
  EXPECT_EQ(stats.at("alice").shed_tool_quota, 0u);
  EXPECT_DOUBLE_EQ(stats.at("alice").tool_seconds_charged, 12.5);
}

}  // namespace
}  // namespace dovado::serve
