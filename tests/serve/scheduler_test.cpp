// Deficit round-robin fairness, deterministically: weighted dispatch
// shares, bounded-queue shedding, expected/actual cost reconciliation and
// the debt clamp that keeps a mis-estimated tenant schedulable.
#include "src/serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/serve/admission.hpp"

namespace dovado::serve {
namespace {

using Sched = DrrScheduler<int>;

TEST(Scheduler, RoundRobinWithEqualWeightsAlternates) {
  Sched sched;
  sched.set_tenant("a", 1.0, 16);
  sched.set_tenant("b", 1.0, 16);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.push("a", i));
    ASSERT_TRUE(sched.push("b", i));
  }

  std::map<std::string, int> dispatched;
  while (auto next = sched.pop()) {
    ++dispatched[next->first];
    sched.charge(next->first, 1.0);
  }
  EXPECT_EQ(dispatched["a"], 4);
  EXPECT_EQ(dispatched["b"], 4);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, WeightsSkewTheDispatchShare) {
  // Heavy (weight 10) vs light (weight 1), both with deep backlogs and
  // equal per-job costs: over one window the heavy tenant must get ~10x
  // the dispatches, and the light tenant must still progress.
  Sched sched;
  sched.set_tenant("heavy", 10.0, 256);
  sched.set_tenant("light", 1.0, 256);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(sched.push("heavy", i));
    ASSERT_TRUE(sched.push("light", i));
  }

  std::map<std::string, int> dispatched;
  for (int i = 0; i < 110; ++i) {
    auto next = sched.pop();
    ASSERT_TRUE(next.has_value());
    ++dispatched[next->first];
    sched.charge(next->first, 1.0);  // equal actual costs
  }
  EXPECT_GT(dispatched["light"], 0) << "weighted DRR must not starve anyone";
  EXPECT_GE(dispatched["heavy"], 8 * dispatched["light"]);
  EXPECT_LE(dispatched["heavy"], 12 * dispatched["light"]);
}

TEST(Scheduler, ExpensiveJobsShrinkATenantsShare) {
  // Same weights, but tenant "pricey" burns 10 tool-seconds per job vs 1
  // for "cheap": fair share is by tool-seconds, so "cheap" should complete
  // roughly 10x the jobs over a long window.
  Sched sched;
  sched.set_tenant("pricey", 1.0, 512);
  sched.set_tenant("cheap", 1.0, 512);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(sched.push("pricey", i));
    ASSERT_TRUE(sched.push("cheap", i));
  }

  std::map<std::string, int> dispatched;
  for (int i = 0; i < 220; ++i) {
    auto next = sched.pop();
    ASSERT_TRUE(next.has_value());
    ++dispatched[next->first];
    sched.charge(next->first, next->first == "pricey" ? 10.0 : 1.0);
  }
  EXPECT_GT(dispatched["pricey"], 0);
  EXPECT_GE(dispatched["cheap"], 5 * dispatched["pricey"]);
}

TEST(Scheduler, BoundedQueueShedsInsteadOfBuffering) {
  Sched sched;
  sched.set_tenant("a", 1.0, /*queue_cap=*/2);
  EXPECT_TRUE(sched.push("a", 1));
  EXPECT_TRUE(sched.push("a", 2));
  EXPECT_FALSE(sched.push("a", 3));
  EXPECT_EQ(sched.queued_for("a"), 2u);
  EXPECT_EQ(sched.stats().at("a").shed_queue_full, 1u);

  // Popping frees a slot.
  ASSERT_TRUE(sched.pop().has_value());
  EXPECT_TRUE(sched.push("a", 3));
}

TEST(Scheduler, UnknownTenantsGetTheDefaults) {
  Sched sched;
  const TenantPolicy defaults;
  for (std::size_t i = 0; i < defaults.queue_cap; ++i) {
    EXPECT_TRUE(sched.push("stranger", static_cast<int>(i)));
  }
  EXPECT_TRUE(sched.full("stranger"));
  EXPECT_FALSE(sched.push("stranger", -1));  // default cap
  EXPECT_DOUBLE_EQ(sched.stats().at("stranger").weight, defaults.weight);
}

TEST(Scheduler, ChargeReconciliationRecoversFromOneWildJob) {
  // A job that runs 1000x its expectation puts the tenant in debt, but the
  // clamp (kDebtRounds) bounds how long it is skipped: with a competitor
  // present, the indebted tenant must dispatch again within a bounded
  // number of pops rather than starving forever.
  Sched sched;
  sched.set_tenant("wild", 1.0, 64);
  sched.set_tenant("steady", 1.0, 64);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(sched.push("wild", i));
    ASSERT_TRUE(sched.push("steady", i));
  }

  auto first = sched.pop();
  ASSERT_TRUE(first.has_value());
  // Whoever popped first, make "wild"'s first completed job wildly over
  // its expected cost.
  if (first->first != "wild") {
    sched.charge(first->first, 1.0);
    first = sched.pop();
    ASSERT_TRUE(first.has_value());
  }
  ASSERT_EQ(first->first, "wild");
  sched.charge("wild", 1000.0);

  int pops_until_wild = 0;
  bool wild_dispatched = false;
  for (int i = 0; i < 60 && !wild_dispatched; ++i) {
    auto next = sched.pop();
    ASSERT_TRUE(next.has_value());
    ++pops_until_wild;
    wild_dispatched = next->first == "wild";
    sched.charge(next->first, next->first == "wild" ? 1.0 : 1.0);
  }
  EXPECT_TRUE(wild_dispatched)
      << "debt clamp failed: tenant starved after one mis-estimated job";
}

TEST(Scheduler, EmptiedQueueForfeitsItsDeficit) {
  Sched sched;
  sched.set_tenant("a", 5.0, 16);
  sched.set_tenant("b", 1.0, 16);
  ASSERT_TRUE(sched.push("a", 1));
  ASSERT_TRUE(sched.push("b", 1));
  while (auto next = sched.pop()) sched.charge(next->first, 1.0);

  // "a" drained; any banked deficit must be gone so a later burst from "b"
  // is not starved by hoarded credit.
  EXPECT_DOUBLE_EQ(sched.stats().at("a").deficit, 0.0);
}

TEST(Scheduler, DrainAllReturnsEverythingQueued) {
  Sched sched;
  sched.set_tenant("a", 1.0, 16);
  sched.set_tenant("b", 1.0, 16);
  ASSERT_TRUE(sched.push("a", 1));
  ASSERT_TRUE(sched.push("a", 2));
  ASSERT_TRUE(sched.push("b", 3));

  const auto drained = sched.drain_all();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.queued_for("a"), 0u);
  EXPECT_FALSE(sched.pop().has_value());
}

TEST(Scheduler, ExpectedCostTracksActualsAsAnEwma) {
  Sched sched;
  sched.set_tenant("a", 1.0, 16);
  ASSERT_TRUE(sched.push("a", 1));
  ASSERT_TRUE(sched.pop().has_value());
  sched.charge("a", 60.0);
  // First real charge seeds the EWMA outright.
  EXPECT_DOUBLE_EQ(sched.stats().at("a").expected_cost, 60.0);

  ASSERT_TRUE(sched.push("a", 2));
  ASSERT_TRUE(sched.pop().has_value());
  sched.charge("a", 10.0);
  // 0.7 * 60 + 0.3 * 10 = 45.
  EXPECT_NEAR(sched.stats().at("a").expected_cost, 45.0, 1e-9);
  EXPECT_DOUBLE_EQ(sched.stats().at("a").consumed_tool_seconds, 70.0);
}

TEST(Scheduler, ZeroCostChargesReconcileWithoutPoisoningTheEwma) {
  // Cache hits are charged 0 tool-seconds: they must repay the expectation
  // deducted at dispatch but not drag the EWMA toward zero.
  Sched sched;
  sched.set_tenant("a", 1.0, 16);
  ASSERT_TRUE(sched.push("a", 1));
  ASSERT_TRUE(sched.pop().has_value());
  sched.charge("a", 50.0);
  const double seeded = sched.stats().at("a").expected_cost;

  ASSERT_TRUE(sched.push("a", 2));
  ASSERT_TRUE(sched.pop().has_value());
  sched.charge("a", 0.0);
  EXPECT_DOUBLE_EQ(sched.stats().at("a").expected_cost, seeded);
}

}  // namespace
}  // namespace dovado::serve
