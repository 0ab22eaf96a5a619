#include "src/core/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/core/writers.hpp"

namespace dovado::core {
namespace {

std::vector<ExploredPoint> sample_points() {
  std::vector<ExploredPoint> points(3);
  points[0].params = {{"DEPTH", 16}};
  points[0].metrics.values = {{"lut", 180}, {"fmax_mhz", 470.5}};
  points[1].params = {{"DEPTH", 64}};
  points[1].metrics.values = {{"lut", 713}, {"fmax_mhz", 399.7}};
  points[1].estimated = true;
  points[2].params = {{"DEPTH", 4096}};
  points[2].failed = true;
  return points;
}

ProjectConfig fifo_project() {
  ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70t";
  config.target_period_ns = 1.0;
  return config;
}

DseConfig fifo_dse() {
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(8, 200)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 10;
  config.ga.max_generations = 5;
  config.ga.seed = 3;
  return config;
}

TEST(Session, JsonRoundTrip) {
  const auto original = sample_points();
  const std::string text = session_to_json(original);
  const auto restored = session_from_json(text);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 3u);
  EXPECT_EQ((*restored)[0].params, original[0].params);
  EXPECT_EQ((*restored)[0].metrics.values, original[0].metrics.values);
  EXPECT_TRUE((*restored)[1].estimated);
  EXPECT_TRUE((*restored)[2].failed);
}

TEST(Session, AcceptsFullResultJson) {
  // to_json's output embeds the same "explored" array.
  DseResult result;
  result.explored = sample_points();
  const auto restored = session_from_json(to_json(result));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 3u);
}

TEST(Session, RejectsMalformed) {
  EXPECT_FALSE(session_from_json("not json").has_value());
  EXPECT_FALSE(session_from_json("{}").has_value());
  EXPECT_FALSE(session_from_json(R"({"explored": 3})").has_value());
  EXPECT_FALSE(session_from_json(R"({"explored": [{"params": 5}]})").has_value());
  EXPECT_FALSE(
      session_from_json(R"({"explored": [{"params": {"A": "x"}, "metrics": {}}]})")
          .has_value());
}

// The integer rule (util/json.hpp): a parameter that is not an integer of
// magnitude below 2^53 makes the session file corrupt.
TEST(Session, RejectsNonIntegralOrOutOfRangeParams) {
  const auto session = [](const std::string& depth) {
    return R"({"explored":[{"metrics":{"lut":1},"params":{"DEPTH":)" + depth + "}}]}";
  };
  ASSERT_TRUE(session_from_json(session("16")).has_value());
  for (const std::string bad : {"16.7", "1e30", "-1e30", "9007199254740993"}) {
    EXPECT_FALSE(session_from_json(session(bad)).has_value()) << bad;
  }
  const std::string path = ::testing::TempDir() + "/session_bad_param.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << session("16.7");
  }
  EXPECT_EQ(load_session_ex(path).status, SessionLoadStatus::kCorrupt);
  std::remove(path.c_str());
}

TEST(Session, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/dovado_session_test.json";
  ASSERT_TRUE(save_session(path, sample_points()));
  const auto restored = load_session(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 3u);
  std::remove(path.c_str());
  EXPECT_FALSE(load_session(path).has_value());  // gone
  EXPECT_FALSE(load_session("/no/such/dir/file.json").has_value());
}

TEST(Session, WarmStartAvoidsRepayingToolRuns) {
  // First run pays for everything.
  DseEngine first(fifo_project(), fifo_dse());
  const DseResult first_result = first.run();
  ASSERT_GT(first_result.stats.tool_runs, 0u);

  // Second run warm-started with the first run's explored set: its initial
  // population is seeded with the previous front, every known point hits
  // the cache, and only genuinely new configurations pay for tool runs.
  DseConfig resumed = fifo_dse();
  resumed.warm_start = first_result.explored;
  DseEngine second(fifo_project(), resumed);
  const DseResult second_result = second.run();
  EXPECT_GT(second_result.stats.cache_hits, 0u);
  EXPECT_LT(second_result.stats.tool_runs, first_result.stats.tool_runs);

  // Elitism from the seeded front: the resumed front is never worse — no
  // point of the first front dominates any point of the resumed front.
  for (const auto& old_point : first_result.pareto) {
    for (const auto& new_point : second_result.pareto) {
      EXPECT_FALSE(opt::dominates(second.to_objectives(old_point.metrics),
                                  second.to_objectives(new_point.metrics)));
    }
  }
}

TEST(Session, WarmStartSeedsInitialPopulationWithFront) {
  DseEngine first(fifo_project(), fifo_dse());
  const DseResult first_result = first.run();

  // With a zero-generation resumed run the final population is exactly the
  // (evaluated) initial one, so the previous front members must be in it.
  DseConfig resumed = fifo_dse();
  resumed.ga.max_generations = 0;
  resumed.warm_start = first_result.explored;
  DseEngine second(fifo_project(), resumed);
  const DseResult second_result = second.run();
  for (const auto& old_front_point : first_result.pareto) {
    bool present = false;
    for (const auto& p : second_result.pareto) {
      present |= (p.params == old_front_point.params);
    }
    EXPECT_TRUE(present);
  }
  // The only tool runs are the random fill of the initial population.
  EXPECT_LE(second_result.stats.tool_runs, resumed.ga.population_size);
}

TEST(Session, WarmStartSeedsApproximationDataset) {
  DseEngine first(fifo_project(), fifo_dse());
  const DseResult first_result = first.run();

  DseConfig resumed = fifo_dse();
  resumed.use_approximation = true;
  resumed.pretrain_samples = 15;
  resumed.warm_start = first_result.explored;
  DseEngine second(fifo_project(), resumed);
  ASSERT_NE(second.control_model(), nullptr);
  // Dataset seeded from the session before any pretraining run.
  EXPECT_GE(second.control_model()->dataset().size(),
            std::min<std::size_t>(first_result.explored.size(), 15));
  const DseResult second_result = second.run();
  // Pretraining budget already satisfied by the session.
  EXPECT_EQ(second_result.stats.pretrain_runs, 0u);
}

TEST(Session, WarmStartSeedsEachDatasetCoordinateOnce) {
  // Two session points that differ only in a parameter outside the current
  // space project onto the same dataset coordinates: the first one becomes
  // the sample, the second must not add a duplicate.
  std::vector<ExploredPoint> warm(2);
  warm[0].params = {{"DEPTH", 16}, {"DATA_WIDTH", 8}};
  warm[0].metrics.values = {{"lut", 120.0}, {"fmax_mhz", 480.0}};
  warm[1].params = {{"DEPTH", 16}, {"DATA_WIDTH", 32}};
  warm[1].metrics.values = {{"lut", 180.0}, {"fmax_mhz", 470.5}};

  DseConfig config = fifo_dse();
  config.use_approximation = true;
  config.warm_start = warm;
  DseEngine engine(fifo_project(), config);
  ASSERT_NE(engine.control_model(), nullptr);
  const model::Dataset& dataset = engine.control_model()->dataset();
  ASSERT_EQ(dataset.size(), 1u);
  EXPECT_EQ(dataset.points()[0], (model::Point{16.0}));
  EXPECT_EQ(dataset.values()[0], (model::Values{120.0, 480.0}));
}

TEST(Session, EstimatedPointsDoNotSeedState) {
  std::vector<ExploredPoint> warm;
  ExploredPoint est;
  est.params = {{"DEPTH", 50}};
  est.metrics.values = {{"lut", 1.0}, {"fmax_mhz", 9999.0}};  // bogus estimate
  est.estimated = true;
  warm.push_back(est);

  DseConfig config = fifo_dse();
  config.warm_start = warm;
  DseEngine engine(fifo_project(), config);
  const auto points = engine.evaluate_set({{{"DEPTH", 50}}});
  ASSERT_EQ(points.size(), 1u);
  // The bogus estimated metrics were not cached: the tool re-evaluated.
  EXPECT_LT(points[0].metrics.get("fmax_mhz"), 1000.0);
  EXPECT_GT(points[0].metrics.get("lut"), 100.0);
}

TEST(Session, FailedPointsStayFailed) {
  std::vector<ExploredPoint> warm;
  ExploredPoint failed;
  failed.params = {{"DEPTH", 60}};
  failed.failed = true;
  warm.push_back(failed);

  DseConfig config = fifo_dse();
  config.warm_start = warm;
  DseEngine engine(fifo_project(), config);
  const auto points = engine.evaluate_set({{{"DEPTH", 60}}});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].failed);  // the cached failure is honoured
}

}  // namespace
}  // namespace dovado::core
