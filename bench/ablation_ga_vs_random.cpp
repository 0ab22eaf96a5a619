// Ablation: NSGA-II against random sampling at equal tool-call budgets.
//
// The paper motivates a genetic DSE because exhaustive evaluation is
// prohibitive; this bench quantifies the advantage over the naive random
// baseline on the Corundum queue-manager space with three objectives
// (LUTs, registers, frequency), comparing front quality against the
// exhaustive ground truth at matched numbers of tool evaluations.
//
// Usage: ablation_ga_vs_random [--json FILE]
//   --json FILE  also write the ground truth and every row to FILE (values
//                with %.17g), so a golden copy
//                (tests/golden/ablation_ga_vs_random.json) can be compared
//                exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/front_json.hpp"
#include "src/core/dse.hpp"
#include "src/opt/baselines.hpp"
#include "src/opt/indicators.hpp"

using namespace dovado;

namespace {

/// Shared adapter: decodes genomes and answers from one evaluator+cache.
class CqProblem final : public opt::Problem {
 public:
  explicit CqProblem(core::PointEvaluator& evaluator) : evaluator_(evaluator) {
    space_.params.push_back({"OP_TABLE_SIZE", core::ParamDomain::range(8, 35)});
    space_.params.push_back({"QUEUE_INDEX_WIDTH", core::ParamDomain::range(4, 7)});
    space_.params.push_back({"PIPELINE", core::ParamDomain::range(2, 5)});
  }
  [[nodiscard]] std::size_t n_vars() const override { return space_.size(); }
  [[nodiscard]] std::size_t n_objectives() const override { return 3; }
  [[nodiscard]] std::int64_t cardinality(std::size_t var) const override {
    return space_.params[var].domain.size();
  }
  [[nodiscard]] opt::Objectives evaluate(const opt::Genome& genome) override {
    const auto r = evaluator_.evaluate(space_.decode(genome));
    ++evaluations;
    return {r.metrics.get("lut"), r.metrics.get("ff"), -r.metrics.get("fmax_mhz")};
  }
  std::size_t evaluations = 0;

 private:
  core::PointEvaluator& evaluator_;
  core::DesignSpace space_;
};

core::ProjectConfig cq_project() {
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/corundum_cq_manager.v",
                             hdl::HdlLanguage::kVerilog, "work", false});
  project.top_module = "cpl_queue_manager";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;
  return project;
}

std::vector<opt::Objectives> objectives_of(const std::vector<opt::Individual>& inds) {
  std::vector<opt::Objectives> out;
  out.reserve(inds.size());
  for (const auto& i : inds) out.push_back(i.objectives);
  return out;
}

struct Row {
  std::size_t budget;
  std::size_t used;
  double ga_hv;
  double rs_hv;
  double ga_igd;
  double rs_igd;
};

bool write_rows_json(const char* path, std::size_t truth_points, double truth_hv,
                     const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ablation_ga_vs_random: cannot write %s\n", path);
    return false;
  }
  std::fprintf(out,
               "{\"figure\": \"ablation_ga_vs_random\", \"truth_points\": %zu, "
               "\"truth_hypervolume\": %.17g, \"rows\": [\n",
               truth_points, truth_hv);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(out,
                 "  {\"budget\": %zu, \"used\": %zu, \"nsga2_hypervolume\": %.17g, "
                 "\"random_hypervolume\": %.17g, \"nsga2_igd\": %.17g, "
                 "\"random_igd\": %.17g}%s\n",
                 rows[r].budget, rows[r].used, rows[r].ga_hv, rows[r].rs_hv, rows[r].ga_igd,
                 rows[r].rs_igd, r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "ablation_ga_vs_random: cannot write %s\n", path);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "ablation_ga_vs_random", json_path)) return 2;

  // Ground truth: the space has 28*4*4 = 448 points, small enough to
  // enumerate with the simulated tool.
  core::PointEvaluator truth_eval(cq_project());
  CqProblem truth_problem(truth_eval);
  const auto truth = opt::exhaustive_search(truth_problem);
  const auto truth_front = objectives_of(truth.pareto_front);
  const opt::Objectives ref = {1200.0, 3000.0, -150.0};
  const double truth_hv = opt::hypervolume(truth_front, ref);

  std::printf("Ablation: NSGA-II vs random search (Corundum space, 448 points,\n");
  std::printf("objectives: LUTs min, Registers min, Fmax max)\n");
  std::printf("ground-truth front: %zu points, hypervolume %.3g\n\n", truth_front.size(),
              truth_hv);
  std::printf("%8s %8s  %16s %16s  %12s %12s\n", "budget", "used", "NSGA-II HV(%GT)",
              "random HV(%GT)", "NSGA-II IGD", "random IGD");

  std::vector<Row> rows;
  for (std::size_t budget : {32u, 64u, 128u}) {
    core::PointEvaluator ga_eval(cq_project());
    CqProblem ga_problem(ga_eval);
    opt::Nsga2Config config;
    config.population_size = 16;
    // Initial population consumes one popsize worth of the budget.
    config.max_generations = budget / config.population_size - 1;
    config.seed = 5;
    opt::Nsga2 solver(config);
    const auto ga = solver.run(ga_problem);
    const auto ga_front = objectives_of(ga.pareto_front);

    core::PointEvaluator rs_eval(cq_project());
    CqProblem rs_problem(rs_eval);
    const auto rs = opt::random_search(rs_problem, ga_problem.evaluations, 5);
    const auto rs_front = objectives_of(rs.pareto_front);

    const Row row{budget,
                  ga_problem.evaluations,
                  opt::hypervolume(ga_front, ref),
                  opt::hypervolume(rs_front, ref),
                  opt::igd(ga_front, truth_front),
                  opt::igd(rs_front, truth_front)};
    std::printf("%8zu %8zu  %15.1f%% %15.1f%%  %12.1f %12.1f\n", row.budget, row.used,
                100.0 * row.ga_hv / truth_hv, 100.0 * row.rs_hv / truth_hv, row.ga_igd,
                row.rs_igd);
    rows.push_back(row);
  }
  std::printf(
      "\nReading: at equal tool budgets the elitist GA concentrates its budget\n"
      "on the trade-off surface, recovering more dominated hypervolume and a\n"
      "lower distance to the true front than uniform random sampling.\n");
  if (json_path != nullptr &&
      !write_rows_json(json_path, truth_front.size(), truth_hv, rows)) {
    return 1;
  }
  return 0;
}
