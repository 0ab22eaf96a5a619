// Differential tests of the parse-once evaluation path.
//
// A warm evaluator reuses its tool session's parse of unchanged RTL and
// evaluates parameter expressions from their compiled forms; a cold
// evaluator, built per point, parses everything afresh. On a seeded sample
// of every rtl/ design both must produce byte-identical reports, metrics
// and tool-seconds. Source edits and parse failures must behave exactly as
// if nothing were memoized, and compiled expressions must evaluate exactly
// like their source text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/evaluator.hpp"
#include "src/edatool/backend.hpp"
#include "src/edatool/vivado_sim.hpp"
#include "src/edatool/vivado_sim_backend.hpp"
#include "src/hdl/expr.hpp"
#include "src/hdl/frontend.hpp"
#include "src/util/rng.hpp"

namespace dovado::core {
namespace {

/// The high-fidelity backend, keeping the report text of its last run.
class CapturingBackend final : public edatool::EdaBackend {
 public:
  [[nodiscard]] const edatool::BackendInfo& info() const override { return inner_.info(); }
  void add_virtual_file(const std::string& path, std::string content) override {
    inner_.add_virtual_file(path, std::move(content));
  }
  void set_fault_injector(std::shared_ptr<const edatool::FaultInjector> injector) override {
    inner_.set_fault_injector(std::move(injector));
  }
  void set_fault_context(std::uint64_t point_key, int attempt) override {
    inner_.set_fault_context(point_key, attempt);
  }
  [[nodiscard]] edatool::FlowOutcome run_flow(const edatool::FlowRequest& request) override {
    edatool::FlowOutcome outcome = inner_.run_flow(request);
    last_reports_ = outcome.reports;
    return outcome;
  }
  [[nodiscard]] double total_seconds() const override { return inner_.total_seconds(); }
  [[nodiscard]] std::uint64_t flows_run() const override { return inner_.flows_run(); }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return inner_.metric_names();
  }

  [[nodiscard]] const std::vector<std::string>& last_reports() const { return last_reports_; }
  [[nodiscard]] const edatool::VivadoSim& sim() const { return inner_.sim(); }

 private:
  edatool::VivadoSimBackend inner_;
  std::vector<std::string> last_reports_;
};

constexpr const char* kCaptureBackend = "vivado-sim-capture";

const CapturingBackend& capture_of(const PointEvaluator& evaluator) {
  return dynamic_cast<const CapturingBackend&>(evaluator.backend());
}

struct Axis {
  std::string name;
  std::vector<std::int64_t> values;
};

struct Design {
  std::string file;
  hdl::HdlLanguage language;
  std::string top;
  std::string part;
  std::vector<Axis> axes;
};

std::vector<std::int64_t> span(std::int64_t lo, std::int64_t hi, std::int64_t step = 1) {
  std::vector<std::int64_t> out;
  for (std::int64_t v = lo; v <= hi; v += step) out.push_back(v);
  return out;
}

std::vector<Design> rtl_designs() {
  using hdl::HdlLanguage;
  return {
      {"cv32e40p_fifo.sv", HdlLanguage::kSystemVerilog, "cv32e40p_fifo", "xc7k70t",
       {{"DEPTH", span(8, 1031)}, {"DATA_WIDTH", span(8, 128, 8)}}},
      {"systolic_mm.sv", HdlLanguage::kSystemVerilog, "systolic_mm", "xcvu9p",
       {{"ROWS", span(1, 32)},
        {"COLS", span(1, 32)},
        {"DATA_W", span(4, 32, 4)},
        {"ACC_W", span(8, 64, 8)}}},
      {"axis_switch.v", HdlLanguage::kVerilog, "axis_switch", "xc7k70t",
       {{"PORTS", span(1, 16)}, {"DATA_W", span(8, 128, 8)}, {"FIFO_DEPTH", span(4, 64, 4)}}},
      {"corundum_cq_manager.v", HdlLanguage::kVerilog, "cpl_queue_manager", "xc7k70t",
       {{"OP_TABLE_SIZE", span(8, 35)},
        {"QUEUE_INDEX_WIDTH", span(4, 7)},
        {"PIPELINE", span(2, 5)}}},
      {"neorv32_top.vhd", HdlLanguage::kVhdl, "neorv32_top", "xc7k70t",
       {{"MEM_INT_IMEM_SIZE", {2048, 4096, 8192, 16384, 32768}},
        {"MEM_INT_DMEM_SIZE", {2048, 4096, 8192, 16384, 32768}},
        {"ICACHE_NUM_BLOCKS", {1, 2, 4, 8}}}},
      {"tirex_top.vhd", HdlLanguage::kVhdl, "tirex_top", "xc7k70t",
       {{"NCLUSTER", {1, 2, 4}},
        {"STACK_SIZE", {1, 2, 4, 8, 16, 32, 64, 128, 256}},
        {"INSTR_MEM_SIZE", {8, 16}},
        {"DATA_MEM_SIZE", {8, 16}}}},
  };
}

ProjectConfig project_of(const Design& design, const std::string& backend) {
  ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/" + design.file, design.language,
                            "work", false});
  config.top_module = design.top;
  config.part = design.part;
  config.target_period_ns = 1.0;
  config.backend = backend;
  return config;
}

/// `count` distinct points of the design's grid, drawn with a fixed seed.
std::vector<DesignPoint> sample(const Design& design, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<DesignPoint> seen;
  std::vector<DesignPoint> out;
  while (out.size() < count) {
    DesignPoint point;
    for (const auto& axis : design.axes) {
      point[axis.name] = axis.values[rng.index(axis.values.size())];
    }
    if (seen.insert(point).second) out.push_back(std::move(point));
  }
  return out;
}

void register_capture_backend() {
  edatool::BackendRegistry::register_backend(
      kCaptureBackend, [] { return std::unique_ptr<edatool::EdaBackend>(new CapturingBackend()); });
}

TEST(ParseOnceDifferential, WarmLaneMatchesColdEvaluatorsOnEveryRtlDesign) {
  register_capture_backend();
  constexpr std::size_t kPoints = 64;
  for (const Design& design : rtl_designs()) {
    SCOPED_TRACE(design.file);
    const ProjectConfig project = project_of(design, kCaptureBackend);
    PointEvaluator warm(project);
    std::size_t ok = 0;
    for (const DesignPoint& point : sample(design, kPoints, 0x5eed0 + design.file.size())) {
      const EvalResult w = warm.evaluate(point);
      const std::vector<std::string> warm_reports = capture_of(warm).last_reports();
      PointEvaluator cold(project);
      const EvalResult c = cold.evaluate(point);

      ASSERT_FALSE(w.cache_hit);
      EXPECT_EQ(w.ok, c.ok);
      EXPECT_EQ(w.error, c.error);
      EXPECT_EQ(w.metrics.values, c.metrics.values);
      EXPECT_EQ(w.tool_seconds, c.tool_seconds);
      EXPECT_EQ(warm_reports, capture_of(cold).last_reports());
      if (w.ok) ++ok;
    }
    EXPECT_GT(ok, 0u) << "no sampled point evaluated cleanly";
    // The design's RTL was parsed once by the warm lane; every point parsed
    // only its own box.
    EXPECT_EQ(capture_of(warm).sim().source_parses(),
              static_cast<int>(1 + warm.backend().flows_run()));
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Run a synthesis-only flow of the FIFO read from `path`; the captured
/// report text, or the error.
std::string synth_fifo(edatool::VivadoSim& sim, const std::string& path) {
  const tcl::EvalResult run = sim.run_script("read_verilog -sv " + path +
                                             "\nsynth_design -top cv32e40p_fifo -part xc7k70t\n"
                                             "report_utilization\n");
  if (!run.ok) return "error: " + run.error;
  std::string out;
  for (const auto& chunk : sim.interp().output()) out += chunk;
  return out;
}

TEST(ParseOnceDifferential, SourceEditedAtTheSamePathIsReparsed) {
  const std::string original = read_text(std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv");
  std::string edited = original;
  const std::string from = "DATA_WIDTH   = 32";
  const auto at = edited.find(from);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, from.size(), "DATA_WIDTH   = 64");

  const std::string path = testing::TempDir() + "parse_once_fifo.sv";
  write_text(path, original);
  edatool::VivadoSim warm;
  const std::string before = synth_fifo(warm, path);
  const double before_seconds = warm.last_run_seconds();
  ASSERT_EQ(before.rfind("error", 0), std::string::npos) << before;
  EXPECT_EQ(synth_fifo(warm, path), before);  // unchanged text: parse reused
  EXPECT_EQ(warm.source_parses(), 1);
  EXPECT_EQ(warm.last_run_seconds(), before_seconds);  // the read is still charged

  write_text(path, edited);
  const std::string after = synth_fifo(warm, path);
  EXPECT_EQ(warm.source_parses(), 2);
  EXPECT_NE(after, before);
  edatool::VivadoSim cold;
  EXPECT_EQ(synth_fifo(cold, path), after);
  EXPECT_EQ(warm.last_run_seconds(), cold.last_run_seconds());

  // One memo entry per path: going back to the first text parses it again.
  write_text(path, original);
  EXPECT_EQ(synth_fifo(warm, path), before);
  EXPECT_EQ(warm.source_parses(), 3);
  std::filesystem::remove(path);
}

TEST(ParseOnceDifferential, SourceThatFailsToParseFailsEveryRun) {
  edatool::VivadoSim sim;
  sim.add_virtual_file("broken.v", "wire w; assign w = 1;\n");  // no module
  const std::string first = synth_fifo(sim, "broken.v");
  const std::string second = synth_fifo(sim, "broken.v");
  EXPECT_NE(first.find("cannot parse 'broken.v'"), std::string::npos) << first;
  EXPECT_EQ(second, first);
  EXPECT_EQ(sim.source_parses(), 1);

  // The memo is keyed by language as well as text.
  sim.add_virtual_file("twice.v", read_text(std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv"));
  ASSERT_TRUE(sim.run_script("read_verilog -sv twice.v").ok);
  ASSERT_TRUE(sim.run_script("read_verilog twice.v").ok);
  EXPECT_EQ(sim.source_parses(), 3);
}

/// Every HDL source under `dir`.
std::vector<std::string> hdl_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (hdl::language_from_path(entry.path().string())) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same(const hdl::ExprResult& compiled, const hdl::ExprResult& text,
                 const std::string& what) {
  EXPECT_EQ(compiled.value, text.value) << what;
  EXPECT_EQ(compiled.error, text.error) << what;
}

TEST(ParseOnceDifferential, CompiledExpressionsMatchTheirText) {
  std::vector<std::string> files = hdl_files(DOVADO_RTL_DIR);
  const std::vector<std::string> fixtures = hdl_files(DOVADO_ANALYSIS_FIXTURE_DIR);
  files.insert(files.end(), fixtures.begin(), fixtures.end());
  std::size_t checked = 0;
  for (const std::string& file : files) {
    const hdl::ParseResult parsed = hdl::parse_file(file);
    for (const hdl::Module& m : parsed.file.modules) {
      // Against the module's default environment and an empty one (which
      // turns every parameter reference into an error path).
      for (const hdl::ExprEnv& env : {hdl::build_param_env(m, {}), hdl::ExprEnv{}}) {
        for (const hdl::Parameter& p : m.parameters) {
          const std::string what = file + ": parameter " + p.name;
          ASSERT_TRUE(p.default_code.compiled()) << what;
          expect_same(hdl::eval_expr(p.default_code, env),
                      hdl::eval_expr(p.default_expr, m.language, env), what);
          ++checked;
        }
        for (const hdl::Port& port : m.ports) {
          if (!port.is_vector) continue;
          const std::string what = file + ": port " + port.name;
          ASSERT_TRUE(port.left_code.compiled() && port.right_code.compiled()) << what;
          expect_same(hdl::eval_expr(port.left_code, env),
                      hdl::eval_expr(port.left_expr, m.language, env), what + " left");
          expect_same(hdl::eval_expr(port.right_code, env),
                      hdl::eval_expr(port.right_expr, m.language, env), what + " right");
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace dovado::core
