// Differential test of the box generator: boxing::generate_box and a
// reused boxing::BoxTemplate against the generator as it was before
// templates (tests/boxing/reference_box.*). Every module of rtl/ and of the
// analysis fixtures, plus a few inline VHDL and Verilog modules, is boxed at
// seeded design points under seeded configurations; the results must agree
// field for field, the box source and the XDC byte for byte, failures and
// their messages included.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/boxing/box.hpp"
#include "src/hdl/frontend.hpp"
#include "src/util/strings.hpp"
#include "tests/boxing/reference_box.hpp"

namespace dovado::boxing {
namespace {

/// A VHDL entity with ascending and descending vectors, a custom vector
/// type, extra libraries and use clauses, and a generic spelt in mixed case.
constexpr const char* kVhdlMixed = R"(
library ieee, work;
use ieee.numeric_std.all;
use ieee.std_logic_1164.all;
library mylib;
use mylib.pkg.all;
entity MixedCase is
  generic (Width : integer := 8; DEPTH : natural := 2**4; constant KIND : integer := 1);
  port (
    Clk     : in  std_logic;
    rst_n   : in  std_logic;
    Din     : in  std_logic_vector(Width-1 downto 0);
    Dout    : out unsigned(0 to Width*2-1);
    Level   : out std_logic_vector(DEPTH / 4 downto 0);
    flag    : out std_logic
  );
end MixedCase;
)";

/// A Verilog module with defaults that depend on each other, a localparam
/// and a scalar-only port list after the vectors.
constexpr const char* kVerilogChain = R"(
module chain #(
  parameter W = 4,
  parameter D = W * 2,
  parameter A = $clog2(D) + 1,
  localparam L = A - 1
)(
  input  wire          clock,
  input  wire [W-1:0]  in_a,
  output reg  [A:0]    out_b,
  output wire [L:0]    lvl,
  output wire          done
);
endmodule
)";

std::vector<hdl::Module> corpus() {
  std::vector<hdl::Module> modules;
  for (const char* dir : {DOVADO_RTL_DIR, DOVADO_FIXTURE_DIR}) {
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string path = entry.path().string();
      if (util::ends_with(path, ".v") || util::ends_with(path, ".sv") ||
          util::ends_with(path, ".vhd")) {
        paths.push_back(path);
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      const hdl::ParseResult parsed = hdl::parse_file(path);
      for (const auto& m : parsed.file.modules) modules.push_back(m);
    }
  }
  for (const auto& [text, lang] :
       {std::pair{kVhdlMixed, hdl::HdlLanguage::kVhdl},
        std::pair{kVerilogChain, hdl::HdlLanguage::kVerilog},
        std::pair{kVerilogChain, hdl::HdlLanguage::kSystemVerilog}}) {
    const hdl::ParseResult parsed = hdl::parse_source(text, lang);
    for (const auto& m : parsed.file.modules) modules.push_back(m);
  }
  return modules;
}

void expect_same(const BoxResult& live, const BoxResult& ref, const std::string& what) {
  EXPECT_EQ(live.ok, ref.ok) << what;
  EXPECT_EQ(live.error, ref.error) << what;
  EXPECT_EQ(live.box_source, ref.box_source) << what;
  EXPECT_EQ(live.language, ref.language) << what;
  EXPECT_EQ(live.xdc, ref.xdc) << what;
  EXPECT_EQ(live.top_name, ref.top_name) << what;
}

std::string describe(const hdl::Module& module, const BoxConfig& config) {
  std::string s = module.name + " box='" + config.box_name + "' clock='" + config.clock_port +
                  "' period=" + std::to_string(config.target_period_ns) + " {";
  for (const auto& [k, v] : config.parameters) s += k + "=" + std::to_string(v) + " ";
  return s + "}";
}

/// A seeded design point for `module`: most free parameters at small
/// values (some negative or zero, to reach failing bounds), VHDL names in
/// random case, and now and then an unknown or local name.
util::FlatMap<std::int64_t> random_point(const hdl::Module& module, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<std::int64_t> value(-3, 70);
  util::FlatMap<std::int64_t> point;
  for (const auto& p : module.parameters) {
    if (percent(rng) >= 70) continue;
    if (p.is_local && percent(rng) >= 10) continue;
    std::string name = p.name;
    if (module.language == hdl::HdlLanguage::kVhdl && percent(rng) < 30) {
      for (char& c : name) {
        if (percent(rng) < 50) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        else c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    point[name] = value(rng);
  }
  if (percent(rng) < 4) point["NO_SUCH_PARAM"] = 1;
  return point;
}

/// A seeded configuration: mostly the evaluator's, sometimes a colliding
/// or empty box name, an explicit (possibly missing) clock port, or a
/// non-positive period.
BoxConfig random_config(const hdl::Module& module, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> percent(0, 99);
  BoxConfig config;
  const int box = percent(rng);
  if (box < 3) config.box_name = "";
  else if (box < 6) config.box_name = util::to_upper(module.name);
  else if (box < 10) config.box_name = "wrapper_top";
  const int clock = percent(rng);
  if (clock < 5) {
    config.clock_port = "no_such_clk";
  } else if (clock < 20 && !module.ports.empty()) {
    config.clock_port = module.ports[static_cast<std::size_t>(percent(rng)) % module.ports.size()].name;
  }
  const int period = percent(rng);
  if (period < 3) config.target_period_ns = 0.0;
  else if (period < 5) config.target_period_ns = -2.0;
  else if (period < 20) config.target_period_ns = 0.25 * (1 + percent(rng) % 16);
  return config;
}

TEST(BoxDifferential, CorpusHasBothLanguages) {
  bool vhdl = false;
  bool verilog = false;
  for (const auto& m : corpus()) {
    (m.language == hdl::HdlLanguage::kVhdl ? vhdl : verilog) = true;
  }
  EXPECT_TRUE(vhdl);
  EXPECT_TRUE(verilog);
}

TEST(BoxDifferential, GenerateBoxMatchesReferenceAtSeededPoints) {
  std::mt19937_64 rng(20260421);
  std::size_t ok = 0;
  std::size_t failed = 0;
  for (const auto& module : corpus()) {
    for (int trial = 0; trial < 60; ++trial) {
      BoxConfig config = random_config(module, rng);
      config.parameters = random_point(module, rng);
      const BoxResult live = generate_box(module, config);
      expect_same(live, reference::generate_box(module, config), describe(module, config));
      (live.ok ? ok : failed) += 1;
    }
  }
  // Both outcomes must be well represented, or the comparison says little.
  EXPECT_GT(ok, 300u);
  EXPECT_GT(failed, 60u);
}

TEST(BoxDifferential, ReusedTemplateMatchesReferenceAtEveryPoint) {
  std::mt19937_64 rng(7);
  for (const auto& module : corpus()) {
    for (int c = 0; c < 6; ++c) {
      BoxConfig config = random_config(module, rng);
      const BoxTemplate box(module, config);
      std::string source;
      for (int trial = 0; trial < 20; ++trial) {
        config.parameters = random_point(module, rng);
        const BoxResult ref = reference::generate_box(module, config);
        const std::string what = describe(module, config);
        expect_same(box.generate(config.parameters), ref, what);
        // render() reuses `source` from point to point.
        const std::string error = box.render(config.parameters, source);
        EXPECT_EQ(error, ref.error) << what;
        if (ref.ok) {
          EXPECT_EQ(source, ref.box_source) << what;
          EXPECT_EQ(box.xdc(), ref.xdc) << what;
        }
      }
    }
  }
}

hdl::Module inline_module(const char* text, hdl::HdlLanguage lang) {
  const hdl::ParseResult parsed = hdl::parse_source(text, lang);
  EXPECT_FALSE(parsed.file.modules.empty());
  return parsed.file.modules.front();
}

/// generate_box and the reference agree on `config`, which must fail with
/// a message containing `needle`.
void expect_same_failure(const hdl::Module& module, const BoxConfig& config,
                         const std::string& needle) {
  const BoxResult live = generate_box(module, config);
  expect_same(live, reference::generate_box(module, config), describe(module, config));
  EXPECT_FALSE(live.ok);
  EXPECT_TRUE(util::contains(live.error, needle)) << live.error;
}

TEST(BoxDifferential, ErrorPaths) {
  for (const auto lang : {hdl::HdlLanguage::kVerilog, hdl::HdlLanguage::kSystemVerilog}) {
    const hdl::Module chain = inline_module(kVerilogChain, lang);
    BoxConfig config;
    config.parameters = {{"NOPE", 3}};
    expect_same_failure(chain, config, "has no parameter 'NOPE'");
    config.parameters = {{"L", 3}};
    expect_same_failure(chain, config, "localparam");
    // Odd values still give evaluable bounds: $clog2 of a negative depth is 0.
    config.parameters = {{"A", -5}, {"D", -8}, {"W", 0}};
    EXPECT_TRUE(generate_box(chain, config).ok);
    expect_same(generate_box(chain, config), reference::generate_box(chain, config), "chain");
    config.parameters = {};
    config.clock_port = "nope";
    expect_same_failure(chain, config, "has no port 'nope'");
    config.clock_port = "";
    config.target_period_ns = 0.0;
    expect_same_failure(chain, config, "target period must be positive");
    config.target_period_ns = 1.0;
    config.box_name = "CHAIN";
    expect_same_failure(chain, config, "collides");
    config.box_name = "";
    expect_same_failure(chain, config, "must not be empty");
  }
  // Bounds that cannot be evaluated: no default and no override.
  const hdl::Module unbound = inline_module(R"(
entity uw is
  generic (W : integer);
  port (clk : in std_logic; v : out std_logic_vector(W-1 downto 0));
end uw;
)",
                                             hdl::HdlLanguage::kVhdl);
  expect_same_failure(unbound, {}, "cannot evaluate bounds of port 'v'");
  const hdl::Module verilog_unbound = inline_module(
      "module vu #(parameter W)(input wire clk, output wire [W-1:0] q, output wire [Z:0] r);\n"
      "endmodule\n",
      hdl::HdlLanguage::kVerilog);
  expect_same_failure(verilog_unbound, {}, "cannot evaluate bounds of port 'q'");
  BoxConfig bound;
  bound.parameters = {{"W", 4}};
  expect_same_failure(verilog_unbound, bound, "cannot evaluate bounds of port 'r'");
  // A module without a name fails before anything else.
  hdl::Module nameless = unbound;
  nameless.name.clear();
  expect_same_failure(nameless, bound, "module has no name");
}

TEST(BoxDifferential, ParameterErrorWinsOverClockAndPeriodErrors) {
  // A local parameter and a bad clock port at once.
  const hdl::Module chain = inline_module(kVerilogChain, hdl::HdlLanguage::kVerilog);
  BoxConfig config;
  config.clock_port = "no_such_clk";
  config.parameters = {{"L", 2}};
  expect_same_failure(chain, config, "localparam");
  // An unknown parameter and a bad clock port, then a bad period.
  const hdl::Module vhdl = inline_module(kVhdlMixed, hdl::HdlLanguage::kVhdl);
  config.parameters = {{"nope", 2}};
  expect_same_failure(vhdl, config, "has no parameter 'nope'");
  config.clock_port = "";
  config.target_period_ns = -1.0;
  expect_same_failure(vhdl, config, "has no parameter 'nope'");
  // The period is checked before the clock port.
  config.clock_port = "no_such_clk";
  config.parameters = {{"width", 2}};
  expect_same_failure(vhdl, config, "target period must be positive");
  // The same through one template, point after point.
  config.target_period_ns = 1.0;
  const BoxTemplate box(vhdl, config);
  std::string source;
  EXPECT_EQ(box.render({{"nope", 2}}, source), "module 'MixedCase' has no parameter 'nope'");
  EXPECT_EQ(box.render({{"width", 2}}, source), "module has no port 'no_such_clk' to use as clock");
  EXPECT_EQ(box.render({{"WIDTH", 3}, {"Nope", 1}}, source),
            "module 'MixedCase' has no parameter 'Nope'");
  // A box-name error wins over a parameter error.
  config.box_name = "mixedcase";
  config.parameters = {{"nope", 2}};
  expect_same_failure(vhdl, config, "collides");
}

TEST(BoxDifferential, FailedTemplateFailsEveryPoint) {
  const hdl::Module chain = inline_module(kVerilogChain, hdl::HdlLanguage::kVerilog);
  BoxConfig config;
  config.target_period_ns = 0.0;
  const BoxTemplate box(chain, config);
  std::string source;
  for (std::int64_t w = 1; w < 5; ++w) {
    EXPECT_EQ(box.render({{"W", w}}, source), "target period must be positive");
  }
}

}  // namespace
}  // namespace dovado::boxing
