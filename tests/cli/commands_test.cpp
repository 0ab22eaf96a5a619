#include "src/cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/store/store.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace dovado::cli {
namespace {

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run_cli(std::initializer_list<const char*> args) {
  const auto parsed = parse_args(std::vector<std::string>(args.begin(), args.end()));
  EXPECT_TRUE(parsed.ok) << parsed.error;
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(parsed.options, out, err);
  return {code, out.str(), err.str()};
}

std::string rtl(const char* name) { return std::string(DOVADO_RTL_DIR) + "/" + name; }

TEST(CliHelp, PrintsUsage) {
  const auto r = run_cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(util::contains(r.out, "usage: dovado"));
}

TEST(CliParse, PrintsInterface) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"parse", "--source", source.c_str(), "--top", "cv32e40p_fifo"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "module cv32e40p_fifo (SystemVerilog)"));
  EXPECT_TRUE(util::contains(r.out, "DEPTH"));
  EXPECT_TRUE(util::contains(r.out, "[local] ADDR_DEPTH"));
  EXPECT_TRUE(util::contains(r.out, "clock: clk_i"));
}

TEST(CliParse, MissingTopFails) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"parse", "--source", source.c_str(), "--top", "ghost"});
  EXPECT_NE(r.code, 0);
  EXPECT_TRUE(util::contains(r.err, "ghost"));
}

TEST(CliEvaluate, PrintsMetricsTable) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"evaluate", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--set", "DEPTH=32"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "fmax_mhz"));
  EXPECT_TRUE(util::contains(r.out, "| 32"));
  EXPECT_TRUE(util::contains(r.out, "simulated tool time"));
}

TEST(CliEvaluate, BadParameterFails) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"evaluate", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--set", "NOPE=1"});
  EXPECT_NE(r.code, 0);
  EXPECT_TRUE(util::contains(r.err, "NOPE"));
}

TEST(CliEvaluate, UnknownPartFails) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"evaluate", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc1x1t", "--set", "DEPTH=8"});
  EXPECT_NE(r.code, 0);
}

TEST(CliExplore, RunsAndWritesFiles) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const std::string csv = testing::TempDir() + "/dovado_cli_test.csv";
  const std::string json = testing::TempDir() + "/dovado_cli_test.json";
  const auto r = run_cli({"explore", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--param", "DEPTH=8:64", "--objective",
                          "lut:min", "--objective", "fmax_mhz:max", "--pop", "8", "--gens",
                          "4", "--csv", csv.c_str(), "--json", json.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "non-dominated set"));
  EXPECT_TRUE(util::contains(r.out, "explored"));

  std::ifstream csv_in(csv);
  ASSERT_TRUE(csv_in.good());
  std::string header;
  std::getline(csv_in, header);
  EXPECT_TRUE(util::contains(header, "DEPTH"));

  std::ifstream json_in(json);
  ASSERT_TRUE(json_in.good());
  std::stringstream buffer;
  buffer << json_in.rdbuf();
  util::Json parsed;
  EXPECT_TRUE(util::Json::parse(buffer.str(), parsed));
  EXPECT_TRUE(parsed.as_object().count("pareto") == 1);

  std::remove(csv.c_str());
  std::remove(json.c_str());
}

TEST(CliExplore, InvalidObjectiveFails) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"explore", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--param", "DEPTH=8:64", "--objective",
                          "latency:min"});
  EXPECT_NE(r.code, 0);
  EXPECT_TRUE(util::contains(r.err, "latency"));
}

TEST(CliExplore, ApproximateModeReportsEstimates) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"explore", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--param", "DEPTH=8:507", "--objective",
                          "lut:min", "--objective", "fmax_mhz:max", "--pop", "10",
                          "--gens", "6", "--approximate", "--pretrain", "25"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "estimates"));
}

TEST(CliExplore, SessionSaveAndResume) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const std::string session = testing::TempDir() + "/dovado_cli_session.json";

  // First run saves a session.
  const auto first = run_cli({"explore", "--source", source.c_str(), "--top",
                              "cv32e40p_fifo", "--part", "xc7k70t", "--param",
                              "DEPTH=8:80", "--objective", "lut:min", "--objective",
                              "fmax_mhz:max", "--pop", "8", "--gens", "4",
                              "--save-session", session.c_str()});
  EXPECT_EQ(first.code, 0) << first.err;
  EXPECT_TRUE(util::contains(first.out, "session saved"));

  // Second run resumes: known points answer from the cache, the GA starts
  // from the previous front.
  const auto second = run_cli({"explore", "--source", source.c_str(), "--top",
                               "cv32e40p_fifo", "--part", "xc7k70t", "--param",
                               "DEPTH=8:80", "--objective", "lut:min", "--objective",
                               "fmax_mhz:max", "--pop", "8", "--gens", "4", "--resume",
                               session.c_str()});
  EXPECT_EQ(second.code, 0) << second.err;
  EXPECT_TRUE(util::contains(second.out, "resuming from"));
  EXPECT_TRUE(util::contains(second.out, "cache hits"));
  std::remove(session.c_str());
}

TEST(CliExplore, ResumeMissingFileStartsFresh) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"explore", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--param", "DEPTH=8:80", "--objective",
                          "lut:min", "--pop", "6", "--gens", "2", "--resume",
                          "/no/such/session.json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "starting fresh"));
}

TEST(CliExplore, ResumeCorruptFileFails) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const std::string session = testing::TempDir() + "/dovado_cli_corrupt_session.json";
  {
    std::ofstream out(session);
    out << "{ this is not a session";
  }
  const auto r = run_cli({"explore", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "xc7k70t", "--param", "DEPTH=8:80", "--objective",
                          "lut:min", "--resume", session.c_str()});
  EXPECT_NE(r.code, 0);
  EXPECT_TRUE(util::contains(r.err, "cannot be parsed"));
  std::remove(session.c_str());
}

TEST(CliEvaluate, AcceptsBoardNames) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const auto r = run_cli({"evaluate", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                          "--part", "ultra96", "--set", "DEPTH=16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "fmax_mhz"));
}

TEST(CliSensitivity, SweepsAndRanks) {
  const std::string source = rtl("tirex_top.vhd");
  const auto r = run_cli({"sensitivity", "--source", source.c_str(), "--top", "tirex_top",
                          "--part", "xc7k70t", "--param", "NCLUSTER=pow2:0:3", "--param",
                          "STACK_SIZE=pow2:0:8", "--samples", "4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "base point:"));
  EXPECT_TRUE(util::contains(r.out, "NCLUSTER"));
  EXPECT_TRUE(util::contains(r.out, "most influential parameter per metric"));
}

TEST(CliSensitivity, RequiresParams) {
  const std::string source = rtl("tirex_top.vhd");
  const auto parsed = parse_args({"sensitivity", "--source", source, "--top", "tirex_top",
                                  "--part", "xc7k70t"});
  EXPECT_FALSE(parsed.ok);
}

TEST(CliRoofline, RendersChart) {
  const auto r = run_cli({"roofline", "--part", "xc7k70t", "--clock", "200", "--kernel",
                          "fir:1000:128:5.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(util::contains(r.out, "Roofline: xc7k70t @ 200 MHz"));
  EXPECT_TRUE(util::contains(r.out, "fir"));
}

TEST(CliRoofline, UnknownPartFails) {
  const auto r = run_cli({"roofline", "--part", "xqqq", "--clock", "100"});
  EXPECT_NE(r.code, 0);
}

TEST(CliStore, ExploreBanksEvaluationsAndDbInspectsThem) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const std::string store = ::testing::TempDir() + "/cli_store.dvstor";
  std::remove(store.c_str());
  std::remove((store + ".lock").c_str());

  const auto first = run_cli({"explore", "--source", source.c_str(), "--top",
                              "cv32e40p_fifo", "--part", "xc7k70t", "--param",
                              "DEPTH=8:80", "--objective", "lut:min", "--objective",
                              "fmax_mhz:max", "--pop", "6", "--gens", "2", "--backend",
                              "analytic", "--store", store.c_str(), "--campaign",
                              "one"});
  EXPECT_EQ(first.code, 0) << first.err;
  EXPECT_TRUE(util::contains(first.out, "store:"));
  EXPECT_TRUE(util::contains(first.out, "0 hits"));

  const auto second = run_cli({"explore", "--source", source.c_str(), "--top",
                               "cv32e40p_fifo", "--part", "xc7k70t", "--param",
                               "DEPTH=8:80", "--objective", "lut:min", "--objective",
                               "fmax_mhz:max", "--pop", "6", "--gens", "2", "--backend",
                               "analytic", "--store", store.c_str(), "--campaign",
                               "two"});
  EXPECT_EQ(second.code, 0) << second.err;
  EXPECT_FALSE(util::contains(second.out, "store: 0 hits"));

  const auto stats = run_cli({"db", "stats", "--store", store.c_str()});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_TRUE(util::contains(stats.out, "live"));
  EXPECT_TRUE(util::contains(stats.out, "analytic/hifi"));

  const auto query = run_cli({"db", "query", "--store", store.c_str(), "--tier", "hifi"});
  EXPECT_EQ(query.code, 0) << query.err;
  EXPECT_TRUE(util::contains(query.out, "DEPTH"));

  const auto exported = run_cli({"db", "export", "--store", store.c_str()});
  EXPECT_EQ(exported.code, 0) << exported.err;
  util::Json parsed;
  ASSERT_TRUE(util::Json::parse(exported.out, parsed));
  EXPECT_FALSE(parsed.as_object().at("records").as_array().empty());

  const auto compacted = run_cli({"db", "compact", "--store", store.c_str()});
  EXPECT_EQ(compacted.code, 0) << compacted.err;
  EXPECT_TRUE(util::contains(compacted.out, "compacted"));

  std::remove(store.c_str());
  std::remove((store + ".lock").c_str());
}

TEST(CliStore, CsvExportKeepsTheApproximateFlag) {
  const std::string store_path = ::testing::TempDir() + "/cli_store_approximate.dvstor";
  const std::string csv_path = ::testing::TempDir() + "/cli_store_approximate.csv";
  std::remove(store_path.c_str());
  std::remove((store_path + ".lock").c_str());
  {
    auto opened = store::EvalStore::open_writer(store_path);
    ASSERT_TRUE(opened.store) << opened.error;
    store::StoreRecord rec;
    rec.params = {{"DEPTH", 16}};
    rec.backend = "vivado-sim";
    rec.tier = store::EvalStore::kTierHifi;
    rec.metrics = {{"lut", 10.0}};
    rec.ok = true;
    rec.approximate = true;  // a hedged answer
    std::string error;
    ASSERT_TRUE(opened.store->append(std::move(rec), &error)) << error;
  }

  const auto exported =
      run_cli({"db", "export", "--store", store_path.c_str(), "--csv", csv_path.c_str()});
  EXPECT_EQ(exported.code, 0) << exported.err;
  std::ifstream csv(csv_path);
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(csv, header));
  ASSERT_TRUE(std::getline(csv, row));
  const std::vector<std::string> columns = util::split(header, ',');
  const std::vector<std::string> values = util::split(row, ',');
  ASSERT_EQ(columns.size(), values.size()) << header << " / " << row;
  ASSERT_EQ(columns.back(), "approximate");
  EXPECT_EQ(values.back(), "1") << row;

  std::remove(csv_path.c_str());
  std::remove(store_path.c_str());
  std::remove((store_path + ".lock").c_str());
}

TEST(CliServe, BadFaultPlanFailsLikeExplore) {
  const std::string source = rtl("cv32e40p_fifo.sv");
  const std::string socket = ::testing::TempDir() + "/cli_bad_fault_plan.sock";
  const auto explore = run_cli({"explore", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                                "--part", "xc7k70t", "--param", "DEPTH=8:64:8", "--objective",
                                "lut:min", "--fault-plan", "bogus"});
  const auto serve = run_cli({"serve", "--source", source.c_str(), "--top", "cv32e40p_fifo",
                              "--part", "xc7k70t", "--socket", socket.c_str(), "--fault-plan",
                              "bogus"});
  EXPECT_EQ(explore.code, 1);
  EXPECT_EQ(serve.code, 1);
  EXPECT_NE(explore.err.find("invalid fault plan 'bogus'"), std::string::npos) << explore.err;
  EXPECT_EQ(serve.err, explore.err);
}

TEST(CliStore, DbOnAMissingStoreFails) {
  const std::string store = ::testing::TempDir() + "/cli_store_missing.dvstor";
  std::remove(store.c_str());
  const auto parsed = parse_args({"db", "stats", "--store", store});
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_NE(run(parsed.options, out, err), 0);
  EXPECT_FALSE(err.str().empty());
}

}  // namespace
}  // namespace dovado::cli
