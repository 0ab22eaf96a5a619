#include "src/cli/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace dovado::cli {
namespace {

ParseOutcome parse(std::initializer_list<const char*> args) {
  return parse_args(std::vector<std::string>(args.begin(), args.end()));
}

TEST(ParseArgs, HelpVariants) {
  for (const char* flag : {"help", "--help", "-h"}) {
    const auto r = parse({flag});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.options.command, Command::kHelp);
  }
}

TEST(ParseArgs, MissingCommand) {
  EXPECT_FALSE(parse({}).ok);
  EXPECT_FALSE(parse({"frobnicate"}).ok);
}

TEST(ParseArgs, ParseCommand) {
  const auto r = parse({"parse", "--source", "a.vhd", "--top", "x"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::kParse);
  ASSERT_EQ(r.options.sources.size(), 1u);
  EXPECT_EQ(r.options.top, "x");
}

TEST(ParseArgs, ParseRequiresSourceAndTop) {
  EXPECT_FALSE(parse({"parse", "--top", "x"}).ok);
  EXPECT_FALSE(parse({"parse", "--source", "a.vhd"}).ok);
}

TEST(ParseArgs, EvaluateWithAssignments) {
  const auto r = parse({"evaluate", "--source", "a.sv", "--top", "m", "--part", "xc7k70t",
                        "--set", "DEPTH=64", "--set", "WIDTH=32", "--period", "2.5",
                        "--no-impl"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::kEvaluate);
  EXPECT_EQ(r.options.assignments.at("DEPTH"), 64);
  EXPECT_EQ(r.options.assignments.at("WIDTH"), 32);
  EXPECT_DOUBLE_EQ(r.options.period_ns, 2.5);
  EXPECT_FALSE(r.options.run_implementation);
}

TEST(ParseArgs, EvaluateRequiresPart) {
  EXPECT_FALSE(parse({"evaluate", "--source", "a.sv", "--top", "m"}).ok);
}

TEST(ParseArgs, BadSetRejected) {
  EXPECT_FALSE(parse({"evaluate", "--source", "a.sv", "--top", "m", "--part", "p",
                      "--set", "DEPTH"}).ok);
  EXPECT_FALSE(parse({"evaluate", "--source", "a.sv", "--top", "m", "--part", "p",
                      "--set", "DEPTH=abc"}).ok);
  EXPECT_FALSE(parse({"evaluate", "--source", "a.sv", "--top", "m", "--part", "p",
                      "--set", "=3"}).ok);
}

TEST(ParseArgs, ExploreFullConfig) {
  const auto r = parse({"explore",       "--source",    "a.sv",       "--top",
                        "m",             "--part",      "xc7k70t",    "--param",
                        "DEPTH=8:512",   "--param",     "W=pow2:3:6", "--objective",
                        "lut:min",       "--objective", "fmax_mhz:max", "--pop",
                        "32",            "--gens",      "9",          "--seed",
                        "7",             "--approximate", "--pretrain", "50",
                        "--deadline-hours", "4",        "--workers",  "2",
                        "--csv",         "out.csv",     "--json",     "out.json"});
  ASSERT_TRUE(r.ok) << r.error;
  const Options& o = r.options;
  EXPECT_EQ(o.command, Command::kExplore);
  ASSERT_EQ(o.params.size(), 2u);
  EXPECT_EQ(o.params[0].name, "DEPTH");
  EXPECT_EQ(o.params[0].domain.size(), 505);
  EXPECT_EQ(o.params[1].domain.value_at(0), 8);
  ASSERT_EQ(o.objectives.size(), 2u);
  EXPECT_FALSE(o.objectives[0].second);
  EXPECT_TRUE(o.objectives[1].second);
  EXPECT_EQ(o.population, 32u);
  EXPECT_EQ(o.generations, 9u);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.approximate);
  EXPECT_EQ(o.pretrain, 50u);
  EXPECT_DOUBLE_EQ(o.deadline_hours, 4.0);
  EXPECT_EQ(o.workers, 2u);
  EXPECT_EQ(o.csv_path, "out.csv");
  EXPECT_EQ(o.json_path, "out.json");
}

TEST(ParseArgs, ExploreRequiresParamsAndObjectives) {
  EXPECT_FALSE(parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                      "--objective", "lut:min"}).ok);
  EXPECT_FALSE(parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                      "--param", "D=1:4"}).ok);
}

TEST(ParseArgs, MissingValueDetected) {
  const auto r = parse({"parse", "--source"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--source"), std::string::npos);
}

TEST(ParseArgs, UnknownOptionDetected) {
  EXPECT_FALSE(parse({"parse", "--source", "a.vhd", "--top", "x", "--bogus"}).ok);
}

TEST(ParseArgs, UnknownOptionSuggestsClosestFlag) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min", "--screen-rato",
                        "0.5"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--screen-rato"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("did you mean '--screen-ratio'"), std::string::npos) << r.error;
}

TEST(ParseArgs, BreakerFlagsParseAndValidate) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--breaker-window", "20", "--breaker-threshold", "9",
                        "--probe-budget", "5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.options.breaker);
  EXPECT_EQ(r.options.breaker_window, 20u);
  EXPECT_EQ(r.options.breaker_threshold, 9u);
  EXPECT_EQ(r.options.probe_budget, 5u);

  const auto off = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                          "--param", "D=1:4", "--objective", "lut:min", "--no-breaker"});
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_FALSE(off.options.breaker);

  // Invalid numeric values name the flag.
  const auto bad = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                          "--param", "D=1:4", "--objective", "lut:min",
                          "--breaker-window", "0"});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("--breaker-window"), std::string::npos) << bad.error;
}

TEST(ParseArgs, BreakerThresholdCannotExceedWindow) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--breaker-window", "4", "--breaker-threshold", "6"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--breaker-threshold"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("never trip"), std::string::npos) << r.error;
}

TEST(ParseArgs, OptimizerFlagParsesAndValidates) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--steady-state", "--optimizer", "portfolio",
                        "--portfolio-members", "random,local"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.optimizer, "portfolio");
  EXPECT_EQ(r.options.portfolio_members,
            (std::vector<std::string>{"random", "local"}));

  // Default stays the generational-compatible NSGA-II.
  const auto plain = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                            "--param", "D=1:4", "--objective", "lut:min"});
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_EQ(plain.options.optimizer, "nsga2");
  EXPECT_TRUE(plain.options.portfolio_members.empty());
}

TEST(ParseArgs, UnknownOptimizerSuggestsClosestName) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--steady-state", "--optimizer", "nsga3"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--optimizer"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("did you mean 'nsga2'"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("known optimizers"), std::string::npos) << r.error;
}

TEST(ParseArgs, PortfolioMembersValidatedLikeOptimizer) {
  const auto typo = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                           "--param", "D=1:4", "--objective", "lut:min",
                           "--steady-state", "--optimizer", "portfolio",
                           "--portfolio-members", "random,locl"});
  EXPECT_FALSE(typo.ok);
  EXPECT_NE(typo.error.find("--portfolio-members"), std::string::npos) << typo.error;
  EXPECT_NE(typo.error.find("did you mean 'local'"), std::string::npos) << typo.error;

  const auto nested = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                             "--param", "D=1:4", "--objective", "lut:min",
                             "--steady-state", "--optimizer", "portfolio",
                             "--portfolio-members", "random,portfolio"});
  EXPECT_FALSE(nested.ok);
  EXPECT_NE(nested.error.find("nest"), std::string::npos) << nested.error;
}

TEST(ParseArgs, PortfolioMembersRequirePortfolioOptimizer) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--steady-state", "--optimizer", "random",
                        "--portfolio-members", "random,local"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--portfolio-members"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("portfolio"), std::string::npos) << r.error;
}

TEST(ParseArgs, NonNsga2OptimizerRequiresSteadyState) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--optimizer", "random"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--steady-state"), std::string::npos) << r.error;

  // nsga2 works on both engines, so no --steady-state needed.
  EXPECT_TRUE(parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                     "--param", "D=1:4", "--objective", "lut:min",
                     "--optimizer", "nsga2"}).ok);
}

TEST(ParseArgs, ScreeningOnTheAnalyticBackendIsRejected) {
  // --backend analytic already evaluates on the screening tier; screening
  // against itself saves nothing and the combination is almost certainly a
  // mistake. The error says what to change.
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--backend", "analytic", "--screen-ratio", "0.5"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--screen-ratio"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("analytic"), std::string::npos) << r.error;

  // Either alone is fine.
  EXPECT_TRUE(parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                     "--param", "D=1:4", "--objective", "lut:min",
                     "--backend", "analytic"}).ok);
  EXPECT_TRUE(parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                     "--param", "D=1:4", "--objective", "lut:min",
                     "--screen-ratio", "0.5"}).ok);
}

TEST(ParseArgs, ScreenRatioOutsideUnitRangeIsRejected) {
  for (const char* bad : {"0", "-0.5", "1.5", "abc"}) {
    const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                          "--param", "D=1:4", "--objective", "lut:min",
                          "--screen-ratio", bad});
    EXPECT_FALSE(r.ok) << "--screen-ratio " << bad << " was accepted";
    EXPECT_NE(r.error.find("--screen-ratio"), std::string::npos) << r.error;
  }
}

TEST(ParseParamSpec, RangeForms) {
  std::string error;
  auto spec = parse_param_spec("DEPTH=8:512", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->domain.kind(), core::ParamDomain::Kind::kRange);
  EXPECT_EQ(spec->domain.size(), 505);

  spec = parse_param_spec("N=0:100:25", error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->domain.size(), 5);
}

TEST(ParseParamSpec, Pow2AndValsAndBool) {
  std::string error;
  auto spec = parse_param_spec("MEM=pow2:10:15", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->domain.kind(), core::ParamDomain::Kind::kPowerOfTwo);
  EXPECT_EQ(spec->domain.value_at(0), 1024);

  spec = parse_param_spec("M=vals:1,5,9", error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->domain.size(), 3);
  EXPECT_EQ(spec->domain.value_at(2), 9);

  spec = parse_param_spec("EN=bool", error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->domain.size(), 2);
}

TEST(ParseParamSpec, Malformed) {
  std::string error;
  EXPECT_FALSE(parse_param_spec("DEPTH", error).has_value());
  EXPECT_FALSE(parse_param_spec("=1:2", error).has_value());
  EXPECT_FALSE(parse_param_spec("D=1", error).has_value());
  EXPECT_FALSE(parse_param_spec("D=a:b", error).has_value());
  EXPECT_FALSE(parse_param_spec("D=pow2:1", error).has_value());
  EXPECT_FALSE(parse_param_spec("D=vals:1,x", error).has_value());
  EXPECT_FALSE(parse_param_spec("D=1:10:0", error).has_value());  // zero step
}

TEST(ParseObjectiveSpec, Directions) {
  std::string error;
  auto obj = parse_objective_spec("lut:min", error);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->first, "lut");
  EXPECT_FALSE(obj->second);
  obj = parse_objective_spec("fmax_mhz:MAX", error);
  ASSERT_TRUE(obj.has_value());
  EXPECT_TRUE(obj->second);
  EXPECT_FALSE(parse_objective_spec("lut", error).has_value());
  EXPECT_FALSE(parse_objective_spec("lut:upward", error).has_value());
  EXPECT_FALSE(parse_objective_spec(":min", error).has_value());
}

TEST(ParseKernelSpec, Forms) {
  std::string error;
  auto kernel = parse_kernel_spec("fir:1000:256", error);
  ASSERT_TRUE(kernel.has_value()) << error;
  EXPECT_EQ(kernel->name, "fir");
  EXPECT_DOUBLE_EQ(kernel->ops, 1000.0);
  EXPECT_DOUBLE_EQ(kernel->bytes, 256.0);
  EXPECT_DOUBLE_EQ(kernel->achieved_gops, 0.0);

  kernel = parse_kernel_spec("gemm:2e6:1e4:12.5", error);
  ASSERT_TRUE(kernel.has_value());
  EXPECT_DOUBLE_EQ(kernel->achieved_gops, 12.5);

  EXPECT_FALSE(parse_kernel_spec("x:1", error).has_value());
  EXPECT_FALSE(parse_kernel_spec("x:0:5", error).has_value());
  EXPECT_FALSE(parse_kernel_spec("x:a:b", error).has_value());
}

TEST(RooflineCommand, RequiresPart) {
  EXPECT_FALSE(parse({"roofline", "--clock", "100"}).ok);
  const auto r = parse({"roofline", "--part", "xc7k70t", "--clock", "250", "--kernel",
                        "k:10:5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.options.clock_mhz, 250.0);
  ASSERT_EQ(r.options.kernels.size(), 1u);
}

TEST(Usage, MentionsAllCommands) {
  const std::string text = usage();
  for (const char* word : {"parse", "evaluate", "explore", "sensitivity", "roofline", "--param",
                           "--objective", "--approximate", "db", "--store", "--no-store",
                           "--campaign"}) {
    EXPECT_NE(text.find(word), std::string::npos) << word;
  }
}

TEST(ParseArgs, ExploreStoreFlags) {
  const auto r = parse({"explore", "--source", "a.vhd", "--top", "t", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min", "--store",
                        "evals.dvstor", "--campaign", "nightly-12", "--no-warm-start"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.store_path, "evals.dvstor");
  EXPECT_EQ(r.options.campaign_id, "nightly-12");
  EXPECT_FALSE(r.options.store_warm_start);
}

TEST(ParseArgs, NoStoreClearsAnExplicitPathAndTheEnvDefault) {
  const auto r = parse({"explore", "--source", "a.vhd", "--top", "t", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min", "--store",
                        "evals.dvstor", "--no-store"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.options.store_path.empty());

  // DOVADO_STORE supplies the site-wide default; --no-store overrides it.
  ASSERT_EQ(setenv("DOVADO_STORE", "/tmp/site.dvstor", 1), 0);
  const auto from_env = parse({"explore", "--source", "a.vhd", "--top", "t", "--part",
                               "p", "--param", "D=1:4", "--objective", "lut:min"});
  ASSERT_TRUE(from_env.ok) << from_env.error;
  EXPECT_EQ(from_env.options.store_path, "/tmp/site.dvstor");
  const auto opted_out = parse({"explore", "--source", "a.vhd", "--top", "t", "--part",
                                "p", "--param", "D=1:4", "--objective", "lut:min",
                                "--no-store"});
  ASSERT_TRUE(opted_out.ok) << opted_out.error;
  EXPECT_TRUE(opted_out.options.store_path.empty());
  unsetenv("DOVADO_STORE");
}

TEST(ParseArgs, DbCommandForms) {
  const auto r = parse({"db", "stats", "--store", "evals.dvstor"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::kDb);
  EXPECT_EQ(r.options.db_action, "stats");
  EXPECT_EQ(r.options.store_path, "evals.dvstor");

  const auto query = parse({"db", "query", "--store", "evals.dvstor", "--tier", "hifi",
                            "--backend", "analytic"});
  ASSERT_TRUE(query.ok) << query.error;
  EXPECT_EQ(query.options.db_tier, "hifi");
  EXPECT_EQ(query.options.db_backend, "analytic");

  // The action is mandatory and validated; so is the store path.
  EXPECT_FALSE(parse({"db"}).ok);
  EXPECT_FALSE(parse({"db", "--store", "evals.dvstor"}).ok);
  EXPECT_FALSE(parse({"db", "vacuum", "--store", "evals.dvstor"}).ok);
  unsetenv("DOVADO_STORE");
  EXPECT_FALSE(parse({"db", "stats"}).ok);
  EXPECT_FALSE(parse({"db", "query", "--store", "s", "--tier", "bogus"}).ok);
}

TEST(ParseArgs, DbDefaultBackendIsNotAFilter) {
  // `--backend` has a default for evaluate/explore; db must only filter
  // when the user actually passed it.
  const auto r = parse({"db", "export", "--store", "evals.dvstor"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.options.db_backend.empty());
}

TEST(ParseArgs, MaxInflightRejectsZeroAndNegatives) {
  for (const char* value : {"0", "-3", "banana"}) {
    const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                          "--param", "D=1:4", "--objective", "lut:min",
                          "--steady-state", "--max-inflight", value});
    EXPECT_FALSE(r.ok) << value;
    EXPECT_NE(r.error.find("--max-inflight"), std::string::npos) << r.error;
  }
}

TEST(ParseArgs, MaxInflightAppliesToTheGenerationalSearcher) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--workers", "4", "--max-inflight", "4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.options.steady_state);
  EXPECT_EQ(r.options.max_inflight, 4u);
  EXPECT_TRUE(r.warnings.empty());
}

TEST(ParseArgs, MaxInflightBeyondTheLanesWarnsButParses) {
  const auto r = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                        "--param", "D=1:4", "--objective", "lut:min",
                        "--steady-state", "--workers", "2", "--max-inflight", "16"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.max_inflight, 16u);
  ASSERT_FALSE(r.warnings.empty());
  EXPECT_NE(r.warnings[0].find("--max-inflight"), std::string::npos);

  // A sane value warns about nothing.
  const auto quiet = parse({"explore", "--source", "a.sv", "--top", "m", "--part", "p",
                            "--param", "D=1:4", "--objective", "lut:min",
                            "--steady-state", "--workers", "4", "--max-inflight", "4"});
  ASSERT_TRUE(quiet.ok) << quiet.error;
  EXPECT_TRUE(quiet.warnings.empty());
}

TEST(ParseArgs, ServeCommandParsesTenantsAndPolicies) {
  const auto r = parse({"serve", "--socket", "/tmp/d.sock", "--source", "a.sv",
                        "--top", "m", "--part", "p",
                        "--tenant", "alice:10:128", "--tenant", "bob:1",
                        "--request-rate", "alice:5:10", "--quota", "bob:2:600",
                        "--max-connections", "32"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::kServe);
  EXPECT_EQ(r.options.socket_path, "/tmp/d.sock");
  ASSERT_EQ(r.options.serve_tenants.size(), 2u);
  EXPECT_EQ(r.options.serve_tenants[0].name, "alice");
  EXPECT_DOUBLE_EQ(r.options.serve_tenants[0].weight, 10.0);
  EXPECT_EQ(r.options.serve_tenants[0].queue_cap, 128u);
  EXPECT_DOUBLE_EQ(r.options.serve_tenants[0].request_rate, 5.0);
  EXPECT_DOUBLE_EQ(r.options.serve_tenants[0].request_burst, 10.0);
  EXPECT_EQ(r.options.serve_tenants[1].name, "bob");
  EXPECT_DOUBLE_EQ(r.options.serve_tenants[1].tool_seconds_rate, 2.0);
  EXPECT_DOUBLE_EQ(r.options.serve_tenants[1].tool_seconds_burst, 600.0);
  EXPECT_EQ(r.options.max_connections, 32u);
}

TEST(ParseArgs, ServeRequiresSocketAndProject) {
  EXPECT_FALSE(parse({"serve", "--source", "a.sv", "--top", "m", "--part", "p"}).ok);
  EXPECT_FALSE(parse({"serve", "--socket", "/tmp/d.sock"}).ok);
  // Bad tenant specs are parse errors, not silent defaults.
  EXPECT_FALSE(parse({"serve", "--socket", "/tmp/d.sock", "--source", "a.sv",
                      "--top", "m", "--part", "p", "--tenant", "alice:-1"}).ok);
  EXPECT_FALSE(parse({"serve", "--socket", "/tmp/d.sock", "--source", "a.sv",
                      "--top", "m", "--part", "p", "--quota", "alice:2:0"}).ok);
}

TEST(ParseArgs, ClientAndTopNeedASocket) {
  EXPECT_FALSE(parse({"client"}).ok);
  EXPECT_FALSE(parse({"top"}).ok);
  const auto r = parse({"client", "--socket", "/tmp/d.sock", "--tenant", "alice",
                        "--set", "DEPTH=32", "--deadline", "120"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::kClient);
  EXPECT_EQ(r.options.tenant, "alice");
  EXPECT_DOUBLE_EQ(r.options.deadline_tool_seconds, 120.0);
  EXPECT_TRUE(parse({"top", "--socket", "/tmp/d.sock"}).ok);
}

}  // namespace
}  // namespace dovado::cli
