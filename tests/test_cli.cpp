#include "src/runner/cli.h"

#include <gtest/gtest.h>

namespace gridbox::runner {
namespace {

CliOptions must_parse(const std::vector<std::string>& args) {
  const CliParseResult result = parse_cli(args);
  EXPECT_TRUE(result.options.has_value()) << result.error;
  return result.options.value_or(CliOptions{});
}

std::string must_fail(const std::vector<std::string>& args) {
  const CliParseResult result = parse_cli(args);
  EXPECT_FALSE(result.options.has_value());
  return result.error;
}

TEST(Cli, EmptyArgsGiveDefaults) {
  const CliOptions o = must_parse({});
  EXPECT_EQ(o.config.group_size, 200u);
  EXPECT_EQ(o.config.protocol, ProtocolKind::kHierGossip);
  EXPECT_DOUBLE_EQ(o.config.ucast_loss, 0.25);
  EXPECT_EQ(o.runs, 1u);
  EXPECT_FALSE(o.show_help);
}

TEST(Cli, HelpShortCircuits) {
  EXPECT_TRUE(must_parse({"--help"}).show_help);
  EXPECT_TRUE(must_parse({"-h"}).show_help);
  // Even with garbage afterwards.
  EXPECT_TRUE(must_parse({"--help", "--bogus"}).show_help);
}

TEST(Cli, ParsesNumericFlags) {
  const CliOptions o = must_parse({"--n", "512", "--k", "8", "--m", "4", "--c",
                                   "2.5", "--loss", "0.4", "--pf", "0.01",
                                   "--seed", "99", "--runs", "7"});
  EXPECT_EQ(o.config.group_size, 512u);
  EXPECT_EQ(o.config.gossip.k, 8u);
  EXPECT_EQ(o.config.hierarchy_k, 8u);
  EXPECT_EQ(o.config.gossip.fanout_m, 4u);
  EXPECT_DOUBLE_EQ(o.config.gossip.round_multiplier_c, 2.5);
  EXPECT_DOUBLE_EQ(o.config.ucast_loss, 0.4);
  EXPECT_DOUBLE_EQ(o.config.crash_probability, 0.01);
  EXPECT_EQ(o.config.seed, 99u);
  EXPECT_EQ(o.runs, 7u);
}

TEST(Cli, ParsesJobs) {
  EXPECT_EQ(must_parse({}).config.jobs, 0u);  // 0 = auto
  EXPECT_EQ(must_parse({"--jobs", "4"}).config.jobs, 4u);
  EXPECT_NE(must_fail({"--jobs", "0"}).find("at least 1"), std::string::npos);
  EXPECT_NE(must_fail({"--jobs", "nope"}).find("integer"), std::string::npos);
}

TEST(Cli, ParsesEveryProtocolName) {
  EXPECT_EQ(must_parse({"--protocol", "hier-gossip"}).config.protocol,
            ProtocolKind::kHierGossip);
  EXPECT_EQ(must_parse({"--protocol", "all-to-all"}).config.protocol,
            ProtocolKind::kFullyDistributed);
  EXPECT_EQ(must_parse({"--protocol", "centralized"}).config.protocol,
            ProtocolKind::kCentralized);
  EXPECT_EQ(must_parse({"--protocol", "leader"}).config.protocol,
            ProtocolKind::kLeaderElection);
  EXPECT_EQ(must_parse({"--protocol", "committee"}).config.protocol,
            ProtocolKind::kCommittee);
}

TEST(Cli, ParsesEveryAggregateName) {
  EXPECT_EQ(must_parse({"--aggregate", "min"}).config.aggregate,
            agg::AggregateKind::kMin);
  EXPECT_EQ(must_parse({"--aggregate", "stddev"}).config.aggregate,
            agg::AggregateKind::kStdDev);
}

TEST(Cli, TopoHashImpliesPositions) {
  const CliOptions o = must_parse({"--hash", "topo"});
  EXPECT_EQ(o.config.hash, HashKind::kTopoAware);
  EXPECT_TRUE(o.config.assign_positions);
}

TEST(Cli, FieldWorkloadImpliesPositions) {
  const CliOptions o = must_parse({"--workload", "field"});
  EXPECT_EQ(o.config.workload, WorkloadKind::kField);
  EXPECT_TRUE(o.config.assign_positions);
}

TEST(Cli, BooleanFlags) {
  const CliOptions o =
      must_parse({"--audit", "--no-early-bump", "--no-linger"});
  EXPECT_TRUE(o.config.audit);
  EXPECT_FALSE(o.config.gossip.early_bump);
  EXPECT_FALSE(o.config.gossip.final_phase_linger);
}

TEST(Cli, ExchangeModes) {
  EXPECT_EQ(must_parse({"--exchange", "single"}).config.gossip.exchange_mode,
            protocols::gossip::ExchangeMode::kSingleValue);
  EXPECT_EQ(must_parse({"--exchange", "full"}).config.gossip.exchange_mode,
            protocols::gossip::ExchangeMode::kFullState);
}

TEST(Cli, RejectsUnknownFlag) {
  EXPECT_NE(must_fail({"--frobnicate"}).find("unknown flag"),
            std::string::npos);
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_NE(must_fail({"--n"}).find("missing value"), std::string::npos);
}

TEST(Cli, RejectsNonNumericValues) {
  EXPECT_NE(must_fail({"--n", "many"}).find("integer"), std::string::npos);
  EXPECT_NE(must_fail({"--loss", "lots"}).find("number"), std::string::npos);
  EXPECT_NE(must_fail({"--n", "12x"}).find("integer"), std::string::npos);
  EXPECT_NE(must_fail({"--n", "+12"}).find("integer"), std::string::npos);
}

TEST(Cli, RejectsNegativeAndZeroWhereInvalid) {
  EXPECT_FALSE(parse_cli({"--runs", "0"}).options.has_value());
  EXPECT_FALSE(parse_cli({"--n", "-5"}).options.has_value());
}

TEST(Cli, RejectsValuesBeyondTheFieldWidth) {
  // K is 32 bits wide: 2^32 + 4 must not silently run as K = 4.
  EXPECT_NE(must_fail({"--k", "4294967300"}).find("out of range"),
            std::string::npos);
  EXPECT_EQ(must_parse({"--k", "4294967295"}).config.gossip.k, 4294967295u);
  EXPECT_NE(must_fail({"--seed", "18446744073709551616"}).find("out of range"),
            std::string::npos);
}

TEST(Cli, RejectsUnknownEnumValues) {
  EXPECT_NE(must_fail({"--protocol", "paxos"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--aggregate", "median"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--hash", "sha256"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--workload", "spiky"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--exchange", "half"}).find("unknown"),
            std::string::npos);
}

TEST(Cli, CsvPathIsCaptured) {
  EXPECT_EQ(must_parse({"--csv", "/tmp/out.csv"}).csv_path, "/tmp/out.csv");
}

TEST(Cli, UsageMentionsEveryFlag) {
  const std::string usage = usage_text();
  for (const char* flag :
       {"--protocol", "--n", "--k", "--m", "--c", "--rounds-per-phase",
        "--exchange", "--no-early-bump", "--no-linger", "--committee-size",
        "--view-coverage", "--hash", "--loss", "--partition-loss", "--pf",
        "--workload", "--aggregate", "--audit", "--seed", "--runs", "--jobs",
        "--csv", "--metrics", "--trace-out", "--run-manifest",
        "--lineage", "--curves-out", "--flight-recorder", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace gridbox::runner
