#include "exp/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "exp/sweep.hpp"

namespace rtdb::exp {
namespace {

Options parse_ok(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  std::string error;
  const auto opts = parse_options(static_cast<int>(args.size()),
                                  const_cast<char**>(args.data()), &error);
  EXPECT_TRUE(opts.has_value()) << error;
  return opts.value_or(Options{});
}

bool parse_fails(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  std::string error;
  return !parse_options(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()), &error)
              .has_value();
}

TEST(CliTest, DefaultsLeaveEverythingUnset) {
  const Options opts = parse_ok({});
  EXPECT_FALSE(opts.runs.has_value());
  EXPECT_FALSE(opts.seed.has_value());
  EXPECT_FALSE(opts.jobs.has_value());
  EXPECT_FALSE(opts.json_path.has_value());
  EXPECT_FALSE(opts.csv);
  EXPECT_FALSE(opts.quiet);
  EXPECT_GE(opts.effective_jobs(), 1);
}

TEST(CliTest, ParsesEveryFlag) {
  const Options opts = parse_ok({"--runs", "20", "--seed", "7", "--jobs", "4",
                                 "--json", "out.json", "--csv", "out.csv",
                                 "--quiet"});
  EXPECT_EQ(opts.runs, 20);
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_EQ(opts.jobs, 4);
  EXPECT_EQ(opts.effective_jobs(), 4);
  EXPECT_EQ(opts.json_path, "out.json");
  EXPECT_TRUE(opts.csv);
  EXPECT_EQ(opts.csv_path, "out.csv");
  EXPECT_TRUE(opts.quiet);
}

TEST(CliTest, BareCsvStreamsToStdout) {
  const Options opts = parse_ok({"--csv", "--jobs", "2"});
  EXPECT_TRUE(opts.csv);
  EXPECT_FALSE(opts.csv_path.has_value());
  EXPECT_EQ(opts.jobs, 2);
}

TEST(CliTest, HelpShortCircuits) {
  EXPECT_TRUE(parse_ok({"--help"}).help);
  EXPECT_TRUE(parse_ok({"-h"}).help);
}

TEST(CliTest, RejectsBadInput) {
  EXPECT_TRUE(parse_fails({"--runs"}));
  EXPECT_TRUE(parse_fails({"--runs", "0"}));
  EXPECT_TRUE(parse_fails({"--runs", "ten"}));
  EXPECT_TRUE(parse_fails({"--jobs", "-2"}));
  EXPECT_TRUE(parse_fails({"--json"}));
  EXPECT_TRUE(parse_fails({"--frobnicate"}));
}

TEST(CliTest, UsageMentionsEveryFlag) {
  const std::string text = usage("bench");
  for (const char* flag :
       {"--runs", "--seed", "--jobs", "--json", "--csv", "--quiet",
        "--partition", "--arrival-rate"}) {
    EXPECT_NE(text.find(flag), std::string::npos) << flag;
  }
}

TEST(CliTest, ParsesPartitionSpecs) {
  const Options opts =
      parse_ok({"--partition", "0+1:400:300,2:50", "--partition", "0:10:asym"});
  ASSERT_EQ(opts.partitions.size(), 3u);
  EXPECT_EQ(opts.partitions[0].group, (std::vector<net::SiteId>{0, 1}));
  EXPECT_EQ(opts.partitions[0].at, sim::Duration::from_units(400));
  EXPECT_EQ(opts.partitions[0].heal_after, sim::Duration::from_units(300));
  EXPECT_TRUE(opts.partitions[0].symmetric);
  EXPECT_EQ(opts.partitions[1].group, (std::vector<net::SiteId>{2}));
  EXPECT_EQ(opts.partitions[1].heal_after, sim::Duration::zero());
  EXPECT_EQ(opts.partitions[2].group, (std::vector<net::SiteId>{0}));
  EXPECT_FALSE(opts.partitions[2].symmetric);

  net::FaultSpec spec;
  opts.apply_faults(&spec);
  EXPECT_EQ(spec.partitions.size(), 3u);
  EXPECT_TRUE(spec.active());
}

TEST(CliTest, ParsesExplicitSymAndHealWithAsym) {
  const Options opts = parse_ok({"--partition", "1:20:50:sym,0:5:10:asym"});
  ASSERT_EQ(opts.partitions.size(), 2u);
  EXPECT_TRUE(opts.partitions[0].symmetric);
  EXPECT_FALSE(opts.partitions[1].symmetric);
  EXPECT_EQ(opts.partitions[1].heal_after, sim::Duration::from_units(10));
}

TEST(CliTest, RejectsBadPartitionSpecs) {
  EXPECT_TRUE(parse_fails({"--partition"}));
  EXPECT_TRUE(parse_fails({"--partition", "0"}));            // no cut time
  EXPECT_TRUE(parse_fails({"--partition", ":400"}));         // empty group
  EXPECT_TRUE(parse_fails({"--partition", "a:400"}));        // bad site id
  EXPECT_TRUE(parse_fails({"--partition", "0:-1"}));         // negative time
  EXPECT_TRUE(parse_fails({"--partition", "0:400:wat"}));    // bad tail
  EXPECT_TRUE(parse_fails({"--partition", "0:400:300:300"}));
  EXPECT_TRUE(parse_fails({"--partition", "0+x:400"}));
}

TEST(CliTest, ParsesArrivalRate) {
  const Options opts = parse_ok({"--arrival-rate", "0.4"});
  ASSERT_TRUE(opts.arrival_rate.has_value());
  EXPECT_DOUBLE_EQ(*opts.arrival_rate, 0.4);
}

TEST(CliTest, RejectsNonPositiveArrivalRate) {
  EXPECT_TRUE(parse_fails({"--arrival-rate"}));
  EXPECT_TRUE(parse_fails({"--arrival-rate", "0"}));
  EXPECT_TRUE(parse_fails({"--arrival-rate", "-2"}));
  EXPECT_TRUE(parse_fails({"--arrival-rate", "fast"}));
}

TEST(CliTest, FaultSitesMustExistInEveryCell) {
  SweepSpec spec;
  core::SystemConfig small;
  small.sites = 2;
  core::SystemConfig large;
  large.sites = 8;
  spec.add_cell({{"sites", "2"}}, small);
  spec.add_cell({{"sites", "8"}}, large);

  EXPECT_FALSE(check_fault_sites(spec, parse_ok({"--crash-at", "1:10",
                                                 "--partition", "0+1:5"})));
  const auto crash = check_fault_sites(spec, parse_ok({"--crash-at", "5:10"}));
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(*crash,
            "--crash-at: site 5 does not exist in a 2-site cell (site ids "
            "are 0..1)");
  const auto partition =
      check_fault_sites(spec, parse_ok({"--partition", "1+9:10"}));
  ASSERT_TRUE(partition.has_value());
  EXPECT_NE(partition->find("--partition: site 9"), std::string::npos);
  // --sites overlays every cell, so it decides the range.
  EXPECT_FALSE(check_fault_sites(
      spec, parse_ok({"--sites", "16", "--crash-at", "12:10"})));
}

}  // namespace
}  // namespace rtdb::exp
