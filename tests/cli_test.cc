/**
 * @file
 * Tests for the shared command-line layer (src/tool/cli.hh) and the
 * single tables the CLIs read: the strict unsigned grammar (no sign,
 * no whitespace, no base prefix, no wrap-around), comma lists, the
 * usage-error exits of Args, the VulnConfig path-name table, the
 * catalog's attack lookup and the shard-file merge.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>

#include "campaign/campaign.hh"
#include "core/catalog.hh"
#include "serve/net.hh"
#include "tool/cli.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "tool/schema.hh"
#include "tool/stream_export.hh"

namespace
{

using namespace specsec;
namespace cli = specsec::tool::cli;

TEST(CliParse, RejectsSignsWhitespacePrefixesAndOverflow)
{
    for (const char *bad : {"-1", "+3", " 4", "4 ", "4294967296",
                            "4294967297", "0x10", "", "1e3"}) {
        unsigned out = 7;
        EXPECT_FALSE(cli::parseUnsigned(bad, out)) << "'" << bad << "'";
        EXPECT_EQ(out, 7u) << "'" << bad << "' touched the output";
    }
}

TEST(CliParse, AcceptsDecimalsThatFitTheType)
{
    unsigned u = 7;
    EXPECT_TRUE(cli::parseUnsigned("0", u));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(cli::parseUnsigned("8", u));
    EXPECT_EQ(u, 8u);
    EXPECT_TRUE(cli::parseUnsigned("007", u));
    EXPECT_EQ(u, 7u);
    EXPECT_TRUE(cli::parseUnsigned("4294967295", u));
    EXPECT_EQ(u, 4294967295u);

    std::uint16_t port = 0;
    EXPECT_TRUE(cli::parseUnsigned("65535", port));
    EXPECT_EQ(port, 65535);
    EXPECT_FALSE(cli::parseUnsigned("65536", port));

    std::uint64_t wide = 0;
    EXPECT_TRUE(cli::parseUnsigned("18446744073709551615", wide));
    EXPECT_EQ(wide, UINT64_MAX);
    EXPECT_FALSE(cli::parseUnsigned("18446744073709551616", wide));

    std::uint64_t bounded = 0;
    EXPECT_TRUE(cli::parseUnsigned("1024", 1024, bounded));
    EXPECT_FALSE(cli::parseUnsigned("1025", 1024, bounded));
    EXPECT_TRUE(cli::parseUnsigned("5", 5, bounded));
    EXPECT_FALSE(cli::parseUnsigned("9", 5, bounded));
    EXPECT_FALSE(cli::parseUnsigned("10", 5, bounded));
}

TEST(CliParse, SplitListKeepsEmptyItems)
{
    using List = std::vector<std::string>;
    EXPECT_EQ(cli::splitList("fr,pp"), (List{"fr", "pp"}));
    EXPECT_EQ(cli::splitList("a,,b,"), (List{"a", "", "b", ""}));
    EXPECT_EQ(cli::splitList(""), (List{""}));
}

TEST(CliParse, EndpointPortsUseTheSameGrammar)
{
    serve::net::Endpoint endpoint;
    EXPECT_TRUE(serve::net::parseEndpoint("host:8080", endpoint));
    EXPECT_EQ(endpoint.port, 8080);
    EXPECT_EQ(endpoint.host, "host");
    for (const char *bad : {"h:-1", "h:+80", "h: 80", "h:0", "h:65536",
                            "h:4294967297", "h:", "nocolon"})
        EXPECT_FALSE(serve::net::parseEndpoint(bad, endpoint)) << bad;
}

/** Run an Args loop over @p argv, reading every flag's value. */
template <typename Read>
void
readFlag(std::vector<std::string> argv, Read read)
{
    std::vector<char *> ptrs;
    for (std::string &arg : argv)
        ptrs.push_back(arg.data());
    cli::Args args(static_cast<int>(ptrs.size()), ptrs.data());
    while (args.next())
        read(args);
}

TEST(CliArgs, ReadsValuesAndNumbers)
{
    unsigned workers = 0;
    std::vector<std::size_t> robs;
    std::string out;
    readFlag({"prog", "--workers", "8", "--rob", "32,48", "--jsonl",
              "f.jsonl"},
             [&](cli::Args &args) {
                 if (args.arg() == "--workers")
                     workers = args.workers();
                 else if (args.arg() == "--rob")
                     robs = args.numbers<std::size_t>(1);
                 else
                     out = args.value();
             });
    EXPECT_EQ(workers, 8u);
    EXPECT_EQ(robs, (std::vector<std::size_t>{32, 48}));
    EXPECT_EQ(out, "f.jsonl");
}

// Missing values and unknown backends are covered end to end by the
// CLI contract suite (tests/cli/); these are the bounds it cannot
// probe safely on a binary that still wraps numbers.
TEST(CliArgsDeathTest, UsageErrorsExitTwo)
{
    const auto workers = [](cli::Args &args) { args.workers(); };
    EXPECT_EXIT(readFlag({"prog", "--workers", "-1"}, workers),
                testing::ExitedWithCode(2), "--workers: '-1'");
    EXPECT_EXIT(readFlag({"prog", "--workers", "4294967297"}, workers),
                testing::ExitedWithCode(2), "--workers");
    // In range for `unsigned`, but far beyond any real thread pool.
    EXPECT_EXIT(readFlag({"prog", "--workers", "4294967295"}, workers),
                testing::ExitedWithCode(2), "--workers");
    const auto robs = [](cli::Args &args) {
        args.numbers<std::size_t>(1);
    };
    EXPECT_EXIT(readFlag({"prog", "--rob", "32,0"}, robs),
                testing::ExitedWithCode(2), "--rob: '0'");
}

TEST(VulnPaths, TableDrivesSummariesBothWays)
{
    const uarch::VulnConfig all;
    EXPECT_EQ(tool::vulnSummary(all), "all");
    for (const uarch::VulnPath &path : uarch::kVulnPaths) {
        EXPECT_EQ(uarch::findVulnPath(path.name), &path);
        uarch::VulnConfig v = all;
        v.*path.flag = false;
        const std::string summary = tool::vulnSummary(v);
        EXPECT_EQ(summary, std::string("no-") + path.name);
        uarch::VulnConfig parsed;
        ASSERT_TRUE(tool::parseVulnSummary(summary, parsed));
        EXPECT_EQ(tool::vulnSummary(parsed), summary);
    }
    uarch::VulnConfig v = all;
    v.mds = v.taa = false;
    EXPECT_EQ(tool::vulnSummary(v), "no-mds+no-taa");

    EXPECT_EQ(uarch::findVulnPath("meltdwn"), nullptr);
    uarch::VulnConfig untouched;
    untouched.msr = false;
    for (const char *bad : {"no-foo", "mds", "no-", "", "all+no-mds",
                            "no-mds+"})
        EXPECT_FALSE(tool::parseVulnSummary(bad, untouched)) << bad;
    EXPECT_FALSE(untouched.msr);
}

TEST(Catalog, LookupAttackExplainsUnknownNames)
{
    const core::ScenarioCatalog &catalog =
        core::ScenarioCatalog::instance();
    std::string error;
    const core::AttackDescriptor *d =
        catalog.lookupAttack("spectre-v1", error);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d, catalog.findAttack("spectre-v1"));
    EXPECT_TRUE(error.empty());

    EXPECT_EQ(catalog.lookupAttack("spectre-v9", error), nullptr);
    EXPECT_NE(error.find("unknown attack 'spectre-v9'"),
              std::string::npos);
    EXPECT_NE(error.find("did you mean"), std::string::npos);
}

class MergeShardFiles : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("specsec-cli-test-") +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::create_directories(dir_);
    }
    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    /** Write @p report as a shard file; @return its path. */
    std::string
    write(const std::string &name,
          const campaign::CampaignReport &report)
    {
        const std::string path = (dir_ / name).string();
        EXPECT_TRUE(
            tool::writeTextFile(path, tool::shardReportJson(report)));
        return path;
    }

    static campaign::ScenarioSpec
    spec()
    {
        campaign::ScenarioSpec s;
        s.name = "cli-merge";
        s.variants = {core::AttackVariant::SpectreV1,
                      core::AttackVariant::Meltdown};
        s.defenses = {{"baseline", nullptr}};
        s.permCheckLatencies = {10, 30};
        return s;
    }

    std::filesystem::path dir_;
};

TEST_F(MergeShardFiles, FoldsShardsIntoTheWholeReport)
{
    const campaign::CampaignEngine engine(
        campaign::CampaignEngine::Options{1});
    const campaign::CampaignReport whole = engine.run(spec());
    const std::vector<std::string> paths{
        write("s0.json", engine.run(spec(), {0, 2})),
        write("s1.json", engine.run(spec(), {1, 2}))};
    std::string error;
    bool conflict = false;
    const auto merged =
        tool::mergeShardFiles(paths, &error, &conflict);
    ASSERT_TRUE(merged) << error;
    EXPECT_FALSE(conflict);
    EXPECT_FALSE(merged->partial());
    EXPECT_EQ(tool::campaignJsonl(*merged, false),
              tool::campaignJsonl(whole, false));

    // One shard alone folds to a partial report; the caller decides.
    const auto partial = tool::mergeShardFiles({paths[0]}, &error);
    ASSERT_TRUE(partial) << error;
    EXPECT_TRUE(partial->partial());
}

TEST_F(MergeShardFiles, NamesTheFileThatFails)
{
    const campaign::CampaignEngine engine(
        campaign::CampaignEngine::Options{1});
    const std::string s0 = write("s0.json", engine.run(spec(), {0, 2}));
    std::string error;
    bool conflict = false;

    const std::string missing = (dir_ / "missing.json").string();
    EXPECT_FALSE(tool::mergeShardFiles({s0, missing}, &error, &conflict));
    EXPECT_EQ(error, "cannot read " + missing);
    EXPECT_FALSE(conflict);

    const std::string junk = (dir_ / "junk.json").string();
    ASSERT_TRUE(tool::writeTextFile(junk, "{not json"));
    EXPECT_FALSE(tool::mergeShardFiles({s0, junk}, &error, &conflict));
    EXPECT_EQ(error.rfind(junk + ": malformed shard report", 0), 0u)
        << error;
    EXPECT_FALSE(conflict);

    campaign::ScenarioSpec other = spec();
    other.name = "cli-merge-other";
    const std::string s1 = write("s1.json", engine.run(other, {1, 2}));
    EXPECT_FALSE(tool::mergeShardFiles({s0, s1}, &error, &conflict));
    EXPECT_EQ(error.rfind(s1 + ": merge conflict", 0), 0u) << error;
    EXPECT_TRUE(conflict);

    EXPECT_FALSE(tool::mergeShardFiles({}, &error));
}

} // namespace
