/**
 * @file
 * Tests for the snapshot/fork scenario path (attacks/snapshot.hh):
 * the dirty-page reset primitive on Memory, isolation between live
 * and pooled arenas, and the acceptance bar for the whole
 * subsystem — every golden spec produces byte-identical timing-free
 * exports through the fork and rebuild paths, at every worker
 * count.
 */

#include <gtest/gtest.h>

#include "attacks/attack_kit.hh"
#include "attacks/phase.hh"
#include "attacks/snapshot.hh"
#include "attacks/spectre.hh"
#include "campaign/campaign.hh"
#include "regress/specs.hh"
#include "tool/stream_export.hh"
#include "uarch/memory.hh"

namespace
{

using namespace specsec;
using attacks::Layout;
using attacks::Scenario;
using attacks::ScenarioBuildMode;
using attacks::ScenarioBuildModeGuard;
using uarch::kPageSize;

/** Run @p named on a fresh engine under the caller's build mode. */
campaign::CampaignReport
runSpec(const regress::NamedSpec &named, unsigned workers)
{
    campaign::CampaignEngine::Options opts;
    opts.workers = workers;
    return campaign::CampaignEngine(opts).run(named.spec);
}

TEST(Snapshot, MemoryRezeroRestoresConstructionImage)
{
    uarch::Memory mem(16 * kPageSize);
    EXPECT_EQ(mem.dirtyPageCount(), 0u);

    mem.write8(5, 0xab);
    EXPECT_EQ(mem.dirtyPageCount(), 1u);

    // A straddling write64 dirties both touched pages.
    mem.write64(3 * kPageSize - 4, 0x1122334455667788ull);
    EXPECT_EQ(mem.dirtyPageCount(), 3u);

    // Rewriting a dirty page must not double-count.
    mem.write8(6, 0xcd);
    EXPECT_EQ(mem.dirtyPageCount(), 3u);

    // The very last byte lands in the final (possibly partial
    // bitmap word) page.
    mem.write8(16 * kPageSize - 1, 0xef);
    EXPECT_EQ(mem.dirtyPageCount(), 4u);

    mem.rezeroDirtyPages();
    EXPECT_EQ(mem.dirtyPageCount(), 0u);
    EXPECT_EQ(mem.read8(5), 0u);
    EXPECT_EQ(mem.read64(3 * kPageSize - 4), 0u);
    EXPECT_EQ(mem.read8(16 * kPageSize - 1), 0u);

    // The tracker keeps working after a reset.
    mem.write8(0, 1);
    EXPECT_EQ(mem.dirtyPageCount(), 1u);
}

TEST(Snapshot, ForkedScenariosAreIsolatedAndResetPristine)
{
    const ScenarioBuildModeGuard fork(ScenarioBuildMode::Fork);
    const uarch::CpuConfig config;

    // Two live scenarios hold distinct arenas: mutating one's
    // memory and page table must not leak into its sibling.
    {
        Scenario a(config);
        Scenario b(config);
        a.plantBytes(Layout::kUserSecret, {1, 2, 3, 4});
        a.pageTable().setPresent(Layout::kEnclaveData, false);
        a.pageTable().unmap(Layout::kKernelData);

        const std::vector<std::uint8_t> zeros(4, 0);
        EXPECT_EQ(b.readBytes(Layout::kUserSecret, 4), zeros);
        const uarch::Pte *enclave =
            b.pageTable().lookup(Layout::kEnclaveData);
        ASSERT_NE(enclave, nullptr);
        EXPECT_TRUE(enclave->present);
        EXPECT_NE(b.pageTable().lookup(Layout::kKernelData),
                  nullptr);
    }

    // Both dirtied arenas were pooled on destruction.  The next
    // scenario forks one of them and must observe the pristine
    // snapshot: zero memory, no dirty pages, baseline page table
    // (mapped kernel page, present enclave page, the read-only
    // page still read-only).
    Scenario c(config);
    EXPECT_EQ(c.mem().dirtyPageCount(), 0u);
    const std::vector<std::uint8_t> zeros(4, 0);
    EXPECT_EQ(c.readBytes(Layout::kUserSecret, 4), zeros);
    const uarch::Pte *kernel =
        c.pageTable().lookup(Layout::kKernelData);
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->owner, uarch::PageOwner::Kernel);
    const uarch::Pte *enclave =
        c.pageTable().lookup(Layout::kEnclaveData);
    ASSERT_NE(enclave, nullptr);
    EXPECT_TRUE(enclave->present);
    const uarch::Pte *ro =
        c.pageTable().lookup(Layout::kReadOnlyPage);
    ASSERT_NE(ro, nullptr);
    EXPECT_FALSE(ro->writable);
}

TEST(Snapshot, ForkPathIsExercisedUnderForkMode)
{
    const attacks::ScenarioForkStats before =
        attacks::scenarioForkStats();
    {
        const ScenarioBuildModeGuard fork(ScenarioBuildMode::Fork);
        const uarch::CpuConfig config;
        { Scenario warm(config); } // park one arena in the pool
        { Scenario reuse(config); }
    }
    const attacks::ScenarioForkStats after =
        attacks::scenarioForkStats();
    EXPECT_GE(after.forked, before.forked + 1);

    // Rebuild mode never touches the pool.
    const std::uint64_t forkedBefore = after.forked;
    {
        const ScenarioBuildModeGuard rebuild(
            ScenarioBuildMode::Rebuild);
        const uarch::CpuConfig config;
        { Scenario fresh(config); }
    }
    EXPECT_EQ(attacks::scenarioForkStats().forked, forkedBefore);
}

TEST(Snapshot, EngineRunHonorsTheCallersBuildMode)
{
    // The build mode is process-wide: an engine run inside a
    // caller's Rebuild guard must build every cell from scratch
    // rather than switch the process back to forking.
    const regress::NamedSpec &named =
        regress::registeredSpecs().front();
    const ScenarioBuildModeGuard rebuild(ScenarioBuildMode::Rebuild);
    const attacks::ScenarioForkStats before =
        attacks::scenarioForkStats();
    runSpec(named, 2);
    const attacks::ScenarioForkStats after =
        attacks::scenarioForkStats();
    EXPECT_GT(after.rebuilt, before.rebuilt) << named.name;
    EXPECT_EQ(after.forked, before.forked) << named.name;
}

TEST(Snapshot, PhaseProfileTimesBuildPrologueAndTeardown)
{
    // The Spectre runners time their prologue inline; a lost timer
    // would silently zero attacks.prologue_pct.
    attacks::resetPhaseProfile();
    attacks::AttackOptions opt;
    opt.secretLen = 4;
    attacks::runSpectreV1(uarch::CpuConfig{}, opt);
    const attacks::PhaseProfile phase = attacks::phaseProfile();
    EXPECT_GT(phase.prologueNanos, 0u);
    EXPECT_GT(phase.buildNanos, 0u);
    EXPECT_GT(phase.teardownNanos, 0u);
}

/**
 * The acceptance bar for the fork path: every golden spec, run once
 * with arenas rebuilt from scratch, must give byte-identical
 * timing-free exports when re-run with arena forking at one, two
 * and eight workers.  Any divergence means a pooled arena leaked
 * state between cells.
 */
TEST(Snapshot, ForkMatchesRebuildOnEveryGoldenSpec)
{
    for (const regress::NamedSpec &named :
         regress::registeredSpecs()) {
        std::string referenceJsonl, referenceMatrix;
        {
            const ScenarioBuildModeGuard rebuild(
                ScenarioBuildMode::Rebuild);
            const campaign::CampaignReport reference =
                runSpec(named, 1);
            referenceJsonl = tool::campaignJsonl(reference, false);
            referenceMatrix = reference.successMatrixText();
        }

        const ScenarioBuildModeGuard fork(ScenarioBuildMode::Fork);
        for (const unsigned workers : {1u, 2u, 8u}) {
            const campaign::CampaignReport run =
                runSpec(named, workers);
            EXPECT_EQ(tool::campaignJsonl(run, false),
                      referenceJsonl)
                << named.name << " diverged at workers="
                << workers;
            EXPECT_EQ(run.successMatrixText(), referenceMatrix)
                << named.name << " matrix diverged at workers="
                << workers;
        }
    }
}

} // namespace
