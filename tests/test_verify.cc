/** @file Tests for the differential verification subsystem
 *  (src/verify/): golden-model equivalence, fixed-seed differential
 *  shards across all four backends, and the timing-invariant checker
 *  over the paper's configurations. The full-size sweep (500 random
 *  programs) lives in scripts/check.sh via pfits_verify; these shards
 *  keep ctest fast while pinning the same machinery. */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/builder.hh"
#include "exp/experiment.hh"
#include "exp/figures.hh"
#include "exp/simcache.hh"
#include "mibench/mibench.hh"
#include "sim/machine.hh"
#include "sim/probe.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/profile_oracle.hh"
#include "verify/randprog.hh"
#include "verify/timing.hh"

namespace pfits
{
namespace
{

// --- golden interpreter vs the timing Machine ---------------------------

TEST(GoldenModel, MatchesMachineOnKernel)
{
    mibench::Workload wl = mibench::buildBitcount();

    ArmFrontEnd arm(wl.program);
    GoldenInterpreter golden(arm);
    GoldenResult g = golden.run();

    ASSERT_EQ(g.outcome, RunOutcome::Completed) << g.trapReason;
    ASSERT_FALSE(g.io.emitted.empty());
    // Anchored to the independent C++ reference checksum, not to the
    // Machine: agreement here ties all later comparisons to a third
    // implementation.
    EXPECT_EQ(g.io.emitted.back(), wl.expected);

    RunResult ra = Machine(arm, CoreConfig{}).run();
    ASSERT_EQ(ra.outcome, RunOutcome::Completed);
    EXPECT_EQ(g.retired, ra.instructions);
    EXPECT_EQ(g.io.emitted, ra.io.emitted);
    EXPECT_EQ(g.io.console, ra.io.console);
    for (unsigned r = 0; r < NUM_REGS; ++r)
        EXPECT_EQ(g.finalState.regs[r], ra.finalState.regs[r])
            << "r" << r;
    EXPECT_EQ(g.finalState.flags.n, ra.finalState.flags.n);
    EXPECT_EQ(g.finalState.flags.z, ra.finalState.flags.z);
    EXPECT_EQ(g.finalState.flags.c, ra.finalState.flags.c);
    EXPECT_EQ(g.finalState.flags.v, ra.finalState.flags.v);
}

TEST(GoldenModel, CountsAnnulledInstructions)
{
    ProgramBuilder b("annul");
    b.movi(R0, 1);
    b.cmp(R0, R0);               // Z=1
    b.addi(R1, R0, 5, Cond::NE); // annulled
    b.addi(R1, R0, 7, Cond::EQ); // executes
    b.exit();
    Program prog = b.finish();

    ArmFrontEnd arm(prog);
    GoldenResult g = GoldenInterpreter(arm).run();
    ASSERT_EQ(g.outcome, RunOutcome::Completed);
    EXPECT_EQ(g.annulled, 1u);
    EXPECT_EQ(g.finalState.regs[R1], 8u);

    RunResult ra = Machine(arm, CoreConfig{}).run();
    EXPECT_EQ(g.retired, ra.instructions);
}

TEST(GoldenModel, WatchdogReportsExpiry)
{
    ProgramBuilder b("spin");
    Label loop = b.here();
    b.b(loop);
    Program prog = b.finish();

    ArmFrontEnd arm(prog);
    GoldenResult g =
        GoldenInterpreter(arm).run(/*max_instructions=*/100);
    EXPECT_EQ(g.outcome, RunOutcome::WatchdogExpired);
}

// --- differential shards (fixed seeds, all four backends) ---------------

class DifferentialShard : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DifferentialShard, RandomProgramAgreesOnAllBackends)
{
    uint64_t seed = GetParam();
    Program prog = randomVerifyProgram(seed);
    DiffReport rep = diffProgram(prog, seed);
    EXPECT_TRUE(rep.ok()) << rep.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialShard,
                         ::testing::Range<uint64_t>(1, 33));

class DifferentialKernel
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DifferentialKernel, KernelAgreesOnAllBackends)
{
    const mibench::BenchInfo &info = mibench::findBench(GetParam());
    mibench::Workload wl = info.build();
    DiffReport rep = diffProgram(wl.program, 0, &wl.expected);
    EXPECT_TRUE(rep.ok()) << rep.describe();
}

// A cross-section of the suite; pfits_verify covers all 21.
INSTANTIATE_TEST_SUITE_P(Kernels, DifferentialKernel,
                         ::testing::Values("bitcount", "sha",
                                           "stringsearch",
                                           "adpcm.encode"));

class FastBackendShard : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FastBackendShard, RandomProgramAgreesOnFastLoopAlone)
{
    // The Both shards above already cross-check fast against interp;
    // these pin the fast loop in isolation so a divergence bisects in
    // one run. A disjoint seed range from the Both shards widens the
    // sampled program space.
    uint64_t seed = GetParam();
    Program prog = randomVerifyProgram(seed);
    DiffReport rep = diffProgram(prog, seed, nullptr,
                                 DiffBackend::Fast);
    EXPECT_TRUE(rep.ok()) << rep.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastBackendShard,
                         ::testing::Range<uint64_t>(101, 117));

TEST(DifferentialSuite, SmallSweepIsClean)
{
    DiffOptions opts;
    opts.seed = 1000;
    opts.count = 8;
    opts.kernels = false;
    DiffSummary sum = runDifferentialSuite(opts);
    EXPECT_EQ(sum.programsRun, 8u);
    EXPECT_TRUE(sum.ok());
}

// --- engine determinism across backends and job counts -------------------

/** Two figure tables over the whole suite, as one CSV fingerprint. */
std::string
suiteCsv(SimBackend backend, unsigned jobs)
{
    SimCache::instance().clear(); // force fresh simulations
    ExperimentParams params;
    params.core.backend = backend;
    params.jobs = jobs;
    Runner runner(params);
    std::ostringstream os;
    fig13MissRate(runner).printCsv(os);
    fig14Ipc(runner).printCsv(os);
    return os.str();
}

TEST(BackendDeterminism, TablesByteIdenticalAcrossBackendsAndJobs)
{
    // The merge gate for the fast backend: experiment tables must be
    // byte-identical to the interpreter's, at any worker count (1,
    // 4, and the hardware-sized shared pool). A single divergent
    // counter anywhere in the suite shows up here.
    const std::string interp = suiteCsv(SimBackend::Interp, 4);
    ASSERT_FALSE(interp.empty());
    EXPECT_EQ(interp, suiteCsv(SimBackend::Fast, 1));
    EXPECT_EQ(interp, suiteCsv(SimBackend::Fast, 4));
    EXPECT_EQ(interp, suiteCsv(SimBackend::Fast, 0));
    SimCache::instance().clear();
}

// --- timing invariants ---------------------------------------------------

TEST(TimingInvariants, RandomProgramScheduleIsLegal)
{
    Program prog = randomVerifyProgram(7);
    ArmFrontEnd arm(prog);
    CoreConfig core;
    Machine machine(arm, core);

    TimingInvariantChecker checker(core);
    ObserverList observers;
    observers.add(&checker);
    RunResult rr = machine.run(nullptr, &observers);

    ASSERT_EQ(rr.outcome, RunOutcome::Completed);
    EXPECT_TRUE(checker.ok()) << checker.summary();
    // IPC can never exceed the issue width.
    EXPECT_LE(rr.instructions, rr.cycles * core.issueWidth);
}

TEST(TimingInvariants, HoldOnPaperConfigsForKernel)
{
    // Directly attach the checker on both paper I-cache sizes of the
    // ARM frontend; the four-config FITS sweep is the test below.
    mibench::Workload wl = mibench::buildStringsearch();
    ArmFrontEnd arm(wl.program);
    for (uint32_t icache_bytes : {16u * 1024u, 8u * 1024u}) {
        CoreConfig core;
        core.icache.sizeBytes = icache_bytes;
        Machine machine(arm, core);
        TimingInvariantChecker checker(core);
        ObserverList observers;
        observers.add(&checker);
        RunResult rr = machine.run(nullptr, &observers);
        ASSERT_EQ(rr.outcome, RunOutcome::Completed);
        EXPECT_TRUE(checker.ok())
            << "icache " << icache_bytes << ": " << checker.summary();
    }
}

TEST(TimingInvariants, FullSweepAcrossBenchmarksAndConfigs)
{
    // The acceptance sweep: every MiBench benchmark on the paper's
    // four configurations (ARM16/ARM8/FITS16/FITS8), every schedule
    // verified against the scoreboard contract.
    std::vector<std::string> fails = runTimingInvariantSweep();
    EXPECT_TRUE(fails.empty())
        << fails.size() << " failing runs; first: " << fails.front();
}

// --- profile dispatch counts vs the executor-driven oracle --------------

std::string
joined(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

/** The error countRetires throws on @p fe, or "" when it returns. */
std::string
fastCountError(const FrontEnd &fe, uint64_t max_instrs)
{
    uint64_t dispatched = 0;
    try {
        countRetires(fe, max_instrs, dispatched);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Profile, FastCountsMatchOracle)
{
    std::vector<std::string> out;
    for (const mibench::BenchInfo &info : mibench::suite())
        diffRetireCounts(ArmFrontEnd(info.build().program), out);

    // The random corpus must exercise annulled instructions (failed
    // conditions), which both sides count as dispatched.
    uint64_t annulled = 0;
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        ArmFrontEnd fe(randomVerifyProgram(seed));
        diffRetireCounts(fe, out);
        annulled += GoldenInterpreter(fe).run().annulled;
    }
    EXPECT_GT(annulled, 0u);
    EXPECT_TRUE(out.empty()) << joined(out);
}

TEST(Profile, AnnulledInstructionsAreCounted)
{
    ProgramBuilder b("annul");
    Label skip = b.label();
    b.movi(R0, 1);
    b.cmp(R0, R0);               // Z=1
    b.addi(R1, R0, 5, Cond::NE); // annulled
    b.b(skip, Cond::NE);         // annulled branch falls through
    b.addi(R1, R0, 7, Cond::EQ); // executes
    b.bind(skip);
    b.exit();
    ArmFrontEnd fe(b.finish());

    uint64_t dispatched = 0;
    std::vector<uint64_t> counts = countRetires(fe, 100, dispatched);
    EXPECT_EQ(counts, std::vector<uint64_t>(6, 1));
    EXPECT_EQ(dispatched, 6u);
    std::vector<std::string> out;
    diffRetireCounts(fe, out);
    EXPECT_TRUE(out.empty()) << joined(out);
}

TEST(Profile, FastAndOracleFailWithTheSameText)
{
    constexpr uint64_t kCap = 100;
    struct Case
    {
        const char *name;
        std::function<void(ProgramBuilder &)> body;
        const char *error;
    };
    const Case cases[] = {
        {"badswi", [](ProgramBuilder &b) { b.swi(99); },
         "unknown swi #99"},
        {"misaligned",
         [](ProgramBuilder &b) {
             b.movi(R0, 0x1001);
             b.ldr(R1, R0);
         },
         "misaligned word read at 0x00001001"},
        {"badret",
         [](ProgramBuilder &b) {
             b.movi(LR, 2);
             b.ret();
         },
         "ret to unaligned or out-of-range address 0x00000002"},
        {"falloff", [](ProgramBuilder &b) { b.movi(R0, 1); },
         "profile of 'falloff': fell off the end of the program"},
        {"spin",
         [](ProgramBuilder &b) {
             Label loop = b.here();
             b.b(loop);
         },
         "profile of 'spin': exceeded instruction cap"},
    };
    for (const Case &c : cases) {
        ProgramBuilder b(c.name);
        c.body(b);
        ArmFrontEnd fe(b.finish());
        EXPECT_EQ(fastCountError(fe, kCap), c.error) << c.name;
        std::vector<std::string> out;
        diffRetireCounts(fe, out, kCap);
        EXPECT_TRUE(out.empty()) << c.name << ": " << joined(out);
    }
}

TEST(Profile, CapAllowsExactlyMaxDispatches)
{
    // The cap rule is `dispatched++ >= max`: a program that halts on
    // its max-th dispatch completes, one more would be fatal.
    ProgramBuilder b("three");
    b.movi(R0, 1);
    b.movi(R1, 2);
    b.exit();
    ArmFrontEnd fe(b.finish());
    EXPECT_EQ(fastCountError(fe, 3), "");
    EXPECT_EQ(fastCountError(fe, 2),
              "profile of 'three': exceeded instruction cap");
}

} // namespace
} // namespace pfits
