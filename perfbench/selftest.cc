/**
 * @file
 * Self-test of the benchmark's own code: seeded op lists, the tail
 * rule, and trace self time. Runs with ctest in the perfbench build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "oplist.hh"
#include "reduce.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

SimCounts
simulatedTotals(WorkloadId id, uint64_t seed)
{
    WorkloadEnv env;
    env.seed = seed;
    std::unique_ptr<Workload> w = makeWorkload(id, env);
    SimCounts total;
    // Ops that need no set-up state beyond what the constructor made:
    // suite_sweep ops are self-contained cold sweeps.
    for (unsigned t = 0; t < w->threads(); ++t)
        for (size_t i = 0; i < 2 && i < w->streamLength(t); ++i) {
            OpResult r = w->runOp(t, i);
            EXPECT_TRUE(r.ok) << r.error;
            total.add(r.sim);
        }
    return total;
}

} // namespace

TEST(OpList, SameSeedSameOps)
{
    EXPECT_EQ(sweepOps(7, 2), sweepOps(7, 2));
    EXPECT_EQ(chipProbeStreams(7, 1, 2), chipProbeStreams(7, 1, 2));
    EXPECT_EQ(storeStreams(7, 5, 2, 0), storeStreams(7, 5, 2, 0));
}

TEST(OpList, DifferentSeedDifferentOps)
{
    EXPECT_NE(sweepOps(7, 1), sweepOps(8, 1));
    EXPECT_NE(chipProbeStreams(7, 1, 2), chipProbeStreams(8, 1, 2));
    EXPECT_NE(storeStreams(7, 5, 2, 0), storeStreams(8, 5, 2, 0));
    // Successive rounds of one seed differ; svc_store rounds write
    // keys no earlier round wrote.
    EXPECT_NE(sweepOps(7, 0), sweepOps(7, 1));
    EXPECT_NE(chipProbeStreams(7, 0, 2), chipProbeStreams(7, 1, 2));
    EXPECT_NE(storeStreams(7, 5, 2, 0), storeStreams(7, 5, 2, 1));
}

TEST(OpList, RoundsAreBalanced)
{
    // Every sweep round covers the grid exactly once.
    std::vector<SweepPoint> ops = sweepOps(3, 2);
    const std::vector<SweepPoint> grid = sweepGrid();
    ASSERT_EQ(ops.size(), grid.size());
    for (const SweepPoint &p : grid)
        EXPECT_EQ(std::count(ops.begin(), ops.end(), p), 1);

    // Each chip_probe thread: 21 ops, every kernel 4 times; two
    // successive rounds hold 21 chip ops.
    for (unsigned round : {0u, 1u}) {
        for (const auto &stream : chipProbeStreams(3, round, 2)) {
            ASSERT_EQ(stream.size(), 21u);
            std::vector<int> uses(kSuiteKernels, 0);
            int chips = 0;
            for (const KernelSetOp &op : stream) {
                chips += op.chip;
                for (uint8_t k : op.kernels)
                    ++uses[k];
            }
            EXPECT_EQ(chips, 10 + static_cast<int>(round));
            for (int u : uses)
                EXPECT_EQ(u, 4);
        }
    }

    // svc_store: 15% writes; each client reads only its own kernels.
    auto streams = storeStreams(3, 10, 2, 0);
    for (unsigned t = 0; t < streams.size(); ++t) {
        ASSERT_EQ(streams[t].size(), 10 * kStoreBlock);
        size_t writes = 0;
        for (const StoreOp &op : streams[t]) {
            writes += op.write;
            if (!op.write) {
                EXPECT_EQ(op.bench % 2, t);
            }
        }
        EXPECT_EQ(writes, 10 * kStoreWrites);
    }
}

TEST(OpList, SameSeedSameSimulatedTotals)
{
    SimCounts a = simulatedTotals(WorkloadId::SuiteSweep, 11);
    SimCounts b = simulatedTotals(WorkloadId::SuiteSweep, 11);
    EXPECT_GT(a.instructions, 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.simcacheHits, 0u); // every op is cold
}

TEST(Stats, MedianAndNearestRank)
{
    EXPECT_EQ(median({}), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(nearestRank(v, 50), 50);
    EXPECT_EQ(nearestRank(v, 99), 99);
    EXPECT_EQ(nearestRank(v, 99.9), 100);
}

TEST(Stats, TailLeavesTenSamplesBeyond)
{
    for (size_t n : {0u, 5u, 19u, 20u, 21u, 39u, 40u, 84u, 100u, 199u,
                     200u, 1000u, 9999u, 10000u, 50000u}) {
        TailPick pick = pickTail(n);
        EXPECT_EQ(pick.samples, n);
        if (pick.percentile == 0) {
            EXPECT_LT(n, 20u) << n; // even the median leaves < 10
            continue;
        }
        EXPECT_GE(pick.beyond, kTailBeyond) << n;
        // No higher rung of the ladder would also qualify.
        for (double p : {99.0, 95.0, 90.0, 75.0}) {
            if (p <= pick.percentile)
                break;
            size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
            EXPECT_LT(n - rank, kTailBeyond) << n << " p" << p;
        }
    }
    EXPECT_EQ(pickTail(20).percentile, 50);
    EXPECT_EQ(pickTail(84).percentile, 75);
    EXPECT_EQ(pickTail(100).percentile, 90);
    EXPECT_EQ(pickTail(200).percentile, 95);
    EXPECT_EQ(pickTail(1000).percentile, 99);
    EXPECT_EQ(pickTail(15600).percentile, 99);
}

TEST(Reduce, SelfTimeOnNestedTrace)
{
    // Lane 1: A [0,100] holds B [10,40] (which holds C [20,30]) and
    // D [45,60]. Lane 2: E [0,90] holds F [40,80]. An instant and a
    // metadata record are skipped.
    // A chip-lane span (tid 3) is dropped with its E.
    std::istringstream trace(R"({"traceEvents":[
{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"x"}},
{"ph":"B","ts":0,"pid":1,"tid":1,"name":"A","cat":"a"},
{"ph":"B","ts":0,"pid":1,"tid":2,"name":"E","cat":"e"},
{"ph":"B","ts":5,"pid":1,"tid":3,"name":"quantum","cat":"chip"},
{"ph":"B","ts":10,"pid":1,"tid":1,"name":"B","cat":"b","args":{"trace":"0x2a","op":"sim"}},
{"ph":"B","ts":20,"pid":1,"tid":1,"name":"C","cat":"c"},
{"ph":"i","s":"t","ts":25,"pid":1,"tid":1,"name":"tick"},
{"ph":"E","ts":30,"pid":1,"tid":1},
{"ph":"E","ts":35,"pid":1,"tid":3},
{"ph":"E","ts":40,"pid":1,"tid":1},
{"ph":"B","ts":40,"pid":1,"tid":2,"name":"F","cat":"f"},
{"ph":"B","ts":45,"pid":1,"tid":1,"name":"D","cat":"d"},
{"ph":"E","ts":60,"pid":1,"tid":1},
{"ph":"E","ts":80,"pid":1,"tid":2},
{"ph":"E","ts":100,"pid":1,"tid":1},
{"ph":"E","ts":90,"pid":1,"tid":2}
]})");
    std::vector<Span> spans = parseTrace(trace);
    computeSelfTime(spans);
    std::map<std::string, const Span *> by;
    for (const Span &s : spans)
        by[s.name] = &s;
    ASSERT_EQ(spans.size(), 6u);
    EXPECT_DOUBLE_EQ(by["A"]->selfUs, 100 - 30 - 15);
    EXPECT_DOUBLE_EQ(by["B"]->selfUs, 30 - 10);
    EXPECT_DOUBLE_EQ(by["C"]->selfUs, 10);
    EXPECT_DOUBLE_EQ(by["D"]->selfUs, 15);
    EXPECT_DOUBLE_EQ(by["E"]->selfUs, 90 - 40); // F nested [40,80]
    EXPECT_DOUBLE_EQ(by["F"]->selfUs, 40);
    EXPECT_EQ(by["B"]->trace, "0x2a");
    EXPECT_EQ(by["B"]->op, "sim");
    EXPECT_EQ(ancestorNamed(spans, 2, "A"), 0);
}

TEST(Reduce, RejectsUnbalancedTraces)
{
    auto parse = [](const char *text) {
        std::istringstream in(text);
        return parseTrace(in);
    };
    EXPECT_THROW(parse("{\"traceEvents\":[\n"
                       "{\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}\n]}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"traceEvents\":[\n"
                       "{\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1}\n]}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"traceEvents\":[\n{\"ph\":\"B\",\"ts\":\n]}"),
                 std::runtime_error);
}
