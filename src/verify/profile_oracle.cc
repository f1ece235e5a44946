#include "verify/profile_oracle.hh"

#include "common/logging.hh"
#include "sim/executor.hh"
#include "sim/machine.hh"

namespace pfits
{

std::vector<uint64_t>
oracleRetireCounts(const FrontEnd &fe, uint64_t max_instrs,
                   uint64_t &dispatched)
{
    const size_t num_insns = fe.numInstructions();
    std::vector<uint64_t> counts(num_insns, 0);

    Memory mem;
    for (const DataSegment &seg : fe.dataSegments())
        mem.writeBytes(seg.base, seg.bytes);
    CpuState state;
    state.regs[SP] = fe.stackTop();
    IoSinks io;
    const AddrCodec codec = fe.codec();
    ExecInfo exec_info;
    uint64_t index = 0;
    uint64_t executed = 0;
    while (!state.halted) {
        if (index >= num_insns)
            fatal("profile of '%s': fell off the end of the program",
                  fe.name().c_str());
        if (executed++ >= max_instrs)
            fatal("profile of '%s': exceeded instruction cap",
                  fe.name().c_str());
        ++counts[static_cast<size_t>(index)];
        execute(fe.uopAt(static_cast<size_t>(index)), index, codec,
                state, mem, io, exec_info);
        index = exec_info.nextIndex;
    }
    dispatched = executed;
    return counts;
}

namespace
{

/** One side's outcome: counts, or the type and text it threw. */
struct CountRun
{
    std::vector<uint64_t> counts;
    uint64_t dispatched = 0;
    std::string error; //!< "<TrapError|FatalError>: <what()>"
};

template <typename Fn>
CountRun
runCounts(Fn &&count)
{
    CountRun run;
    try {
        run.counts = count(run.dispatched);
    } catch (const TrapError &e) {
        run.error = std::string("TrapError: ") + e.what();
    } catch (const FatalError &e) {
        run.error = std::string("FatalError: ") + e.what();
    }
    return run;
}

} // namespace

void
diffRetireCounts(const FrontEnd &fe, std::vector<std::string> &out,
                 uint64_t max_instrs)
{
    const CountRun fast = runCounts([&](uint64_t &dispatched) {
        return countRetires(fe, max_instrs, dispatched);
    });
    const CountRun oracle = runCounts([&](uint64_t &dispatched) {
        return oracleRetireCounts(fe, max_instrs, dispatched);
    });

    if (fast.error != oracle.error) {
        out.push_back(detail::format(
            "profile counts: fast threw '%s', oracle threw '%s'",
            fast.error.c_str(), oracle.error.c_str()));
        return;
    }
    if (!fast.error.empty())
        return; // both failed identically
    if (fast.dispatched != oracle.dispatched)
        out.push_back(detail::format(
            "profile counts: total %llu vs oracle %llu",
            static_cast<unsigned long long>(fast.dispatched),
            static_cast<unsigned long long>(oracle.dispatched)));
    for (size_t i = 0; i < fast.counts.size(); ++i) {
        if (fast.counts[i] != oracle.counts[i]) {
            out.push_back(detail::format(
                "profile counts: instruction %zu dispatched %llu times "
                "vs oracle %llu",
                i, static_cast<unsigned long long>(fast.counts[i]),
                static_cast<unsigned long long>(oracle.counts[i])));
            break; // the first divergent instruction locates the bug
        }
    }
}

} // namespace pfits
