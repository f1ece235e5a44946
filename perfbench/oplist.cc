#include "oplist.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.hh"

namespace perfbench
{

namespace
{

/** Mix a stream label into the run seed (splitmix64 finalizer). */
uint64_t
mix(uint64_t seed, uint64_t label)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (label + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fisher-Yates with the repository's deterministic Rng. */
template <typename T>
void
shuffle(std::vector<T> &v, pfits::Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(static_cast<uint32_t>(i))]);
}

std::vector<uint8_t>
permutation(const std::vector<uint8_t> &items, pfits::Rng &rng)
{
    std::vector<uint8_t> p = items;
    shuffle(p, rng);
    return p;
}

} // namespace

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::SuiteSweep: return "suite_sweep";
      case WorkloadId::ChipProbe: return "chip_probe";
      case WorkloadId::SvcStore: return "svc_store";
    }
    return "?";
}

bool
parseWorkload(const std::string &text, WorkloadId *id)
{
    for (WorkloadId w : {WorkloadId::SuiteSweep, WorkloadId::ChipProbe,
                         WorkloadId::SvcStore}) {
        if (text == workloadName(w)) {
            *id = w;
            return true;
        }
    }
    return false;
}

unsigned
loadThreads(WorkloadId id)
{
    return id == WorkloadId::SuiteSweep ? 1 : 2;
}

unsigned
sessions(WorkloadId id, unsigned seconds, bool traced)
{
    // Sizing constants, not measurements: the share of --seconds one
    // session stands for.
    const double share_s = id == WorkloadId::SuiteSweep ? 10 : 5;
    const unsigned n = std::max(1u, static_cast<unsigned>(std::lround(
                                        std::max(1u, seconds) / share_s)));
    return traced ? (n + 1) / 2 : n;
}

SweepPoint
paperPoint()
{
    return SweepPoint{};
}

std::vector<SweepPoint>
sweepGrid()
{
    std::vector<SweepPoint> grid;
    for (uint32_t assoc : {2u, 8u, 32u}) {
        for (uint32_t line : {16u, 32u, 64u}) {
            SweepPoint paper_sized;
            paper_sized.assoc = assoc;
            paper_sized.lineBytes = line;
            grid.push_back(paper_sized);

            SweepPoint half = paper_sized;
            half.smallBytes /= 2;
            half.largeBytes /= 2;
            half.missPenalty *= 2;
            grid.push_back(half);
        }
    }
    return grid;
}

std::vector<SweepPoint>
impossiblePoints()
{
    std::vector<SweepPoint> points;
    for (uint32_t line : {16u, 32u, 64u}) {
        SweepPoint p;
        p.assoc = 4096;
        p.lineBytes = line;
        points.push_back(p);
    }
    return points;
}

std::vector<SweepPoint>
sweepOps(uint64_t seed, unsigned round)
{
    pfits::Rng rng(mix(seed, (uint64_t(round) << 16) | 1));
    std::vector<SweepPoint> ops = sweepGrid();
    shuffle(ops, rng);
    return ops;
}

std::vector<std::vector<KernelSetOp>>
chipProbeStreams(uint64_t seed, unsigned round, unsigned threads)
{
    constexpr unsigned kPerms = 4; // 84 kernels = 21 sets
    std::vector<uint8_t> suite(kSuiteKernels);
    std::iota(suite.begin(), suite.end(), 0);

    std::vector<std::vector<KernelSetOp>> streams(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pfits::Rng rng(mix(seed, (uint64_t(round) << 16) | (100 + t)));
        std::vector<uint8_t> slots;
        for (unsigned p = 0; p < kPerms; ++p) {
            std::vector<uint8_t> perm = permutation(suite, rng);
            slots.insert(slots.end(), perm.begin(), perm.end());
        }
        const size_t sets = slots.size() / 4;
        std::vector<uint8_t> chip(sets, 0);
        for (size_t i = 0; i < sets / 2 + round % 2; ++i)
            chip[i] = 1;
        shuffle(chip, rng);
        for (size_t s = 0; s < sets; ++s) {
            KernelSetOp op;
            op.chip = chip[s] != 0;
            for (size_t k = 0; k < 4; ++k)
                op.kernels[k] = slots[s * 4 + k];
            streams[t].push_back(op);
        }
    }
    return streams;
}

std::vector<std::vector<StoreOp>>
storeStreams(uint64_t seed, unsigned blocks, unsigned threads,
             unsigned round)
{
    std::vector<std::vector<StoreOp>> streams(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pfits::Rng rng(mix(seed, (uint64_t(round) << 16) | (200 + t)));
        std::vector<uint8_t> mine;
        for (uint8_t b = 0; b < kSuiteKernels; ++b)
            if (b % threads == t)
                mine.push_back(b);

        std::vector<uint8_t> reads; // refilled with permutations
        size_t next_read = 0;
        uint64_t writes = 0;
        for (unsigned blk = 0; blk < blocks; ++blk) {
            std::vector<uint8_t> is_write(kStoreBlock, 0);
            for (unsigned i = 0; i < kStoreWrites; ++i)
                is_write[i] = 1;
            shuffle(is_write, rng);
            for (uint8_t w : is_write) {
                StoreOp op;
                op.write = w != 0;
                if (w) {
                    op.progSeed = mix(seed, (uint64_t(round) << 48) |
                                                (uint64_t(t) << 40) |
                                                writes++);
                } else {
                    if (next_read == reads.size()) {
                        reads = permutation(mine, rng);
                        next_read = 0;
                    }
                    op.bench = reads[next_read++];
                }
                streams[t].push_back(op);
            }
        }
    }
    return streams;
}

} // namespace perfbench
