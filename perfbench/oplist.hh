/**
 * @file
 * The benchmark's workloads and their seeded op sequences.
 *
 * A run is a number of sessions (see sessions()), each timing one
 * round of ops. The seed and the round index fix every op of a round;
 * how many rounds a run has is fixed by the workload and the requested
 * run length, never by how fast the host happens to be. Each round is
 * balanced — every grid point, kernel or store key appears equally
 * often, in a seed-shuffled order — so runs with different seeds do
 * comparable work and their figures can be compared.
 */

#ifndef PERFBENCH_OPLIST_HH
#define PERFBENCH_OPLIST_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

enum class WorkloadId { SuiteSweep, ChipProbe, SvcStore };

const char *workloadName(WorkloadId id);

/** Parse "suite_sweep" / "chip_probe" / "svc_store". */
bool parseWorkload(const std::string &text, WorkloadId *id);

/** Closed-loop load threads a workload drives (at most 2). */
unsigned loadThreads(WorkloadId id);

/**
 * Sessions per run: each is one set-up plus one timed round, and a run
 * has round(seconds / L) of them (at least one), with L = 10 s for
 * suite_sweep and 5 s for chip_probe and svc_store (3, 6 and 6 sessions
 * at 30 s). L is a sizing constant, not a round's length: on a shared
 * 4-vCPU Xeon VM a round takes about 11 s (suite_sweep), 6.5 s
 * (chip_probe) and 2.5 s (svc_store). A run with @p traced set times
 * half as many sessions (rounded up), untraced and then traced. The
 * count depends on @p seconds only, so the work is the same on every
 * host.
 */
unsigned sessions(WorkloadId id, unsigned seconds, bool traced);

/** Number of kernels in the MiBench suite the ops index into. */
inline constexpr unsigned kSuiteKernels = 21;

// --- suite_sweep ---------------------------------------------------------

/** One I-cache design point of the cold suite sweep. */
struct SweepPoint
{
    uint32_t assoc = 32;
    uint32_t lineBytes = 32;
    uint32_t smallBytes = 8 * 1024;  //!< ARM8/FITS8 I-cache
    uint32_t largeBytes = 16 * 1024; //!< ARM16/FITS16 I-cache
    unsigned missPenalty = 24;       //!< I-cache refill cycles

    bool operator==(const SweepPoint &o) const = default;
};

/** The paper's design point (SA-1100 I-cache, ExperimentParams defaults). */
SweepPoint paperPoint();

/**
 * The geometry grid the sweep draws from: associativity {2, 8, 32} x
 * line {16, 32, 64} bytes x {paper sizes and penalty, half sizes and
 * double penalty}: 18 points. Every point is a valid cache; the
 * impossible
 * 4096-way points abl_cache_geometry also lists are checked for
 * rejection during set-up instead of being timed.
 */
std::vector<SweepPoint> sweepGrid();

/** 4096-way points the cache model must reject (set-up check). */
std::vector<SweepPoint> impossiblePoints();

/** Round @p round: a seed-shuffled pass over sweepGrid(). */
std::vector<SweepPoint> sweepOps(uint64_t seed, unsigned round);

// --- chip_probe ----------------------------------------------------------

/** One chip_probe op: four kernels priced in ARM16 and FITS8. */
struct KernelSetOp
{
    bool chip = false; //!< 4-tile Chip::run, else four probed Machine runs
    std::array<uint8_t, 4> kernels{}; //!< suite indices

    bool operator==(const KernelSetOp &o) const = default;
};

/**
 * Round @p round: one op stream per load thread, 21 ops each, whose
 * kernels are four concatenated permutations of the suite cut into
 * sets of four. Even rounds have 10 chip ops per thread, odd rounds 11,
 * so every two rounds are half chip, half probe.
 */
std::vector<std::vector<KernelSetOp>>
chipProbeStreams(uint64_t seed, unsigned round, unsigned threads);

// --- svc_store -----------------------------------------------------------

/** One svc_store op. */
struct StoreOp
{
    bool write = false;    //!< fresh non-suite key, else a suite read
    uint8_t bench = 0;     //!< suite index (reads)
    uint64_t progSeed = 0; //!< randomVerifyProgram seed (writes)

    bool operator==(const StoreOp &o) const = default;
};

/** Ops per block; kStoreWrites of them are writes (15%). */
inline constexpr unsigned kStoreBlock = 20;
inline constexpr unsigned kStoreWrites = 3;

/**
 * Blocks per client per svc_store round (2600 ops in all). Bounded by
 * pfitsd: it keeps one finished-but-unjoined thread per connection
 * until it stops and aborts once thread creation fails (about 30k
 * connections on a 65530-map host); a round makes about 10k.
 */
inline constexpr unsigned kStoreBlocks = 65;

/**
 * Round @p round: one op stream per client thread, @p blocks blocks
 * each. Thread t reads only the suite kernels with index % threads ==
 * t, so one client's locally cached result can never answer the
 * other's request. Every round writes its own fresh keys.
 */
std::vector<std::vector<StoreOp>>
storeStreams(uint64_t seed, unsigned blocks, unsigned threads,
             unsigned round);

} // namespace perfbench

#endif // PERFBENCH_OPLIST_HH
