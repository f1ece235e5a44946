/**
 * @file
 * The three workloads: set-up, one op, and the checks that make an op
 * count as correct. The driver (driver.cc) times them; this layer only
 * does the work and reports what was simulated.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "oplist.hh"

namespace perfbench
{

/** Engine threads of every Runner and set-up pool (at most 2 of 4 cores). */
inline constexpr unsigned kEngineJobs = 2;

/** Simulated-activity counts of one op (deterministic for a seed). */
struct SimCounts
{
    uint64_t instructions = 0; //!< retired, summed over runs and tiles
    uint64_t cycles = 0;       //!< per-run (per-tile) cycles, summed
    uint64_t icacheAccesses = 0;
    uint64_t icacheMisses = 0;
    uint64_t wayMemoHits = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t coherenceInvalidations = 0;
    uint64_t simcacheHits = 0;   //!< SimCache after a suite_sweep op
    uint64_t simcacheMisses = 0;

    void add(const SimCounts &o);
    bool operator==(const SimCounts &o) const = default;
};

/** What one op did. */
struct OpResult
{
    bool ok = true;
    std::string error; //!< first failed check when !ok

    const char *kind = "";    //!< sweep, chip, probe, read or write
    bool hasSaving = false;   //!< priced FITS8 against ARM16
    double savingPct = 0;     //!< FITS8 vs ARM16 total I-cache energy
    SimCounts sim;            //!< activity of every result the op used
    uint64_t hostInstructions = 0; //!< instructions simulated here
};

/** Where the workload finds its inputs and keeps its state. */
struct WorkloadEnv
{
    uint64_t seed = 1;
    unsigned round = 0;          //!< which round of the seed's ops
    std::string goldenDir;       //!< tests/golden of the checkout
    std::string workDir;         //!< scratch space inside the checkout
    std::string pfitsd;          //!< daemon binary (svc_store)
    std::string daemonTrace;     //!< pfitsd --trace-out file, "" = none
};

/**
 * One session of a workload: setUp() once, then runOp() from its load
 * threads, then finish() and stop(). Each thread t runs ops
 * 0..streamLength(t)-1 of its own stream, in order (a closed loop per
 * thread).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Prepare everything the ops need; throws on a failed check. */
    virtual void setUp() = 0;

    virtual unsigned threads() const = 0;
    virtual size_t streamLength(unsigned thread) const = 0;

    /**
     * Ops of @p thread's stream a traced session runs: a prefix, where
     * a full round would trace too much (chip lanes record every
     * quantum).
     */
    virtual size_t
    tracedLength(unsigned thread) const
    {
        return streamLength(thread);
    }

    /** Run op @p index of @p thread's stream. Never throws. */
    virtual OpResult runOp(unsigned thread, size_t index) = 0;

    /**
     * Untimed work after op @p index of a traced session: suite_sweep
     * re-runs the op's prepare sub-steps under their own spans.
     */
    virtual void tracePrepare(size_t index) { (void)index; }

    /**
     * Checks that need the whole timed round (svc_store: every written
     * key reads back as a store hit). @return "" when they pass.
     */
    virtual std::string finish() { return ""; }

    /** Stop child processes; @return their peak RSS in MiB. */
    virtual double stop() { return 0; }

    /** Unrounded FITS8 saving of the paper-point sweep, in percent. */
    double paperSavingPct() const { return paperSavingPct_; }

  protected:
    double paperSavingPct_ = 0;
};

std::unique_ptr<Workload> makeWorkload(WorkloadId id,
                                       const WorkloadEnv &env);

/**
 * The SvcClient counters (svc.requests, svc.store.hits, ...) of the
 * installed MetricRegistry, by short name ("requests", "store_hits",
 * "store_misses", "fallbacks", "retries", "timeouts"); zeros when
 * none is installed.
 */
std::map<std::string, uint64_t> svcCounters();

/**
 * The paper-point correctness anchor every set-up runs: a cold
 * fast-backend Runner::all() at jobs 2 whose Figure 11, 13 and 14
 * tables must match tests/golden byte for byte, and whose runs must
 * all complete with their golden checksums. Throws on any mismatch.
 * @return the unrounded suite-average FITS8 total-energy saving (%).
 */
double checkPaperPoint(const std::string &golden_dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
