/**
 * @file
 * Order statistics the benchmark reports: medians and the tail rule.
 *
 * A tail is only meaningful where enough samples lie beyond it, so the
 * benchmark reports latency at the highest percentile of a fixed
 * ladder that leaves at least kTailBeyond samples above it, and says
 * which percentile and how many samples it used.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr size_t kTailBeyond = 10;

/** Median of @p v (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * The sample at nearest rank ceil(p/100 * n) of @p v (1-based), i.e.
 * the smallest value with at least p% of the samples at or below it.
 * 0 when @p v is empty.
 */
double nearestRank(std::vector<double> v, double p);

/** The percentile the tail rule picked, and the sample count behind it. */
struct TailPick
{
    double percentile = 0; //!< from kTailLadder; 0 = too few samples
    size_t samples = 0;    //!< n
    size_t beyond = 0;     //!< samples strictly above the reported rank
};

/**
 * The highest percentile of the ladder {99, 95, 90, 75, 50} whose
 * nearest rank leaves at least kTailBeyond of @p n samples beyond it.
 * percentile = 0 when even the median does not qualify. The ladder
 * stops at p99: svc_store's p99.9 rests on the 15 slowest of 15600
 * ops, which one or two disk stalls decide, and spread 59% between
 * runs.
 */
TailPick pickTail(size_t n);

/** Value at @p pick over @p v (the maximum when pick.percentile = 0). */
double tailValue(const std::vector<double> &v, const TailPick &pick);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
