#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

namespace
{

constexpr double kTailLadder[] = {99, 95, 90, 75, 50};

/** 1-based nearest rank of percentile @p p over @p n samples. */
size_t
rankOf(size_t n, double p)
{
    auto r = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    return std::clamp<size_t>(r, 1, n);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
nearestRank(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[rankOf(v.size(), p) - 1];
}

TailPick
pickTail(size_t n)
{
    TailPick pick;
    pick.samples = n;
    for (double p : kTailLadder) {
        if (n == 0)
            break;
        size_t beyond = n - rankOf(n, p);
        if (beyond >= kTailBeyond) {
            pick.percentile = p;
            pick.beyond = beyond;
            return pick;
        }
    }
    return pick;
}

double
tailValue(const std::vector<double> &v, const TailPick &pick)
{
    if (v.empty())
        return 0;
    if (pick.percentile == 0)
        return *std::max_element(v.begin(), v.end());
    return nearestRank(v, pick.percentile);
}

} // namespace perfbench
