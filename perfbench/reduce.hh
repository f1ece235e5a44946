/**
 * @file
 * Trace reduction: rebuild the span tree of a Chrome trace-event file
 * written by TraceRecorder (the driver's own, or pfitsd --trace-out)
 * and compute each span's self time, i.e. its duration minus the part
 * of its interval that its child spans on the same lane cover.
 *
 * The reader streams the one-event-per-line layout TraceRecorder
 * writes, so a large trace never becomes one document in memory. Spans
 * of category "chip" (per-tile quantum slices on synthetic lanes) are
 * dropped: they re-draw time that the load thread's own span around
 * Chip::run already covers.
 */

#ifndef PERFBENCH_REDUCE_HH
#define PERFBENCH_REDUCE_HH

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    std::string cat;
    uint32_t lane = 0;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;    //!< enclosing span on the same lane, -1 = root
    std::string trace;  //!< args.trace (svc request id), "" if absent
    std::string op;     //!< args.op, "" if absent
    double selfUs = 0;  //!< filled by computeSelfTime

    double durUs() const { return endUs - startUs; }
};

/**
 * Parse a trace-event document, one event object per line, into spans
 * (B/E pairs; instants, metadata and chip lanes are skipped). Throws
 * std::runtime_error on a malformed event line, an E with no open B on
 * its lane, or a B that is never closed.
 */
std::vector<Span> parseTrace(std::istream &in);

/** Set every span's selfUs from its children's covered intervals. */
void computeSelfTime(std::vector<Span> &spans);

/** Read and parse @p path, with self times computed. */
std::vector<Span> loadTrace(const std::string &path);

/** Index of the nearest ancestor of @p i named @p name, or -1. */
int ancestorNamed(const std::vector<Span> &spans, int i,
                  const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_REDUCE_HH
