/**
 * @file
 * perfbench_driver: runs one workload for one seed and prints its
 * metrics as the last line of stdout.
 *
 *   perfbench_driver --workload suite_sweep|chip_probe|svc_store
 *                    --seed N --seconds S --trace 0|1
 *                    --golden DIR --work DIR --pfitsd BIN --report BIN
 *
 * --trace 0 prints the end-to-end metrics of an untraced timed pass.
 * --trace 1 runs the same ops untraced, then again under the
 * TraceRecorder (and pfitsd --trace-out), validates and reduces both
 * traces, and prints the per-layer metrics. A failed correctness check
 * prints {"correct": false, ...} with no metrics and exits 1; a usage
 * or environment error prints no result and exits 2.
 */

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "oplist.hh"
#include "proc.hh"
#include "reduce.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** The paper's FITS8 total I-cache saving (EXPERIMENTS.md abstract). */
constexpr double kPaperSavingPct = 46.6;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

struct Options
{
    WorkloadId workload = WorkloadId::SuiteSweep;
    uint64_t seed = 1;
    unsigned seconds = 15;
    bool trace = false;
    std::string golden, work, pfitsd, report;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload suite_sweep|chip_probe|svc_store --seed N "
                 "--seconds S --trace 0|1 --golden DIR --work DIR "
                 "--pfitsd BIN --report BIN\n",
                 msg.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !end || *end != '\0')
        usageError(flag + " wants a non-negative integer");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError(flag + " requires a value");
        std::string value = argv[++i];
        seen.insert(flag);
        if (flag == "--workload") {
            if (!parseWorkload(value, &o.workload))
                usageError("unknown workload '" + value + "'");
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<unsigned>(parseUnsigned(flag, value));
            if (o.seconds == 0 || o.seconds > 600)
                usageError("--seconds wants 1..600");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usageError("--trace wants 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--golden") {
            o.golden = value;
        } else if (flag == "--work") {
            o.work = value;
        } else if (flag == "--pfitsd") {
            o.pfitsd = value;
        } else if (flag == "--report") {
            o.report = value;
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    for (const char *req : {"--workload", "--golden", "--work",
                            "--pfitsd", "--report"})
        if (!seen.count(req))
            usageError(std::string("missing ") + req);
    return o;
}

/** Refuse builds whose timings would not mean anything. */
void
runGuard()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    usageError("refusing a sanitizer build");
#endif
#ifndef __OPTIMIZE__
    usageError("refusing a non-optimised build");
#endif
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        usageError("refusing build type '" + type + "'");
}

std::string
fsTypeName(const std::string &path)
{
    struct statfs st{};
    if (::statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: return "ext2/ext3/ext4";
      case 0x01021994: return "tmpfs";
      case 0x794c7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%lx",
                  static_cast<unsigned long>(st.f_type));
    return buf;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed pass over the ops of every stream. */
struct Pass
{
    double wallSec = 0;
    std::vector<std::vector<double>> threadMs; //!< [thread][op]
    std::vector<double> latencyMs;             //!< all threads
    std::vector<OpResult> results;
};

Pass
runPass(Workload &w, bool traced)
{
    const unsigned threads = w.threads();
    std::vector<std::vector<double>> lat(threads);
    std::vector<std::vector<OpResult>> res(threads);
    for (unsigned t = 0; t < threads; ++t) {
        const size_t n = traced ? w.tracedLength(t) : w.streamLength(t);
        lat[t].resize(n);
        res[t].resize(n);
    }

    auto loop = [&](unsigned t) {
        if (traced)
            if (pfits::TraceRecorder *rec = pfits::TraceRecorder::current())
                rec->nameThisThread("load " + std::to_string(t));
        for (size_t i = 0; i < lat[t].size(); ++i) {
            auto t0 = std::chrono::steady_clock::now();
            {
                pfits::TraceSpan span("bench.op", "bench",
                                      pfits::TraceArgs()
                                          .add("thread", t)
                                          .add("index", uint64_t(i)));
                res[t][i] = w.runOp(t, i);
            }
            lat[t][i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        }
    };

    double t0 = nowSec();
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(loop, t);
    loop(0);
    for (std::thread &th : pool)
        th.join();

    Pass pass;
    pass.wallSec = nowSec() - t0;
    pass.threadMs = lat;
    for (unsigned t = 0; t < threads; ++t) {
        pass.latencyMs.insert(pass.latencyMs.end(), lat[t].begin(),
                              lat[t].end());
        for (OpResult &r : res[t])
            pass.results.push_back(std::move(r));
    }
    return pass;
}

/** Ordered metric list: name -> (value, unit). */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            value = 0;
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        for (size_t i = 0; i < entries_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.15g", entries_[i].value);
            os << (i ? ", " : "") << "\"" << entries_[i].name
               << "\": {\"value\": " << buf << ", \"unit\": \""
               << entries_[i].unit << "\"}";
        }
        os << "}";
        return os.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

SimCounts
sumCounts(const std::vector<OpResult> &results)
{
    SimCounts c;
    for (const OpResult &r : results)
        c.add(r.sim);
    return c;
}

uint64_t
instructionsOf(const std::vector<OpResult> &results, const char *kind)
{
    uint64_t n = 0;
    for (const OpResult &r : results)
        if (std::string(r.kind) == kind)
            n += r.hostInstructions;
    return n;
}

double
meanSaving(const std::vector<OpResult> &results)
{
    double sum = 0;
    size_t n = 0;
    for (const OpResult &r : results) {
        if (r.hasSaving) {
            sum += r.savingPct;
            ++n;
        }
    }
    return n ? sum / n : 0;
}

/** First failure among @p results, "" when every op passed. */
std::string
firstFailure(const std::vector<OpResult> &results, size_t *failed)
{
    std::string first;
    *failed = 0;
    for (const OpResult &r : results) {
        if (!r.ok) {
            ++*failed;
            if (first.empty())
                first = r.error;
        }
    }
    return first;
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::string &metrics_json)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_json.c_str());
    std::fflush(stdout);
}

[[noreturn]] void
failRun(size_t attempted, size_t failed, const std::string &why)
{
    std::fprintf(stderr, "perfbench_driver: check failed: %s\n",
                 why.c_str());
    printResult(false, attempted, std::max<size_t>(failed, 1), "{}");
    std::exit(1);
}

std::string
provenanceLine(const Options &o, const std::map<std::string, TailPick>
                                     &tails)
{
    double load[3] = {0, 0, 0};
    if (::getloadavg(load, 3) < 1)
        load[0] = -1;
    std::ostringstream os;
    os << "provenance: workload=" << workloadName(o.workload)
       << " seed=" << o.seed << " seconds=" << o.seconds
       << " trace=" << (o.trace ? 1 : 0)
       << " nproc=" << std::thread::hardware_concurrency()
       << " build=" << PERFBENCH_BUILD_TYPE << " loadavg1=" << load[0]
       << " store_fs=" << fsTypeName(o.work)
       << " load_threads=" << loadThreads(o.workload);
    for (const auto &[name, pick] : tails) {
        os << " " << name << "=p" << pick.percentile << "/n"
           << pick.samples << "/beyond" << pick.beyond;
    }
    return os.str();
}

/** Spans of one trace named @p name. */
std::vector<int>
spansNamed(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<int> out;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name)
            out.push_back(static_cast<int>(i));
    return out;
}

bool
inside(const Span &s, const Span &window)
{
    return s.startUs >= window.startUs && s.endUs <= window.endUs;
}

/** Module a span's self time is charged to. */
std::string
moduleOf(const Span &s)
{
    if (s.cat == "runner" || s.cat == "pool" || s.cat == "exp")
        return "exp";
    if (s.cat == "simcache" || s.cat == "sim")
        return "sim";
    return s.cat;
}

/** Prepare's sub-steps, as (metric, span name). */
const std::vector<std::pair<std::string, std::string>> kPrepareSteps = {
    {"mibench.build_ms", "mibench.build"},
    {"fits.profile_ms", "fits.profile"},
    {"fits.synth_ms", "fits.synth"},
    {"fits.translate_ms", "fits.translate"},
    {"thumb.estimate_ms", "thumb.estimate"}};

/** Per-layer samples accumulated over every traced session. */
struct LayerSamples
{
    std::vector<double> prepareMs, idleMs, simulateMs, powerUs;
    std::map<std::string, std::vector<double>> stepMs;
    double fastUs = 0, machineUs = 0, chipUs = 0;
    std::vector<double> client, server, wire, get, put, lease;
    std::map<std::string, double> selfUs;
};

/** Reduce one session's driver trace into @p l. */
void
collectDriver(const std::vector<Span> &spans, WorkloadId id,
              LayerSamples &l)
{
    const std::vector<int> ops = spansNamed(spans, "bench.op");
    for (int w : ops) {
        // suite_sweep runs one op at a time, so the runner's worker
        // lanes inside an op's window belong to that op.
        if (id == WorkloadId::SuiteSweep) {
            double busy = 0, phase = 0, sim = 0;
            for (const Span &s : spans) {
                if (!inside(s, spans[w]))
                    continue;
                if (s.name == "prepare")
                    busy += s.durUs();
                else if (s.name == "phase.prepare")
                    phase += s.durUs();
                else if (s.name == "phase.simulate")
                    sim += s.durUs();
            }
            l.prepareMs.push_back(busy / 1e3);
            l.idleMs.push_back((kEngineJobs * phase - busy) / 1e3);
            l.simulateMs.push_back(sim / 1e3);
        }
        if (id == WorkloadId::ChipProbe) {
            double us = 0;
            for (size_t i = 0; i < spans.size(); ++i)
                if (spans[i].name == "power.eval" &&
                    ancestorNamed(spans, static_cast<int>(i),
                                  "bench.op") == w)
                    us += spans[i].durUs();
            l.powerUs.push_back(us);
        }
    }
    for (int w : spansNamed(spans, "bench.prepare_steps")) {
        for (const auto &[metric, name] : kPrepareSteps) {
            double us = 0;
            for (const Span &s : spans)
                if (s.name == name && inside(s, spans[w]))
                    us += s.selfUs;
            l.stepMs[metric].push_back(us / 1e3);
        }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        l.selfUs[moduleOf(s)] += s.selfUs;
        if (s.name == "sim" && s.cat == "simcache")
            l.fastUs += s.selfUs;
        if (ancestorNamed(spans, static_cast<int>(i), "bench.op") < 0)
            continue;
        if (s.name == "sim.machine_run")
            l.machineUs += s.durUs();
        else if (s.name == "sim.chip_run")
            l.chipUs += s.durUs();
    }
}

/**
 * Join one session's client svc.request spans with the daemon's on
 * trace id. @return "" or why the join is incomplete.
 */
std::string
collectSvc(const std::vector<Span> &spans, const std::vector<Span> &dspans,
           LayerSamples &l)
{
    std::map<std::string, int> served;
    for (size_t i = 0; i < dspans.size(); ++i)
        if (dspans[i].name == "svc.request" && !dspans[i].trace.empty())
            served[dspans[i].trace] = static_cast<int>(i);
    std::set<int> joined_reads;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.name != "svc.request" || s.trace.empty() ||
            ancestorNamed(spans, static_cast<int>(i), "bench.op") < 0)
            continue;
        auto it = served.find(s.trace);
        if (it == served.end())
            return "trace join: client request " + s.trace +
                   " has no daemon span";
        const Span &d = dspans[it->second];
        l.client.push_back(s.durUs() / 1e3);
        if (s.op == "sim") {
            l.server.push_back(d.durUs() / 1e3);
            l.wire.push_back((s.durUs() - d.durUs()) / 1e3);
            joined_reads.insert(it->second);
        } else {
            l.lease.push_back(d.durUs() / 1e3);
        }
    }
    for (size_t i = 0; i < dspans.size(); ++i) {
        int req = ancestorNamed(dspans, static_cast<int>(i), "svc.request");
        if (req < 0)
            continue;
        if (dspans[i].name == "store.get" && joined_reads.count(req))
            l.get.push_back(dspans[i].durUs() / 1e3);
        else if (dspans[i].name == "store.put" && dspans[req].op == "put")
            l.put.push_back(dspans[i].durUs() / 1e3);
    }
    return "";
}

void
validateTrace(const Options &o, const std::string &path)
{
    std::string output;
    int rc = runChild({o.report, "validate-trace", path}, 120'000,
                      &output);
    if (rc != 0)
        throw std::runtime_error("pfits_report validate-trace " + path +
                                 ": " + output);
}

/** Everything a run's sessions measured. */
struct RunTotals
{
    std::vector<OpResult> results;
    std::vector<double> sessionOpsPerSec, sessionP50Ms, sessionTailMs,
        sessionMinstrPerSec;
    TailPick sessionTail; //!< the tail rule over one session's ops
    std::vector<std::vector<std::vector<double>>> threadMs; //!< [session]
    std::vector<double> setupS;
    double peakRssMb = 0;   //!< children (pfitsd)
    double paperSavingPct = 0;
    std::map<std::string, uint64_t> svc; //!< counter deltas, timed rounds
    LayerSamples layers;    //!< traced sessions only
};

/**
 * Run every session of the workload: set up, time one round, check,
 * stop. @p traced records and reduces the traces of each round.
 * Exits through failRun() on any failed check.
 */
RunTotals
runSessions(const Options &o, WorkloadEnv env, bool traced,
            size_t attempted_before)
{
    RunTotals run;
    run.svc = svcCounters();
    for (auto &[k, v] : run.svc)
        v = 0;
    const unsigned n = sessions(o.workload, o.seconds, o.trace);
    for (unsigned s = 0; s < n; ++s) {
        const std::string tag = (traced ? "traced." : "") +
                                std::to_string(s);
        env.round = s;
        env.daemonTrace = traced && o.workload == WorkloadId::SvcStore
                              ? o.work + "/pfitsd." + tag + ".trace.json"
                              : "";
        const size_t attempted = attempted_before + run.results.size();

        std::unique_ptr<Workload> w;
        double t0 = nowSec();
        try {
            w = makeWorkload(o.workload, env);
            w->setUp();
        } catch (const std::exception &e) {
            if (w)
                w->stop();
            failRun(attempted, 1, std::string("set-up: ") + e.what());
        }
        run.setupS.push_back(nowSec() - t0);
        run.paperSavingPct = w->paperSavingPct();

        std::unique_ptr<pfits::TraceRecorder> rec;
        if (traced) {
            rec = std::make_unique<pfits::TraceRecorder>();
            pfits::TraceRecorder::install(rec.get());
        }
        const auto before = svcCounters();
        Pass pass = runPass(*w, traced);
        for (const auto &[k, v] : svcCounters())
            run.svc[k] += v - before.at(k);
        if (traced && o.workload == WorkloadId::SuiteSweep) {
            // Prepare's sub-steps, outside the op timing.
            for (size_t i = 0; i < pass.results.size(); ++i) {
                pfits::TraceSpan span("bench.prepare_steps", "bench");
                w->tracePrepare(i);
            }
        }
        if (traced)
            pfits::TraceRecorder::install(nullptr);

        size_t failed = 0;
        std::string err = firstFailure(pass.results, &failed);
        if (err.empty())
            err = w->finish();
        run.peakRssMb = std::max(run.peakRssMb, w->stop());
        if (!err.empty())
            failRun(attempted + pass.results.size(), failed, err);

        if (traced) {
            const std::string path =
                o.work + "/driver." + tag + ".trace.json";
            try {
                std::ofstream out(path);
                rec->writeJson(out);
                out.close();
                if (!out)
                    throw std::runtime_error("cannot write " + path);
                rec.reset();
                validateTrace(o, path);
                std::vector<Span> spans = loadTrace(path);
                collectDriver(spans, o.workload, run.layers);
                if (!env.daemonTrace.empty()) {
                    validateTrace(o, env.daemonTrace);
                    err = collectSvc(spans, loadTrace(env.daemonTrace),
                                     run.layers);
                    if (!err.empty())
                        throw std::runtime_error(err);
                }
            } catch (const std::exception &e) {
                failRun(attempted + pass.results.size(), 1, e.what());
            }
        }

        run.threadMs.push_back(pass.threadMs);
        run.sessionOpsPerSec.push_back(pass.results.size() / pass.wallSec);
        run.sessionP50Ms.push_back(median(pass.latencyMs));
        run.sessionTail = pickTail(pass.latencyMs.size());
        run.sessionTailMs.push_back(
            tailValue(pass.latencyMs, run.sessionTail));
        uint64_t host_instr = 0;
        for (const OpResult &r : pass.results)
            host_instr += r.hostInstructions;
        run.sessionMinstrPerSec.push_back(host_instr / pass.wallSec / 1e6);
        for (OpResult &r : pass.results)
            run.results.push_back(std::move(r));
    }
    return run;
}

/**
 * The end-to-end metrics of an untraced run. Throughput, latency and
 * simulation rate come from the run's best session: on a shared host,
 * contention from other tenants only ever adds time, and it comes in
 * phases longer than a session; so does the tail, unless a round is too
 * short for the tail rule. Set-up is the median over sessions.
 */
Metrics
endToEnd(const RunTotals &run, std::map<std::string, TailPick> *tails)
{
    Metrics m;
    const SimCounts c = sumCounts(run.results);
    TailPick tail = run.sessionTail;
    double tail_ms = *std::min_element(run.sessionTailMs.begin(),
                                       run.sessionTailMs.end());
    if (tail.percentile == 0) {
        // A round too short for every percentile of the ladder
        // (suite_sweep's 18 ops) takes its tail over the run's ops.
        std::vector<double> all;
        for (const auto &session : run.threadMs)
            for (const auto &thread : session)
                all.insert(all.end(), thread.begin(), thread.end());
        tail = pickTail(all.size());
        tail_ms = tailValue(all, tail);
    }
    (*tails)["op_tail"] = tail;
    m.set("setup_s", median(run.setupS), "s");
    m.set("ops_per_s",
          *std::max_element(run.sessionOpsPerSec.begin(),
                            run.sessionOpsPerSec.end()),
          "1/s");
    m.set("op_p50_ms",
          *std::min_element(run.sessionP50Ms.begin(),
                            run.sessionP50Ms.end()),
          "ms");
    m.set("op_tail_ms", tail_ms, "ms");
    m.set("sim_minstr_per_s",
          *std::max_element(run.sessionMinstrPerSec.begin(),
                            run.sessionMinstrPerSec.end()),
          "Minstr/s");
    m.set("peak_rss_mb", std::max(selfPeakRssMb(), run.peakRssMb), "MiB");
    m.set("sim_ipc",
          c.cycles ? static_cast<double>(c.instructions) / c.cycles : 0,
          "instr/cycle");
    m.set("icache_saving_pct", meanSaving(run.results), "%");
    m.set("saving_err_pts",
          std::fabs(run.paperSavingPct - kPaperSavingPct), "points");
    return m;
}

/** The per-layer metrics of a traced run against its untraced twin. */
Metrics
perLayer(const RunTotals &base, const RunTotals &traced,
         std::map<std::string, TailPick> *tails)
{
    Metrics m;
    const LayerSamples &l = traced.layers;
    const double n_ops = std::max<size_t>(1, traced.results.size());
    const SimCounts c = sumCounts(traced.results);

    m.set("exp.prepare_ms", median(l.prepareMs), "ms");
    m.set("exp.barrier_idle_ms", median(l.idleMs), "ms");
    m.set("exp.simulate_ms", median(l.simulateMs), "ms");
    m.set("exp.simcache_misses", c.simcacheMisses / n_ops, "count");
    m.set("exp.simcache_hits", c.simcacheHits / n_ops, "count");
    for (const auto &[metric, name] : kPrepareSteps) {
        auto it = l.stepMs.find(metric);
        m.set(metric, it == l.stepMs.end() ? 0 : median(it->second), "ms");
    }

    auto ns_per = [&](double us, const char *kind) {
        uint64_t instr = instructionsOf(traced.results, kind);
        return instr ? us * 1e3 / static_cast<double>(instr) : 0.0;
    };
    m.set("sim.fast_ns_per_instr", ns_per(l.fastUs, "sweep"), "ns/instr");
    m.set("sim.observed_ns_per_instr", ns_per(l.machineUs, "probe"),
          "ns/instr");
    m.set("sim.chip_ns_per_instr", ns_per(l.chipUs, "chip"), "ns/instr");
    m.set("sim.instructions", static_cast<double>(c.instructions), "count");
    m.set("sim.cycles", static_cast<double>(c.cycles), "count");

    m.set("cache.icache_accesses", static_cast<double>(c.icacheAccesses),
          "count");
    m.set("cache.icache_misses", static_cast<double>(c.icacheMisses),
          "count");
    m.set("cache.way_memo_hits", static_cast<double>(c.wayMemoHits),
          "count");
    m.set("cache.l2_accesses", static_cast<double>(c.l2Accesses), "count");
    m.set("cache.l2_misses", static_cast<double>(c.l2Misses), "count");
    m.set("cache.coherence_invalidations",
          static_cast<double>(c.coherenceInvalidations), "count");

    m.set("power.eval_us", median(l.powerUs), "us");

    const TailPick client_tail = pickTail(l.client.size());
    if (!l.client.empty())
        (*tails)["svc_client_tail"] = client_tail;
    m.set("svc.client_req_ms", median(l.client), "ms");
    m.set("svc.client_req_tail_ms", tailValue(l.client, client_tail),
          "ms");
    m.set("svc.server_req_ms", median(l.server), "ms");
    m.set("svc.wire_ms", median(l.wire), "ms");
    m.set("svc.store_get_ms", median(l.get), "ms");
    m.set("svc.store_put_ms", median(l.put), "ms");
    m.set("svc.lease_wait_ms", median(l.lease), "ms");
    for (const auto &[name, count] : traced.svc)
        m.set("svc." + name, static_cast<double>(count), "count");
    const double reqs = static_cast<double>(traced.svc.at("requests"));
    m.set("svc.hit_ratio",
          reqs ? traced.svc.at("store_hits") / reqs : 0.0, "ratio");

    for (const char *mod : {"bench", "exp", "sim", "power", "svc",
                            "mibench", "fits", "thumb"}) {
        auto it = l.selfUs.find(mod);
        m.set(std::string("host.") + mod + "_self_ms",
              it == l.selfUs.end() ? 0 : it->second / 1e3 / n_ops, "ms");
    }

    // The traced sessions repeat the untraced ones op for op (a prefix
    // of each stream for chip_probe): compare the same ops' latencies.
    double traced_ms = 0, untraced_ms = 0;
    for (size_t s = 0; s < traced.threadMs.size(); ++s)
        for (size_t t = 0; t < traced.threadMs[s].size(); ++t)
            for (size_t i = 0; i < traced.threadMs[s][t].size(); ++i) {
                traced_ms += traced.threadMs[s][t][i];
                untraced_ms += base.threadMs[s][t][i];
            }
    m.set("obs.trace_overhead_pct",
          untraced_ms > 0 ? 100.0 * (traced_ms / untraced_ms - 1) : 0.0,
          "%");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    runGuard();
    Options o = parseOptions(argc, argv);
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(o.work, ec);
    if (ec)
        usageError("cannot create " + o.work + ": " + ec.message());
    for (const std::string &path : {o.pfitsd, o.report})
        if (::access(path.c_str(), X_OK) != 0)
            usageError("missing executable " + path);
    if (!fs::is_directory(o.golden))
        usageError("missing golden directory " + o.golden);
    pfits::setQuiet(true);

    // Counters feed svc_store's checks and the traced svc metrics;
    // they never touch the simulation loops.
    pfits::MetricRegistry registry;
    pfits::MetricRegistry::install(&registry);

    WorkloadEnv env;
    env.seed = o.seed;
    env.goldenDir = o.golden;
    env.workDir = o.work;
    env.pfitsd = o.pfitsd;

    std::map<std::string, TailPick> tails;
    RunTotals base = runSessions(o, env, false, 0);
    size_t attempted = base.results.size();
    Metrics metrics;
    if (!o.trace) {
        metrics = endToEnd(base, &tails);
    } else {
        RunTotals traced = runSessions(o, env, true, attempted);
        attempted += traced.results.size();
        metrics = perLayer(base, traced, &tails);
    }

    std::printf("%s\n", provenanceLine(o, tails).c_str());
    std::printf("sessions:");
    for (size_t i = 0; i < base.sessionP50Ms.size(); ++i)
        std::printf(" %.4g/%.4g", base.sessionOpsPerSec[i],
                    base.sessionP50Ms[i]);
    std::printf("\n");
    printResult(true, attempted, 0, metrics.json());
    return 0;
}
