#include "workloads.hh"

#include <chrono>
#include <csignal>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/table.hh"
#include "exp/experiment.hh"
#include "exp/figures.hh"
#include "exp/parallel.hh"
#include "exp/simcache.hh"
#include "exp/simservice.hh"
#include "fits/profile.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/cache_power.hh"
#include "power/chip_power.hh"
#include "power/leakage.hh"
#include "proc.hh"
#include "sim/chip.hh"
#include "sim/probe.hh"
#include "svc/client.hh"
#include "svc/proto.hh"
#include "thumb/thumb.hh"
#include "verify/randprog.hh"

namespace perfbench
{

using namespace pfits;

void
SimCounts::add(const SimCounts &o)
{
    instructions += o.instructions;
    cycles += o.cycles;
    icacheAccesses += o.icacheAccesses;
    icacheMisses += o.icacheMisses;
    wayMemoHits += o.wayMemoHits;
    l2Accesses += o.l2Accesses;
    l2Misses += o.l2Misses;
    coherenceInvalidations += o.coherenceInvalidations;
    simcacheHits += o.simcacheHits;
    simcacheMisses += o.simcacheMisses;
}

namespace
{

/** Instructions per IntervalStatsObserver sample in probed runs. */
constexpr uint64_t kIntervalInstructions = 10'000;

/**
 * chip_probe ops per thread in a traced session: each chip op records
 * about 4 MB of per-tile quantum spans.
 */
constexpr size_t kTracedChipProbeOps = 6;

/** ExperimentParams for one sweep point: fast backend, jobs 2. */
ExperimentParams
sweepParams(const SweepPoint &p)
{
    ExperimentParams params;
    params.jobs = kEngineJobs;
    params.core.backend = SimBackend::Fast;
    params.core.icache.assoc = p.assoc;
    params.core.icache.lineBytes = p.lineBytes;
    params.core.icacheMissPenalty = p.missPenalty;
    params.smallCacheBytes = p.smallBytes;
    params.largeCacheBytes = p.largeBytes;
    return params;
}

/** The core a paper configuration runs on, on @p backend. */
CoreConfig
paperCore(ConfigId id, SimBackend backend)
{
    ExperimentParams params;
    params.core.backend = backend;
    return Runner(params).coreConfig(id);
}

void
addRun(SimCounts &c, const RunResult &r)
{
    c.instructions += r.instructions;
    c.cycles += r.cycles;
    c.icacheAccesses += r.icache.accesses();
    c.icacheMisses += r.icache.misses();
    c.wayMemoHits += r.icache.wayMemoHits;
}

/** "" when @p r completed and emitted @p expected first. */
std::string
checkRun(const RunResult &r, uint32_t expected, const std::string &what)
{
    if (r.outcome != RunOutcome::Completed)
        return what + ": run ended " + runOutcomeName(r.outcome) + ": " +
               r.trapReason;
    if (r.io.emitted.empty() || r.io.emitted[0] != expected)
        return what + ": checksum mismatch";
    return "";
}

/** Total I-cache energy of @p run under the paper's power model. */
double
icacheEnergyJ(const CoreConfig &core, const RunResult &run)
{
    TechParams tech;
    tech.clockHz = core.clockHz;
    return CachePowerModel(core.icache, tech).evaluate(run).totalJ();
}

double
savingPct(double arm16_j, double fits8_j)
{
    return arm16_j != 0 ? 100.0 * (1.0 - fits8_j / arm16_j) : 0.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The table must be the golden file's text up to its paper note. */
void
compareGolden(const std::string &dir, const std::string &bench,
              const Table &table)
{
    std::ostringstream os;
    table.print(os);
    const std::string rendered = os.str();
    const std::string golden = readFile(dir + "/" + bench + ".txt");
    const std::string note = "\npaper reports: ";
    if (golden.compare(0, rendered.size(), rendered) != 0 ||
        golden.compare(rendered.size(), note.size(), note) != 0)
        throw std::runtime_error("paper point: " + bench +
                                 " table differs from tests/golden");
}

/** Front-ends of the whole suite at paper parameters, jobs 2. */
std::vector<PreparedBench>
prepareSuite()
{
    const auto &suite = mibench::suite();
    ThreadPool pool(kEngineJobs);
    return parallelMap<PreparedBench>(pool, suite.size(), [&](size_t i) {
        return prepareBenchmark(suite[i].name, ExperimentParams{});
    });
}

/** Time prepareBenchmark's steps for the suite, each under a span. */
void
tracePrepareSteps(const ExperimentParams &params)
{
    auto timed = [](const char *name, const char *cat, auto &&fn) {
        TraceSpan span(name, cat);
        return fn();
    };
    for (const mibench::BenchInfo &info : mibench::suite()) {
        mibench::Workload w = timed("mibench.build", "mibench",
                                    [&] { return info.build(); });
        (void)timed("thumb.estimate", "thumb",
                    [&] { return thumbEstimate(w.program); });
        ProfileInfo profile = timed("fits.profile", "fits", [&] {
            return profileProgram(w.program);
        });
        FitsIsa isa = timed("fits.synth", "fits", [&] {
            return synthesize(profile, params.synth, info.name);
        });
        (void)timed("fits.translate", "fits", [&] {
            return translateProgram(w.program, isa, profile);
        });
    }
}

// --- suite_sweep ---------------------------------------------------------

class SuiteSweep final : public Workload
{
  public:
    explicit SuiteSweep(const WorkloadEnv &env)
        : env_(env),
          ops_(sweepOps(env.seed, env.round))
    {
    }

    void
    setUp() override
    {
        paperSavingPct_ = checkPaperPoint(env_.goldenDir);
        for (const SweepPoint &p : sweepGrid())
            if (!geometryError(p).empty())
                throw std::runtime_error("grid point rejected: " +
                                         geometryError(p));
        for (const SweepPoint &p : impossiblePoints())
            if (geometryError(p).empty())
                throw std::runtime_error(
                    "a 4096-way I-cache was accepted");
    }

    unsigned threads() const override { return 1; }
    size_t streamLength(unsigned) const override { return ops_.size(); }

    OpResult
    runOp(unsigned, size_t index) override
    {
        OpResult out;
        out.kind = "sweep";
        try {
            SimCache::instance().clear();
            Runner runner(sweepParams(ops_[index]));
            std::vector<const BenchResult *> all;
            {
                TraceSpan span("exp.runner_all", "exp");
                all = runner.all();
            }
            out.sim.simcacheHits = SimCache::instance().hits();
            out.sim.simcacheMisses = SimCache::instance().misses();
            double saving = 0;
            for (const BenchResult *b : all) {
                for (ConfigId id : kAllConfigs) {
                    const ConfigResult &cfg = b->of(id);
                    if (cfg.run.outcome != RunOutcome::Completed ||
                        !cfg.checksumOk)
                        throw std::runtime_error(
                            b->name + "/" + configName(id) +
                            ": run failed its checksum");
                    addRun(out.sim, cfg.run);
                }
                saving += b->saving(ConfigId::FITS8,
                                    CachePowerBreakdown::Component::TOTAL);
            }
            out.hasSaving = true;
            out.savingPct = 100.0 * saving / all.size();
            out.hostInstructions = out.sim.instructions;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        }
        return out;
    }

    void
    tracePrepare(size_t index) override
    {
        tracePrepareSteps(sweepParams(ops_[index]));
    }

  private:
    static std::string
    geometryError(const SweepPoint &p)
    {
        ExperimentParams params = sweepParams(p);
        CacheConfig large = params.core.icache;
        large.sizeBytes = p.largeBytes;
        CacheConfig small = params.core.icache;
        small.sizeBytes = p.smallBytes;
        std::string err = large.validateError();
        return err.empty() ? small.validateError() : err;
    }

    WorkloadEnv env_;
    std::vector<SweepPoint> ops_;
};

// --- chip_probe ----------------------------------------------------------

class ChipProbe final : public Workload
{
  public:
    explicit ChipProbe(const WorkloadEnv &env)
        : env_(env),
          streams_(chipProbeStreams(env.seed, env.round,
                                    loadThreads(WorkloadId::ChipProbe)))
    {
    }

    void
    setUp() override
    {
        paperSavingPct_ = checkPaperPoint(env_.goldenDir);
        SimCache::instance().clear();
        kernels_ = prepareSuite();
        // Warm-up: one op of each type, checked like any other.
        for (bool chip : {true, false}) {
            KernelSetOp op;
            op.chip = chip;
            op.kernels = {0, 1, 2, 3};
            OpResult r = run(op);
            if (!r.ok)
                throw std::runtime_error("warm-up: " + r.error);
        }
    }

    unsigned threads() const override { return streams_.size(); }

    size_t
    streamLength(unsigned t) const override
    {
        return streams_[t].size();
    }

    size_t
    tracedLength(unsigned t) const override
    {
        return std::min(kTracedChipProbeOps, streams_[t].size());
    }

    OpResult
    runOp(unsigned t, size_t index) override
    {
        return run(streams_[t][index]);
    }

  private:
    OpResult
    run(const KernelSetOp &op)
    {
        OpResult out;
        out.kind = op.chip ? "chip" : "probe";
        try {
            double energy[2] = {0, 0};
            const ConfigId ids[2] = {ConfigId::ARM16, ConfigId::FITS8};
            for (int side = 0; side < 2; ++side) {
                energy[side] = op.chip ? runChip(op, ids[side], out)
                                       : runProbed(op, ids[side], out);
            }
            out.hasSaving = true;
            out.savingPct = savingPct(energy[0], energy[1]);
            out.hostInstructions = out.sim.instructions;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        }
        return out;
    }

    const FrontEnd &
    frontEnd(uint8_t kernel, ConfigId id) const
    {
        const PreparedBench &k = kernels_[kernel];
        if (id == ConfigId::FITS8)
            return *k.fitsFe;
        return *k.armFe;
    }

    /** A 4-tile shared-L2 chip, one kernel per tile. @return I-cache J. */
    double
    runChip(const KernelSetOp &op, ConfigId id, OpResult &out)
    {
        const CoreConfig core = paperCore(id, SimBackend::Interp);
        std::vector<Chip::TileSpec> specs;
        for (uint8_t k : op.kernels)
            specs.push_back({&frontEnd(k, id), core});
        ChipConfig cc;
        cc.tiles = 4;
        cc.sharedL2 = true;
        Chip chip(specs, cc);
        ChipResult r;
        {
            TraceSpan span("sim.chip_run", "sim");
            r = chip.run();
        }
        std::string err = chip.checkCoherence();
        if (!err.empty())
            throw std::runtime_error("coherence: " + err);
        for (size_t t = 0; t < r.tiles.size(); ++t) {
            const PreparedBench &k = kernels_[op.kernels[t]];
            err = checkRun(r.tiles[t], k.expected,
                           "chip tile " + std::to_string(t) + " " +
                               k.result->name + "/" + configName(id));
            if (!err.empty())
                throw std::runtime_error(err);
            addRun(out.sim, r.tiles[t]);
        }
        out.sim.l2Accesses += r.l2.accesses();
        out.sim.l2Misses += r.l2.misses();
        out.sim.coherenceInvalidations +=
            r.coherence.invalidations + r.coherence.backInvalidations;

        TraceSpan span("power.eval", "power");
        double joules = 0;
        for (const RunResult &tile : r.tiles)
            joules += icacheEnergyJ(core, tile);
        UncorePowerModel uncore(UncoreEnergyParams{});
        if (!(uncore.evaluate(r.l2, r.coherence, r.seconds()).totalJ() >
              0))
            throw std::runtime_error("uncore energy not positive");
        return joules;
    }

    /** Four observed fast-backend runs. @return I-cache J. */
    double
    runProbed(const KernelSetOp &op, ConfigId id, OpResult &out)
    {
        const CoreConfig core = paperCore(id, SimBackend::Fast);
        LeakageParams drowsy;
        drowsy.policy = LeakagePolicy::Drowsy;
        double joules = 0;
        for (uint8_t k : op.kernels) {
            IntervalStatsObserver intervals(kIntervalInstructions);
            LeakageObserver leakage(core.icache, drowsy);
            ObserverList list;
            list.add(&intervals);
            list.add(&leakage);
            RunResult run;
            {
                TraceSpan span("sim.machine_run", "sim");
                run = Machine(frontEnd(k, id), core).run(nullptr, &list);
            }
            const PreparedBench &kb = kernels_[k];
            std::string err = checkRun(run, kb.expected,
                                       "probed " + kb.result->name +
                                           "/" + configName(id));
            if (!err.empty())
                throw std::runtime_error(err);
            uint64_t sampled = 0;
            for (const IntervalSample &s : intervals.intervals())
                sampled += s.instructions;
            if (sampled != run.instructions)
                throw std::runtime_error(
                    "interval samples do not sum to the run");
            addRun(out.sim, run);

            TraceSpan span("power.eval", "power");
            joules += icacheEnergyJ(core, run);
            TechParams tech;
            tech.clockHz = core.clockHz;
            tech.leakage = drowsy;
            double leak_j = CachePowerModel(core.icache, tech)
                                .leakageEnergyJ(leakage.activity());
            if (!(leak_j > 0) || !std::isfinite(leak_j))
                throw std::runtime_error("leakage energy not positive");
        }
        return joules;
    }

    WorkloadEnv env_;
    std::vector<std::vector<KernelSetOp>> streams_;
    std::vector<PreparedBench> kernels_;
};

// --- svc_store -----------------------------------------------------------

class SvcStore final : public Workload
{
  public:
    explicit SvcStore(const WorkloadEnv &env) : env_(env)
    {
        for (size_t c = 0; c < 4; ++c)
            cores_[c] = paperCore(kAllConfigs[c], SimBackend::Fast);
        makeStreams();
    }

    ~SvcStore() override { stop(); }

    void
    setUp() override
    {
        paperSavingPct_ = checkPaperPoint(env_.goldenDir);
        kernels_ = prepareSuite();
        // The paper-point sweep left every suite key in SimCache, so
        // these are lookups of results simulated moments ago.
        reference_.resize(kernels_.size());
        for (size_t b = 0; b < kernels_.size(); ++b)
            for (size_t c = 0; c < 4; ++c)
                reference_[b][c] = encodeResultEntry(
                    readRequest(b, c).key(),
                    localSimService().simulate(readRequest(b, c)));
        SimCache::instance().clear();

        startDaemon();

        // Pre-populate the store: the daemon simulates every suite
        // key, two client threads at a time.
        std::vector<std::string> errors(kEngineJobs);
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < kEngineJobs; ++t) {
            pool.emplace_back([&, t] {
                for (size_t k = t; k < kernels_.size() * 4;
                     k += kEngineJobs) {
                    std::string err = read(k / 4, k % 4, nullptr);
                    if (!err.empty() && errors[t].empty())
                        errors[t] = err;
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
        for (const std::string &e : errors)
            if (!e.empty())
                throw std::runtime_error("pre-population: " + e);
        SimCache::instance().clear();
        baseline_ = svcCounters();
    }

    unsigned threads() const override { return streams_.size(); }

    size_t
    streamLength(unsigned t) const override
    {
        return streams_[t].size();
    }

    OpResult
    runOp(unsigned t, size_t index) override
    {
        OpResult out;
        const StoreOp &op = streams_[t][index];
        try {
            if (op.write) {
                out.kind = "write";
                SimRequest req = writeRequest(t, index);
                SimCache::instance().clear();
                SimResult r;
                {
                    TraceSpan span("svc.client_simulate", "svc");
                    r = client_->simulate(req);
                }
                ++writes_[t];
                if (r.run.outcome != RunOutcome::Completed ||
                    r.run.instructions == 0)
                    throw std::runtime_error("write: program did not "
                                             "complete");
                addRun(out.sim, r.run);
                out.hostInstructions = r.run.instructions;
                written_[t].push_back({index, encodeResultEntry(
                                                  req.key(), r)});
            } else {
                out.kind = "read";
                ++reads_[t];
                double energy[4] = {0, 0, 0, 0};
                for (size_t c = 0; c < 4; ++c) {
                    RunResult run;
                    std::string err = read(op.bench, c, &run);
                    if (!err.empty())
                        throw std::runtime_error(err);
                    addRun(out.sim, run);
                    energy[c] = icacheEnergyJ(cores_[c], run);
                }
                out.hasSaving = true;
                out.savingPct = savingPct(
                    energy[static_cast<size_t>(ConfigId::ARM16)],
                    energy[static_cast<size_t>(ConfigId::FITS8)]);
            }
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        }
        return out;
    }

    std::string
    finish() override
    {
        // The daemon served the whole round: every read request was a
        // store hit, every write one lease miss and one local fallback.
        if (!daemon_.alive())
            return "pfitsd exited during the timed phase (see " +
                   env_.workDir + "/pfitsd.log)";
        MetricRegistry *reg = MetricRegistry::current();
        if (!reg)
            return "svc_store needs an installed MetricRegistry";
        uint64_t reads = 0, writes = 0;
        for (size_t t = 0; t < reads_.size(); ++t) {
            reads += reads_[t];
            writes += writes_[t];
        }
        auto now = svcCounters();
        auto delta = [&](const char *name) {
            return now.at(name) - baseline_.at(name);
        };
        if (delta("store_hits") != 4 * reads ||
            delta("store_misses") != writes ||
            delta("fallbacks") != writes ||
            delta("requests") != 4 * reads + writes ||
            delta("timeouts") != 0)
            return "svc counters disagree with the ops: a read was not "
                   "a store hit or a write was not a lease miss";

        // Every key written in the timed phase must now be a store
        // hit carrying exactly the entry the writer computed.
        for (unsigned t = 0; t < written_.size(); ++t) {
            for (const auto &[index, entry] : written_[t]) {
                SimRequest req = writeRequest(t, index);
                SimCache::instance().clear();
                uint64_t hits = reg->counter("svc.store.hits").value();
                SimResult r = client_->simulate(req);
                if (reg->counter("svc.store.hits").value() != hits + 1)
                    return "written key did not read back as a hit";
                if (encodeResultEntry(req.key(), r) != entry)
                    return "written key read back different";
            }
            written_[t].clear();
        }
        return "";
    }

    double
    stop() override
    {
        client_.reset();
        if (daemon_.running()) {
            daemon_.stop(SIGTERM, 20'000);
            daemonRssMb_ = daemon_.peakRssMb();
        }
        return daemonRssMb_;
    }

  private:
    void
    makeStreams()
    {
        const unsigned threads = loadThreads(WorkloadId::SvcStore);
        streams_ = storeStreams(env_.seed, kStoreBlocks, threads,
                                env_.round);
        writeFes_.clear();
        writeFes_.resize(threads);
        written_.assign(threads, {});
        reads_.assign(threads, 0);
        writes_.assign(threads, 0);
        for (unsigned t = 0; t < threads; ++t) {
            writeFes_[t].resize(streams_[t].size());
            for (size_t i = 0; i < streams_[t].size(); ++i)
                if (streams_[t][i].write)
                    writeFes_[t][i] = std::make_unique<ArmFrontEnd>(
                        randomVerifyProgram(streams_[t][i].progSeed));
        }
    }

    SimRequest
    readRequest(size_t bench, size_t config) const
    {
        const PreparedBench &k = kernels_[bench];
        SimRequest req;
        req.isFits = config >= 2;
        req.fe = req.isFits ? static_cast<const FrontEnd *>(k.fitsFe.get())
                            : static_cast<const FrontEnd *>(k.armFe.get());
        req.core = &cores_[config];
        req.bench = k.result->name;
        return req;
    }

    SimRequest
    writeRequest(unsigned t, size_t index) const
    {
        SimRequest req;
        req.fe = writeFes_[t][index].get();
        req.core = &cores_[static_cast<size_t>(ConfigId::ARM16)];
        return req; // bench "" = not suite-addressable: get + lease
    }

    /**
     * One suite read through the daemon with an empty local SimCache.
     * @return "" when it matches the set-up reference.
     */
    std::string
    read(size_t bench, size_t config, RunResult *run)
    {
        SimRequest req = readRequest(bench, config);
        SimCache::instance().clear();
        SimResult r;
        {
            TraceSpan span("svc.client_simulate", "svc");
            r = client_->simulate(req);
        }
        if (encodeResultEntry(req.key(), r) != reference_[bench][config])
            return kernels_[bench].result->name + "/" +
                   configName(kAllConfigs[config]) +
                   ": store result differs from the local one";
        std::string err = checkRun(r.run, kernels_[bench].expected,
                                   kernels_[bench].result->name);
        if (!err.empty())
            return err;
        if (run)
            *run = std::move(r.run);
        return "";
    }

    void
    startDaemon()
    {
        namespace fs = std::filesystem;
        const std::string store = env_.workDir + "/store";
        const std::string socket = env_.workDir + "/pfitsd.sock";
        fs::remove_all(store);
        fs::remove(socket);
        std::vector<std::string> argv = {env_.pfitsd, "--socket", socket,
                                         "--store", store, "--jobs",
                                         std::to_string(kEngineJobs)};
        if (!env_.daemonTrace.empty()) {
            argv.push_back("--trace-out");
            argv.push_back(env_.daemonTrace);
        }
        std::string err;
        if (!daemon_.start(argv, env_.workDir + "/pfitsd.log", &err))
            throw std::runtime_error("pfitsd: " + err);

        SvcClientConfig cfg;
        cfg.socketPath = socket;
        cfg.requestTimeoutMs = 30'000;
        client_ = std::make_unique<SvcClient>(cfg);
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
        while (!client_->ping()) {
            if (std::chrono::steady_clock::now() > deadline)
                throw std::runtime_error("pfitsd did not answer");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    WorkloadEnv env_;
    CoreConfig cores_[4];
    std::vector<PreparedBench> kernels_;
    std::vector<std::array<std::string, 4>> reference_;
    std::vector<std::vector<StoreOp>> streams_;
    std::vector<std::vector<std::unique_ptr<ArmFrontEnd>>> writeFes_;
    //! Per thread: (op index, entry the writer computed).
    std::vector<std::vector<std::pair<size_t, std::string>>> written_;
    std::vector<uint64_t> reads_, writes_; //!< per thread, this round
    std::map<std::string, uint64_t> baseline_; //!< svcCounters(), round start

    Child daemon_;
    double daemonRssMb_ = 0;
    std::unique_ptr<SvcClient> client_;
};

} // namespace

std::map<std::string, uint64_t>
svcCounters()
{
    static const std::pair<const char *, const char *> kCounters[] = {
        {"requests", "svc.requests"},
        {"store_hits", "svc.store.hits"},
        {"store_misses", "svc.store.misses"},
        {"fallbacks", "svc.fallbacks"},
        {"retries", "svc.retries"},
        {"timeouts", "svc.timeouts"}};
    MetricRegistry *reg = MetricRegistry::current();
    std::map<std::string, uint64_t> out;
    for (const auto &[name, counter] : kCounters)
        out[name] = reg ? reg->counter(counter).value() : 0;
    return out;
}

double
checkPaperPoint(const std::string &golden_dir)
{
    SimCache::instance().clear();
    Runner runner(sweepParams(paperPoint()));
    std::vector<const BenchResult *> all = runner.all();
    double saving = 0;
    for (const BenchResult *b : all) {
        for (ConfigId id : kAllConfigs)
            if (!b->of(id).checksumOk ||
                b->of(id).run.outcome != RunOutcome::Completed)
                throw std::runtime_error("paper point: " + b->name +
                                         "/" + configName(id) +
                                         " failed its checksum");
        saving += b->saving(ConfigId::FITS8,
                            CachePowerBreakdown::Component::TOTAL);
    }
    compareGolden(golden_dir, "fig11_total_cache_power",
                  fig11TotalCacheSaving(runner));
    compareGolden(golden_dir, "fig13_miss_rate", fig13MissRate(runner));
    compareGolden(golden_dir, "fig14_ipc", fig14Ipc(runner));
    return 100.0 * saving / all.size();
}

std::unique_ptr<Workload>
makeWorkload(WorkloadId id, const WorkloadEnv &env)
{
    switch (id) {
      case WorkloadId::SuiteSweep:
        return std::make_unique<SuiteSweep>(env);
      case WorkloadId::ChipProbe:
        return std::make_unique<ChipProbe>(env);
      case WorkloadId::SvcStore:
        return std::make_unique<SvcStore>(env);
    }
    return nullptr;
}

} // namespace perfbench
