#include "sim/runner.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/error.hh"
#include "prefetch/registry.hh"
#include "sample/sampled.hh"
#include "sim/batch.hh"
#include "sim/snapshot.hh"
#include "trace/mix.hh"

namespace sl
{

namespace
{

PrefetcherTuning
tuningFor(const RunConfig& cfg)
{
    PrefetcherTuning t;
    t.streamline = &cfg.streamline;
    t.triangel = &cfg.triangel;
    t.triage = &cfg.triage;
    return t;
}

/**
 * Visit every prefetcher tuning field as (name, value), in declaration
 * order. The snapshot digest, the job digest (through it) and the repro
 * bundle all read the tuning from here, so a field added to one of the
 * three structs must be added here too.
 */
template <typename F>
void
forEachTuningField(const RunConfig& cfg, F&& f)
{
    const StreamlineConfig& s = cfg.streamline;
    f("streamline.stream_length", s.streamLength);
    f("streamline.buffer_entries", s.bufferEntries);
    f("streamline.tu_entries", s.tuEntries);
    f("streamline.max_degree", s.maxDegree);
    f("streamline.enable_buffer", s.enableBuffer);
    f("streamline.enable_alignment", s.enableAlignment);
    f("streamline.tagged_set_partition", s.taggedSetPartition);
    f("streamline.use_tp_mockingjay", s.useTpMockingjay);
    f("streamline.degree_control", s.degreeControl);
    f("streamline.realignment", s.realignment);
    f("streamline.skewed_indexing", s.skewedIndexing);
    f("streamline.triangel_partitioner", s.triangelPartitioner);
    f("streamline.fixed_den", s.fixedDen);
    f("streamline.fixed_ways", s.fixedWays);
    f("streamline.ideal", s.ideal);
    f("streamline.meta_ways_per_set", s.metaWaysPerSet);
    f("streamline.partial_tag_bits", s.partialTagBits);
    f("streamline.degree_epoch", s.degreeEpoch);
    const TriangelConfig& tg = cfg.triangel;
    f("triangel.max_degree", tg.maxDegree);
    f("triangel.tu_entries", tg.tuEntries);
    f("triangel.max_ways", tg.maxWays);
    f("triangel.resize_interval", tg.resizeInterval);
    f("triangel.mrb_entries", tg.mrbEntries);
    f("triangel.hs_entries", tg.hsEntries);
    f("triangel.scs_entries", tg.scsEntries);
    f("triangel.ideal", tg.ideal);
    f("triangel.use_tp_mockingjay", tg.useTpMockingjay);
    const TriageConfig& ta = cfg.triage;
    f("triage.degree", ta.degree);
    f("triage.tu_entries", ta.tuEntries);
    f("triage.max_ways", ta.maxWays);
    f("triage.resize_interval", ta.resizeInterval);
    f("triage.unlimited", ta.unlimited);
}

/**
 * SL_DUMP_STATS=1: print every component's complete counter map after a
 * run, in deterministic (construction, then key-sorted) order. The dump
 * is a perf-refactor safety net -- two builds claiming bit-identical
 * behaviour must produce byte-identical dumps -- and a debugging aid.
 */
void
dumpSystemStats(System& sys, std::ostream& os)
{
    auto group = [&](const StatGroup& g) {
        for (const auto& [k, v] : g.counters())
            os << g.name() << "." << k << " = " << v.value() << "\n";
    };
    os << "==STATS==\n";
    for (unsigned c = 0; c < sys.cores(); ++c)
        group(sys.core(c).stats());
    for (unsigned c = 0; c < sys.cores(); ++c)
        group(sys.l1d(c).stats());
    for (unsigned c = 0; c < sys.cores(); ++c)
        group(sys.l2(c).stats());
    group(sys.llc().stats());
    group(sys.dram().stats());
    for (unsigned c = 0; c < sys.cores(); ++c) {
        if (Prefetcher* pf = sys.l1dPrefetcher(c))
            group(pf->stats());
        if (Prefetcher* pf = sys.l2Prefetcher(c)) {
            group(pf->stats());
            if (const StatGroup* store = pf->metadataStoreStats())
                group(*store);
        }
    }
    if (MemPressure* mp = sys.memPressure())
        group(mp->stats());
    os << "==ENDSTATS==\n";
}

} // namespace

SystemConfig
systemConfigFor(const RunConfig& cfg)
{
    const PrefetcherTuning tuning = tuningFor(cfg);
    PrefetcherRegistry& reg = prefetcherRegistry();
    SystemConfig sc;
    sc.cores = cfg.cores;
    sc.dramMTs = cfg.dramMTs;
    sc.l1dPrefetcher = reg.make(cfg.l1, PrefetcherRegistry::L1, tuning);
    sc.l2Prefetcher = reg.make(cfg.l2, PrefetcherRegistry::L2, tuning);
    sc.faults = cfg.faults;
    sc.hardening = cfg.hardening;
    sc.telemetry = cfg.telemetry;
    return sc;
}

void
RunConfig::validate() const
{
    SL_REQUIRE(cores >= 1, "run_config", "need at least one core");
    // Scale > 10 synthesizes traces an order of magnitude past the
    // paper's footprint -- almost certainly a units mistake.
    SL_REQUIRE(traceScale <= 10.0, "run_config",
               "traceScale " << traceScale
                             << " is implausibly large (1.0 = paper "
                                "footprint; <= 0 selects the default)");
    faults.validate();
    hardening.validate();
    telemetry.validate();
    PrefetcherRegistry& reg = prefetcherRegistry();
    reg.require(l1, PrefetcherRegistry::L1);
    reg.require(l2, PrefetcherRegistry::L2);
}

std::string
formatReproBundle(const RunConfig& cfg,
                  const std::vector<std::string>& workloads,
                  const SimError& err)
{
    std::ostringstream os;
    os << "# Streamline repro bundle\n";
    os << "# Re-run with these exact values to replay the failure\n";
    os << "# bit-identically (all randomness is seeded).\n";
    os << "seed = " << cfg.seed << "\n";
    os << "cores = " << cfg.cores << "\n";
    os << "workloads =";
    for (const auto& w : workloads)
        os << " " << w;
    os << "\n";
    os << "trace_scale = " << cfg.traceScale << " (resolved "
       << (cfg.traceScale > 0 ? cfg.traceScale : defaultTraceScale())
       << ")\n";
    os << "l1_prefetcher = " << cfg.l1 << "\n";
    os << "l2_prefetcher = " << cfg.l2 << "\n";
    os << "dram_mts = " << cfg.dramMTs << "\n";
    forEachTuningField(cfg, [&os](const char* name, auto value) {
        os << name << " = " << value << "\n";
    });
    os << "fault.seed = " << cfg.faults.seed << "\n";
    os << "fault.metadata_bit_flip_rate = "
       << cfg.faults.metadataBitFlipRate << "\n";
    os << "fault.drop_prefetch_fill_rate = "
       << cfg.faults.dropPrefetchFillRate << "\n";
    os << "fault.dram_delay_rate = " << cfg.faults.dramDelayRate << "\n";
    os << "fault.dram_delay_cycles = " << cfg.faults.dramDelayCycles
       << "\n";
    os << "fault.lose_request_rate = " << cfg.faults.loseRequestRate
       << "\n";
    os << "hardening.audit_interval = " << cfg.hardening.auditInterval
       << "\n";
    os << "hardening.watchdog_window = " << cfg.hardening.watchdogWindow
       << "\n";
    os << "error.component = " << err.component() << "\n";
    if (err.cycle() != kNoErrorCycle)
        os << "error.cycle = " << err.cycle() << "\n";
    os << "error.what = " << err.what() << "\n";
    return os.str();
}

std::string
reproBundlePath()
{
    if (const char* p = std::getenv("SL_REPRO_PATH"))
        return p;
    return "sl_repro_bundle.txt";
}

std::string
snapshotDigest(const RunConfig& cfg,
               const std::vector<std::string>& workloads)
{
    std::ostringstream os;
    os << toJson(cfg) << " tuning:";
    forEachTuningField(cfg, [&os](const char* name, auto value) {
        os << ' ' << name << '=' << value;
    });
    os << " workloads:";
    for (const auto& w : workloads)
        os << ' ' << w;
    return os.str();
}

RunResult
runWorkloads(const RunConfig& cfg, const std::vector<std::string>& workloads,
             const RunHooks& hooks)
{
    cfg.validate();
    SL_REQUIRE(workloads.size() == cfg.cores, "run_config",
               "need one workload per core, got " << workloads.size()
                                                  << " for " << cfg.cores
                                                  << " cores");

    std::vector<TracePtr> traces;
    traces.reserve(cfg.cores);
    for (const auto& w : workloads)
        traces.push_back(getTrace(w, cfg.traceScale, cfg.seed));

    System sys(systemConfigFor(cfg), traces);
    if (hooks.awaitRestore)
        hooks.awaitRestore();

    // Orchestration hooks (see RunHooks): all three share one config
    // digest, computed over what the run IS, not what the hooks do.
    const bool hooked = !hooks.restorePath.empty() ||
                        (hooks.snapshotAt != kNoCycle &&
                         !hooks.snapshotPath.empty()) ||
                        hooks.wallTimeoutSec > 0;
    if (hooked) {
        const std::string digest = snapshotDigest(cfg, workloads);
        if (!hooks.restorePath.empty())
            readSnapshotFile(hooks.restorePath, digest, sys);
        if (hooks.snapshotAt != kNoCycle && !hooks.snapshotPath.empty())
            sys.scheduleSnapshot(
                hooks.snapshotAt,
                [path = hooks.snapshotPath, digest](System& s,
                                                    Cycle now) {
                    writeSnapshotFile(path, digest, s, now);
                });
        if (hooks.wallTimeoutSec > 0) {
            System::RunHook onTimeout;
            if (!hooks.timeoutSnapshotPath.empty())
                onTimeout = [path = hooks.timeoutSnapshotPath,
                             digest](System& s, Cycle now) {
                    writeSnapshotFile(path, digest, s, now);
                };
            sys.setWallClockDeadline(hooks.wallTimeoutSec,
                                     std::move(onTimeout));
        }
    }

    // Sampled-interval orchestration: narrow the measurement window and
    // fence the L2 counters at warmup end so the reported
    // misses/useful/issued cover only the measured interval. Applied
    // after any restore above — the targets are relative to the restored
    // cursor, and they are deliberately absent from the snapshot itself.
    std::vector<std::array<std::uint64_t, 3>> fence(cfg.cores);
    if (hooks.windowed()) {
        for (unsigned c = 0; c < cfg.cores; ++c) {
            sys.core(c).setMeasureWindow(hooks.measureWarmupRecords,
                                         hooks.measureEvalRecords);
            Cache& l2c = sys.l2(c);
            auto* slot = &fence[c];
            sys.core(c).setWarmupCallback([&l2c, slot](Cycle) {
                (*slot)[0] = l2c.stats().get("demand_misses");
                (*slot)[1] = l2c.stats().get("prefetch_useful");
                (*slot)[2] = l2c.stats().get("prefetch_issued");
            });
        }
    }

    sys.run();

    RunResult res;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreResult cr;
        cr.workload = workloads[c];
        cr.ipc = sys.core(c).ipc();
        cr.evalInstructions = sys.core(c).evalInstructions();
        cr.evalCycles = sys.core(c).evalCycles();
        const auto& l2 = sys.l2(c).stats();
        cr.l2DemandMisses = l2.get("demand_misses") - fence[c][0];
        cr.l2PrefetchUseful = l2.get("prefetch_useful") - fence[c][1];
        cr.l2PrefetchIssued = l2.get("prefetch_issued") - fence[c][2];
        res.cores.push_back(cr);

        std::map<std::string, std::uint64_t> snap;
        if (Prefetcher* pf = sys.l2Prefetcher(c)) {
            for (const auto& [k, v] : pf->stats().counters())
                snap[k] = v.value();
        }
        res.l2PfStats.push_back(std::move(snap));
    }

    const auto& llc = sys.llc().stats();
    res.llcMetaReads = llc.get("metadata_reads");
    res.llcMetaWrites = llc.get("metadata_writes");
    res.llcShuffleBlocks = llc.get("metadata_shuffle_blocks");

    const auto& dram = sys.dram().stats();
    res.dramReads = dram.get("reads");
    res.dramWrites = dram.get("writes");
    res.dramBytes = dram.get("bytes");

    // Shared-memory-system contention counters. The pressure and quota
    // counters read zero on single-core runs (arbiter and pressure probe
    // gated off); the DRAM scheduler counters fire on every run.
    for (unsigned c = 0; c < cfg.cores; ++c) {
        res.pfDroppedPressure +=
            sys.l1d(c).stats().get("prefetch_dropped_pressure");
        res.pfDroppedPressure +=
            sys.l2(c).stats().get("prefetch_dropped_pressure");
    }
    res.llcQuotaStalls = llc.get("mshr_quota_stalls");
    res.dramReadQueueWait = dram.get("read_q_wait_cycles");
    res.dramDemandReads = dram.get("sched_demand_reads");
    res.dramPrefetchReads = dram.get("sched_prefetch_reads");
    if (cfg.cores > 1) {
        res.dramCoreBytes.resize(cfg.cores, 0);
        for (unsigned c = 0; c < cfg.cores; ++c)
            res.dramCoreBytes[c] =
                dram.get("core" + std::to_string(c) + "_bytes");
    }

    // Probe counters come through the Prefetcher interface now, so the
    // runner needs no knowledge of which class is attached.
    if (Prefetcher* pf = sys.l2Prefetcher(0)) {
        if (const StatGroup* store = pf->metadataStoreStats()) {
            for (const auto& [k, v] : store->counters())
                res.storeStats[k] = v.value();
        }
        res.storedCorrelations = pf->storedCorrelations();
    }

    if (Telemetry* t = sys.telemetry()) {
        t->writeOutputs();
        res.telemetry = std::make_shared<const TelemetryData>(t->data());
    }

    if (const char* dump = std::getenv("SL_DUMP_STATS");
        dump && dump[0] == '1')
        dumpSystemStats(sys, std::cout);

    return res;
}

RunResult
runWorkload(const RunConfig& cfg, const std::string& workload)
{
    RunConfig c1 = cfg;
    c1.cores = 1;
    return runWorkloads(c1, {workload});
}

namespace
{

void
printUsage(std::ostream& os)
{
    os << "usage: sl_run [options] WORKLOAD [WORKLOAD...]\n"
          "\n"
          "Runs each workload on its own core (one workload is\n"
          "replicated across --cores cores).\n"
          "\n"
          "options:\n"
          "  --l1 NAME               L1D prefetcher (default stride)\n"
          "  --l2 NAME               L2 prefetcher (default none)\n"
          "  --cores N               core count (default: one per "
          "workload)\n"
          "  --mix A,B,...           comma-separated multi-core mix "
          "(one workload per core)\n"
          "  --scale F               trace scale (default "
          "$SL_TRACE_SCALE or 1.0)\n"
          "  --seed N                trace synthesis seed (default 1)\n"
          "  --dram-mts N            DRAM transfer rate (default 3200)\n"
          "  --telemetry             enable interval sampling and "
          "histograms\n"
          "  --telemetry-interval N  cycles per interval (default "
          "100000; implies --telemetry)\n"
          "  --telemetry-out PREFIX  write PREFIX.jsonl and PREFIX.csv "
          "(implies --telemetry)\n"
          "  --trace-out PATH        write Chrome trace-event JSON "
          "(implies --telemetry)\n"
          "snapshots (DESIGN.md §11):\n"
          "  --snapshot-at CYCLE     save a snapshot when the run "
          "reaches CYCLE\n"
          "  --snapshot-out PATH     snapshot file (default "
          "sl_snapshot_WORKLOAD.bin)\n"
          "  --restore-snapshot PATH restore from PATH before running\n"
          "sweeps (resumable):\n"
          "  --sweep                 run each workload as its own "
          "single-core batch job\n"
          "  --manifest PATH         JSONL job journal; re-invoking with "
          "the same manifest\n"
          "                          skips finished jobs (implies "
          "--sweep)\n"
          "  --job-timeout SEC       per-job wall-clock budget (plain "
          "runs too); a hung job\n"
          "                          saves sl_snapshot_hang_job<i>.bin, "
          "then fails\n"
          "sampled runs (DESIGN.md §15):\n"
          "  --sample                profile, cluster, checkpoint, and "
          "simulate K\n"
          "                          representative intervals instead of "
          "the full trace\n"
          "  --sample-intervals N    profile granularity (default 96; "
          "implies --sample)\n"
          "  --sample-k K            detailed-interval budget, stratified "
          "across clusters\n"
          "                          (default 24; implies --sample)\n"
          "  --sample-warmup R       detailed warmup records per interval "
          "(default: a\n"
          "                          quarter interval; implies --sample)\n"
          "  --sample-dir PATH       checkpoint directory (default "
          "$SL_SAMPLE_DIR or .)\n"
          "  --sample-report         print the interval selection as "
          "one-line JSON and exit\n"
          "                          (no checkpoints, no detailed runs)\n"
          "                          --manifest/--job-timeout apply to "
          "the interval batch\n"
          "fault injection:\n"
          "  --fault-lose-request R  drop downstream misses at rate R "
          "(wedges the run;\n"
          "                          pair with --job-timeout or a "
          "watchdog)\n"
          "  --list-prefetchers      print registered prefetcher names "
          "and exit\n"
          "  --help                  this text\n"
          "\n"
          "A failed run exits 1 and leaves one repro bundle at "
          "$SL_REPRO_PATH\n"
          "(default sl_repro_bundle.txt): the first failed job's, in "
          "submission order.\n";
}

/** First line of a (possibly multi-line) error message. */
std::string
firstLine(const std::string& s)
{
    const std::size_t nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(0, nl) + " [...]";
}

void
printNames(std::ostream& os, const char* level, int mask)
{
    os << level << ":";
    for (const auto& n : prefetcherRegistry().names(mask))
        os << " " << n;
    os << "\n";
}

/** --sample: one workload's estimate line plus its ==JSON== document. */
void
printSampled(const std::string& w, const SampledReport& rep)
{
    const double frac =
        rep.totalEvalInstructions > 0
            ? static_cast<double>(rep.sampledInstructions) /
                  static_cast<double>(rep.totalEvalInstructions)
            : 0;
    std::cout << "sampled " << w << ": ipc=" << rep.ipcEstimate << " +/-"
              << rep.ipcCi95 << " mpki=" << rep.mpki
              << " coverage=" << rep.coverage
              << " (k=" << rep.intervals.size() << ", n_eff=" << rep.neff
              << ", detailed " << 100.0 * frac << "% of eval)\n";
    std::cout << "==JSON==\n" << rep.fullJson << "\n==END-JSON==\n";
}

/**
 * The one place sl_run reports a failed run: leave @p bundle at
 * reproBundlePath(), name it on stderr, and return exit code 1.
 */
int
failRun(const std::string& bundle, const SimError& err)
{
    const std::string path = reproBundlePath();
    if (std::ofstream out(path); out)
        out << bundle;
    std::cerr << "sl_run: error [" << err.component()
              << "]: " << firstLine(err.what())
              << " (repro bundle: " << path << ")\n";
    return 1;
}

/** A plain run: per-core results, shared-memory counters, telemetry. */
void
printRun(const RunResult& res)
{
    for (std::size_t c = 0; c < res.cores.size(); ++c) {
        const CoreResult& cr = res.cores[c];
        std::cout << "core " << c << ": " << cr.workload
                  << " ipc=" << cr.ipc << " coverage=" << cr.coverage()
                  << " accuracy=" << cr.accuracy() << "\n";
    }
    if (res.cores.size() > 1) {
        std::cout << "shared-memory: pf_dropped=" << res.pfDroppedPressure
                  << " quota_stalls=" << res.llcQuotaStalls
                  << " read_q_wait=" << res.dramReadQueueWait
                  << " demand_reads=" << res.dramDemandReads
                  << " prefetch_reads=" << res.dramPrefetchReads;
        for (std::size_t c = 0; c < res.dramCoreBytes.size(); ++c)
            std::cout << (c ? "/" : " core_bytes=") << res.dramCoreBytes[c];
        std::cout << "\n";
    }
    if (res.telemetry) {
        const TelemetryData& t = *res.telemetry;
        std::cout << "telemetry: intervals=" << t.intervals.size()
                  << " dropped=" << t.droppedIntervals
                  << " incidents=" << t.incidents.size() << "\n";
        for (const auto& h : t.histograms)
            std::cout << "  " << h.name << ": samples=" << h.samples
                      << " p50=" << h.p50 << " p95=" << h.p95
                      << " p99=" << h.p99 << " max=" << h.maxValue << "\n";
    }
}

/** --sweep: one job line per workload plus the ==JSON== document. */
void
printSweep(const std::vector<ExperimentSpec>& specs,
           const std::vector<JobResult>& jobs, unsigned threads,
           double wall)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& j = jobs[i];
        std::cout << "job " << specs[i].label << ": ";
        if (j.resumed)
            std::cout << "ok (from manifest)\n";
        else if (j.ok)
            std::cout << "ok ipc=" << j.result.meanIpc() << "\n";
        else
            std::cout << "FAILED [" << j.error->component()
                      << "]: " << firstLine(j.error->what()) << "\n";
    }
    std::cout << "==JSON==\n"
              << batchJson("sweep", specs, jobs, threads, wall)
              << "\n==END-JSON==\n";
}

/** True when the prefetcher selection is known; complains otherwise. */
bool
checkPrefetcher(const std::string& name, int level, const char* flag)
{
    if (prefetcherRegistry().has(name, level))
        return true;
    std::cerr << "sl_run: unknown " << flag << " prefetcher '" << name
              << "'; available:\n";
    printNames(std::cerr, "  l1", PrefetcherRegistry::L1);
    printNames(std::cerr, "  l2", PrefetcherRegistry::L2);
    return false;
}

} // namespace

int
runnerMain(int argc, char** argv)
{
    RunConfig cfg;
    std::vector<std::string> workloads;
    unsigned cores = 0; // 0 = one per workload
    bool telemetry = false;
    std::string telemetry_out;
    RunHooks hooks;
    BatchOptions batch_opts;
    bool sweep = false;
    bool sample = false;
    bool sample_report = false;
    SampleOptions sample_opts;

    // Flags taking a value read it from the next argv slot.
    auto value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "sl_run: " << flag << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = nullptr;
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            return 0;
        } else if (arg == "--list-prefetchers") {
            printNames(std::cout, "l1", PrefetcherRegistry::L1);
            printNames(std::cout, "l2", PrefetcherRegistry::L2);
            return 0;
        } else if (arg == "--l1") {
            if (!(v = value(i, "--l1")))
                return 2;
            cfg.l1 = v;
        } else if (arg == "--l2") {
            if (!(v = value(i, "--l2")))
                return 2;
            cfg.l2 = v;
        } else if (arg == "--cores") {
            if (!(v = value(i, "--cores")))
                return 2;
            cores = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--mix") {
            if (!(v = value(i, "--mix")))
                return 2;
            // Comma-separated multi-core mix, one workload per core
            // (same shape trace/mix.hh generates). Names land in the
            // ordinary workload list, so the unknown-workload check
            // below vets them and prints the known names on a typo.
            Mix mix;
            std::stringstream ss(v);
            for (std::string w; std::getline(ss, w, ',');)
                if (!w.empty())
                    mix.push_back(w);
            if (mix.empty()) {
                std::cerr << "sl_run: --mix needs at least one "
                             "workload name\n";
                return 2;
            }
            workloads.insert(workloads.end(), mix.begin(), mix.end());
        } else if (arg == "--scale") {
            if (!(v = value(i, "--scale")))
                return 2;
            cfg.traceScale = std::strtod(v, nullptr);
        } else if (arg == "--seed") {
            if (!(v = value(i, "--seed")))
                return 2;
            cfg.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--dram-mts") {
            if (!(v = value(i, "--dram-mts")))
                return 2;
            cfg.dramMTs =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--telemetry") {
            telemetry = true;
        } else if (arg == "--telemetry-interval") {
            if (!(v = value(i, "--telemetry-interval")))
                return 2;
            telemetry = true;
            cfg.telemetry.intervalCycles = std::strtoull(v, nullptr, 10);
        } else if (arg == "--telemetry-out") {
            if (!(v = value(i, "--telemetry-out")))
                return 2;
            telemetry = true;
            telemetry_out = v;
        } else if (arg == "--trace-out") {
            if (!(v = value(i, "--trace-out")))
                return 2;
            telemetry = true;
            cfg.telemetry.tracePath = v;
        } else if (arg == "--snapshot-at") {
            if (!(v = value(i, "--snapshot-at")))
                return 2;
            hooks.snapshotAt = std::strtoull(v, nullptr, 10);
        } else if (arg == "--snapshot-out") {
            if (!(v = value(i, "--snapshot-out")))
                return 2;
            hooks.snapshotPath = v;
        } else if (arg == "--restore-snapshot") {
            if (!(v = value(i, "--restore-snapshot")))
                return 2;
            hooks.restorePath = v;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--manifest") {
            if (!(v = value(i, "--manifest")))
                return 2;
            sweep = true;
            batch_opts.manifestPath = v;
        } else if (arg == "--job-timeout") {
            if (!(v = value(i, "--job-timeout")))
                return 2;
            batch_opts.jobTimeoutSec = std::strtod(v, nullptr);
        } else if (arg == "--sample") {
            sample = true;
        } else if (arg == "--sample-report") {
            sample_report = true;
        } else if (arg == "--sample-intervals") {
            if (!(v = value(i, "--sample-intervals")))
                return 2;
            sample = true;
            sample_opts.intervals = std::strtoull(v, nullptr, 10);
        } else if (arg == "--sample-k") {
            if (!(v = value(i, "--sample-k")))
                return 2;
            sample = true;
            sample_opts.k = std::strtoull(v, nullptr, 10);
        } else if (arg == "--sample-warmup") {
            if (!(v = value(i, "--sample-warmup")))
                return 2;
            sample = true;
            sample_opts.warmupRecords = std::strtoull(v, nullptr, 10);
        } else if (arg == "--sample-dir") {
            if (!(v = value(i, "--sample-dir")))
                return 2;
            sample = true;
            sample_opts.checkpointDir = v;
        } else if (arg == "--fault-lose-request") {
            if (!(v = value(i, "--fault-lose-request")))
                return 2;
            cfg.faults.loseRequestRate = std::strtod(v, nullptr);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "sl_run: unknown option '" << arg << "'\n";
            printUsage(std::cerr);
            return 2;
        } else {
            workloads.push_back(arg);
        }
    }

    if (workloads.empty()) {
        std::cerr << "sl_run: no workloads given; known workloads:\n ";
        for (const auto& w : workloadNames())
            std::cerr << " " << w;
        std::cerr << "\n";
        printUsage(std::cerr);
        return 2;
    }

    // Friendly up-front name checks: print the registered names instead
    // of an exception trace (getTrace throws std::invalid_argument for
    // unknown workloads, which would otherwise escape main).
    if (!checkPrefetcher(cfg.l1, PrefetcherRegistry::L1, "--l1") ||
        !checkPrefetcher(cfg.l2, PrefetcherRegistry::L2, "--l2"))
        return 2;
    const std::vector<std::string> known = workloadNames();
    for (const auto& w : workloads) {
        if (std::find(known.begin(), known.end(), w) == known.end()) {
            std::cerr << "sl_run: unknown workload '" << w
                      << "'; known workloads:\n ";
            for (const auto& k : known)
                std::cerr << " " << k;
            std::cerr << "\n";
            return 2;
        }
    }

    cfg.telemetry.enabled = telemetry;
    if (!telemetry_out.empty()) {
        cfg.telemetry.jsonlPath = telemetry_out + ".jsonl";
        cfg.telemetry.csvPath = telemetry_out + ".csv";
    }

    if (cores == 0)
        cores = static_cast<unsigned>(workloads.size());
    if (workloads.size() == 1 && cores > 1)
        workloads.resize(cores, workloads.front());
    cfg.cores = cores;

    // Plain and --sweep runs are BatchRunner jobs and --sample batches
    // its intervals the same way, so --manifest and --job-timeout mean
    // one thing in every mode. Every failed run exits 1 through failRun.
    try {
        if (sample || sample_report) {
            // Sampled runs are per-workload and single-core; --manifest
            // and --job-timeout feed the interval batch instead of
            // implying a plain sweep.
            RunConfig c = cfg;
            c.cores = 1;
            sample_opts.batch = batch_opts;
            for (const auto& w : workloads) {
                try {
                    if (sample_report)
                        std::cout << sampleReportJson(c, w, sample_opts)
                                  << "\n";
                    else
                        printSampled(w, runSampled(c, w, sample_opts));
                } catch (const SimError& err) {
                    return failRun(formatReproBundle(c, {w}, err), err);
                }
            }
            return 0;
        }

        // --sweep: one single-core job per workload, optionally
        // journalled to a manifest so an interrupted sweep resumes where
        // it stopped. Plain: the whole workload list as one job.
        std::vector<ExperimentSpec> specs;
        if (sweep) {
            for (const auto& w : workloads) {
                RunConfig c = cfg;
                c.cores = 1;
                specs.push_back({w, c, {w}});
            }
        } else {
            if (hooks.snapshotAt != kNoCycle && hooks.snapshotPath.empty())
                hooks.snapshotPath =
                    "sl_snapshot_" + workloads.front() + ".bin";
            specs.push_back({"run", cfg, workloads, hooks});
        }

        const BatchRunner runner(0, batch_opts);
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<JobResult> jobs;
        try {
            jobs = runner.run(specs);
        } catch (const SimError& err) {
            // Job failures come back in JobResult; what escapes is the
            // batch's own, such as a manifest that cannot be opened.
            return failRun(formatReproBundle(cfg, workloads, err), err);
        }
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

        if (sweep)
            printSweep(specs, jobs, runner.threads(), wall);
        else if (jobs[0].ok)
            printRun(jobs[0].result);
        for (const JobResult& j : jobs)
            if (!j.ok)
                return failRun(j.reproBundle, *j.error);
    } catch (const std::exception& e) {
        std::cerr << "sl_run: error: " << firstLine(e.what()) << "\n";
        return 1;
    }
    return 0;
}

double
speedupOver(const std::vector<double>& baseline_ipc,
            const std::vector<double>& variant_ipc)
{
    SL_REQUIRE(baseline_ipc.size() == variant_ipc.size(), "run_config",
               "speedupOver needs matched series, got "
                   << baseline_ipc.size() << " baseline vs "
                   << variant_ipc.size() << " variant");
    std::vector<double> speedups;
    for (std::size_t i = 0; i < baseline_ipc.size(); ++i)
        speedups.push_back(variant_ipc[i] / baseline_ipc[i]);
    return geomean(speedups);
}

} // namespace sl
