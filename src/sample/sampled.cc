#include "sample/sampled.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

#include "common/error.hh"
#include "sample/checkpoint.hh"
#include "sample/kmeans.hh"
#include "sample/profile.hh"
#include "sample/reassemble.hh"

namespace sl
{

namespace
{

std::string
resolveDir(const std::string& dir)
{
    if (!dir.empty())
        return dir;
    if (const char* env = std::getenv("SL_SAMPLE_DIR"); env && *env)
        return env;
    return ".";
}

/** One detailed-simulation pick: an interval and its cluster slot. */
struct RepPlan
{
    std::size_t interval; //!< profiled interval index
    std::size_t pos;      //!< position into sel.representatives
};

/**
 * Stratified representative allocation. The budget of detailed
 * intervals is split across clusters in proportion to cluster size
 * (largest-remainder rounding; every cluster keeps at least one pick,
 * no cluster gets more picks than members). Within a cluster the picks
 * sit at even quantiles of the member list — spread across the trace,
 * so a temporal prefetcher's slow metadata build-up is averaged instead
 * of sampled at one lucky (or unlucky) point — and the medoid replaces
 * whichever quantile pick lies closest to it. Pure function of the
 * selection and budget: bit-identical across runs and SL_JOBS.
 */
std::vector<RepPlan>
allocateReps(const ClusterSelection& sel, std::size_t budget)
{
    const std::size_t kc = sel.representatives.size();
    const std::size_t total = sel.assignment.size();
    std::vector<std::vector<std::size_t>> members(kc);
    for (std::size_t i = 0; i < total; ++i)
        members[sel.assignment[i]].push_back(i);
    if (budget < kc)
        budget = kc;

    std::vector<std::size_t> m(kc);
    std::vector<double> frac(kc);
    std::size_t used = 0;
    for (std::size_t c = 0; c < kc; ++c) {
        const double quota = static_cast<double>(budget) *
                             static_cast<double>(members[c].size()) /
                             static_cast<double>(total);
        m[c] = std::min(members[c].size(),
                        std::max<std::size_t>(
                            1, static_cast<std::size_t>(quota)));
        frac[c] = quota - static_cast<double>(m[c]);
        used += m[c];
    }
    while (used > budget) { // overshoot from the at-least-one floors
        std::size_t best = kc;
        for (std::size_t c = 0; c < kc; ++c)
            if (m[c] > 1 && (best == kc || m[c] > m[best]))
                best = c;
        if (best == kc)
            break;
        --m[best];
        --used;
    }
    while (used < budget) { // hand out remainders, largest first
        std::size_t best = kc;
        for (std::size_t c = 0; c < kc; ++c) {
            if (m[c] >= members[c].size())
                continue;
            if (best == kc || frac[c] > frac[best])
                best = c;
        }
        if (best == kc)
            break;
        ++m[best];
        frac[best] -= 1.0; // repeated grants rotate across clusters
        ++used;
    }

    std::vector<RepPlan> reps;
    reps.reserve(used);
    for (std::size_t c = 0; c < kc; ++c) {
        const auto& mem = members[c];
        std::vector<std::size_t> picks;
        picks.reserve(m[c]);
        for (std::size_t j = 0; j < m[c]; ++j) {
            std::size_t at = static_cast<std::size_t>(
                (static_cast<double>(j) + 0.5) *
                static_cast<double>(mem.size()) /
                static_cast<double>(m[c]));
            if (at >= mem.size())
                at = mem.size() - 1;
            picks.push_back(mem[at]);
        }
        const std::size_t med = sel.representatives[c];
        if (std::find(picks.begin(), picks.end(), med) == picks.end()) {
            std::size_t best = 0;
            for (std::size_t j = 1; j < picks.size(); ++j) {
                const auto dj = picks[j] > med ? picks[j] - med
                                               : med - picks[j];
                const auto db = picks[best] > med ? picks[best] - med
                                                  : med - picks[best];
                if (dj < db)
                    best = j;
            }
            picks[best] = med;
        }
        std::sort(picks.begin(), picks.end());
        for (const std::size_t iv : picks)
            reps.push_back({iv, c});
    }
    std::sort(reps.begin(), reps.end(),
              [](const RepPlan& a, const RepPlan& b) {
                  return a.interval < b.interval;
              });
    return reps;
}

/** Interval plan: checkpoint (C), window open (S), window close (E). */
struct IntervalPlan
{
    std::size_t interval;
    std::size_t pos; //!< cluster slot (position into representatives)
    std::size_t checkpoint;
    std::size_t start;
    std::size_t end;
};

std::vector<IntervalPlan>
planIntervals(const TraceProfile& prof, const std::vector<RepPlan>& reps,
              std::uint64_t warmup_records)
{
    std::vector<IntervalPlan> plans;
    plans.reserve(reps.size());
    for (const RepPlan& rp : reps) {
        const std::size_t idx = rp.interval;
        const IntervalProfile& iv = prof.intervals[idx];
        const std::size_t s = iv.firstRecord;
        const std::size_t e = iv.endRecord;
        // Detailed warmup ahead of the window: requested, or a quarter
        // interval, never past record 0. S == 0 means the checkpoint is
        // a pristine system and the window opens at cycle 0 — correct
        // with no warmup at all.
        std::uint64_t w = warmup_records != 0
                              ? warmup_records
                              : std::max<std::uint64_t>(
                                    1, static_cast<std::uint64_t>(e - s) /
                                           4);
        w = std::min<std::uint64_t>(w, s);
        plans.push_back(
            {idx, rp.pos, s - static_cast<std::size_t>(w), s, e});
    }
    return plans;
}

/** Cluster count for a detailed-interval budget: three quarters of the
 *  budget (at least one). The remaining quarter funds second and third
 *  picks in the biggest clusters, where one medoid's idiosyncrasy would
 *  otherwise carry the most weight. */
std::size_t
clustersForBudget(std::size_t budget)
{
    return std::max<std::size_t>(1, (3 * budget) / 4);
}

std::uint64_t
findU64(const std::string& json, const char* key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t pos = json.find(needle);
    SL_REQUIRE(pos != std::string::npos, "sample",
               "manifest fragment has no \""
                   << key
                   << "\" field — journal from a build without "
                      "windowed jobs? delete the manifest and rerun");
    return std::strtoull(json.c_str() + pos + needle.size(), nullptr,
                         10);
}

double
findDouble(const std::string& json, const char* key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t pos = json.find(needle);
    SL_REQUIRE(pos != std::string::npos, "sample",
               "manifest fragment has no \"" << key << "\" field");
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

void
validateSampleRun(const RunConfig& cfg, const SampleOptions& opts)
{
    cfg.validate();
    SL_REQUIRE(cfg.cores == 1, "sample",
               "sampled runs are single-core (got " << cfg.cores
                                                    << " cores)");
    SL_REQUIRE(!cfg.faults.enabled(), "sample",
               "sampled runs do not compose with fault injection; the "
               "reassembly would average over divergent fault points");
    SL_REQUIRE(opts.intervals > 0, "sample", "need at least 1 interval");
    SL_REQUIRE(opts.k > 0, "sample", "need at least 1 cluster");
}

/**
 * Hands each checkpoint from the functional pass to the interval jobs
 * that restore from it (DESIGN.md §15 step 3). The pass opens a
 * boundary once its file is written and closed; a job blocks in
 * await() until its boundary opens. Once the pass has ended, for any
 * reason, the gate is closed and a job whose boundary never opened
 * throws instead of waiting forever. That only happens when the pass
 * failed, and runSampled then rethrows the pass's own error.
 */
class CheckpointGate
{
  public:
    void
    open(std::size_t record)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ready_.insert(record);
        }
        cv_.notify_all();
    }

    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    void
    await(std::size_t record)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock,
                 [&] { return closed_ || ready_.count(record) != 0; });
        SL_REQUIRE(ready_.count(record) != 0, "sample_checkpoint",
                   "checkpoint pass ended without writing record "
                       << record);
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::set<std::size_t> ready_;
    bool closed_ = false;
};

} // namespace

SampledReport
runSampled(const RunConfig& cfg, const std::string& workload,
           const SampleOptions& opts)
{
    validateSampleRun(cfg, opts);
    const std::string dir = resolveDir(opts.checkpointDir);

    const TracePtr trace = getTrace(workload, cfg.traceScale, cfg.seed);
    const TraceProfile prof = profileTrace(*trace, opts.intervals);
    std::vector<std::vector<double>> points;
    points.reserve(prof.intervals.size());
    for (const auto& iv : prof.intervals)
        points.push_back(iv.features);
    const ClusterSelection sel =
        kmeansSelect(points, clustersForBudget(opts.k), cfg.seed);
    const std::vector<RepPlan> reps = allocateReps(sel, opts.k);
    const std::vector<IntervalPlan> plans =
        planIntervals(prof, reps, opts.warmupRecords);
    std::vector<std::size_t> repsPerCluster(sel.representatives.size(),
                                            0);
    for (const RepPlan& rp : reps)
        ++repsPerCluster[rp.pos];

    std::vector<std::size_t> boundaries;
    for (const auto& p : plans)
        boundaries.push_back(p.checkpoint);

    CheckpointGate gate;
    std::vector<ExperimentSpec> specs;
    specs.reserve(plans.size());
    for (const auto& p : plans) {
        ExperimentSpec spec;
        std::ostringstream label;
        label << "sample:" << workload << ":iv" << p.interval << ":r"
              << p.checkpoint << '-' << p.start << '-' << p.end;
        spec.label = label.str();
        spec.config = cfg;
        spec.workloads = {workload};
        spec.hooks.restorePath =
            checkpointPath(dir, cfg, workload, p.checkpoint);
        spec.hooks.awaitRestore = [&gate, b = p.checkpoint] {
            gate.await(b);
        };
        spec.hooks.measureWarmupRecords = p.start;
        spec.hooks.measureEvalRecords = p.end;
        specs.push_back(std::move(spec));
    }

    BatchRunner runner(opts.threads, opts.batch);
    const auto t0 = std::chrono::steady_clock::now();
    // The checkpoint pass leads on worker 0; every other worker starts
    // intervals as their checkpoints land.
    const std::vector<JobResult> results = runner.run(specs, [&] {
        struct CloseOnExit
        {
            CheckpointGate& gate;
            ~CloseOnExit() { gate.close(); }
        } closer{gate};
        generateCheckpoints(cfg, workload, boundaries, dir,
                            [&gate](std::size_t b) { gate.open(b); });
    });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    SampledReport rep;
    rep.workload = workload;
    rep.totalEvalInstructions =
        prof.totalInstructions - prof.warmupInstructions;

    std::vector<double> ipcs, sizes;
    double wInstr = 0, wCycles = 0, wMiss = 0, wUseful = 0, wIssued = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult& jr = results[i];
        if (!jr.ok)
            throw *jr.error;

        const std::size_t pos = plans[i].pos;
        SampledInterval si;
        si.interval = plans[i].interval;
        si.checkpointRecord = plans[i].checkpoint;
        si.startRecord = plans[i].start;
        si.endRecord = plans[i].end;
        // A cluster's weight is split evenly across its picks, so the
        // weights still sum to one over the whole job list.
        si.weight = sel.weights[pos] /
                    static_cast<double>(repsPerCluster[pos]);
        si.clusterSize = sel.clusterSizes[pos];
        if (jr.resumed) {
            // Manifest-resumed: the RunResult was never rebuilt, only
            // its journalled JSON fragment survives. Pull the fenced
            // counters back out of it.
            si.ipc = findDouble(jr.cachedJson, "ipc");
            si.instructions = findU64(jr.cachedJson, "eval_instructions");
            si.cycles = findU64(jr.cachedJson, "eval_cycles");
            si.misses = findU64(jr.cachedJson, "l2_demand_misses");
            si.useful = findU64(jr.cachedJson, "l2_pf_useful");
            si.issued = findU64(jr.cachedJson, "l2_pf_issued");
        } else {
            const CoreResult& cr = jr.result.cores[0];
            si.ipc = cr.ipc;
            si.instructions = cr.evalInstructions;
            si.cycles = cr.evalCycles;
            si.misses = cr.l2DemandMisses;
            si.useful = cr.l2PrefetchUseful;
            si.issued = cr.l2PrefetchIssued;
        }
        rep.sampledInstructions += si.instructions;
        // Weight every accumulation by the share of profiled intervals
        // this pick stands for: cluster size split across the cluster's
        // picks.
        const double sz =
            static_cast<double>(si.clusterSize) /
            static_cast<double>(repsPerCluster[pos]);
        ipcs.push_back(si.ipc);
        sizes.push_back(sz);
        wInstr += sz * static_cast<double>(si.instructions);
        wCycles += sz * static_cast<double>(si.cycles);
        wMiss += sz * static_cast<double>(si.misses);
        wUseful += sz * static_cast<double>(si.useful);
        wIssued += sz * static_cast<double>(si.issued);
        rep.intervals.push_back(si);
    }

    // Headline IPC: regression-adjusted per-interval prediction. Every
    // profiled interval gets a predicted CPI anchored at its cluster's
    // pooled measured CPI (all the cluster's picks, instruction-
    // weighted) plus a first-order correction along the profiler's
    // L2-miss-proxy covariate (slope fit by weighted least squares over
    // the measured picks; a degenerate fit leaves the slope at 0 and
    // recovers the plain stratified estimator). Total instructions over
    // total predicted cycles then weights each interval by its own
    // instruction count instead of pretending all intervals are the
    // same length.
    constexpr std::size_t kL2MissFeature =
        kProfilePcBuckets + kProfileRegionBuckets + kProfileStrideBuckets +
        5;
    auto missPerInstr = [](const IntervalProfile& iv) {
        if (iv.instructions == 0)
            return 0.0;
        const double recs =
            static_cast<double>(iv.endRecord - iv.firstRecord);
        return (iv.features[kL2MissFeature] / kProfileMissWeight) * recs /
               static_cast<double>(iv.instructions);
    };
    const std::size_t nClusters = sel.representatives.size();
    std::vector<double> aCycles(nClusters, 0.0), aInstr(nClusters, 0.0),
        aX(nClusters, 0.0);
    for (std::size_t p = 0; p < rep.intervals.size(); ++p) {
        const SampledInterval& si = rep.intervals[p];
        const std::size_t pos = plans[p].pos;
        const double in = static_cast<double>(si.instructions);
        aCycles[pos] += static_cast<double>(si.cycles);
        aInstr[pos] += in;
        aX[pos] += in * missPerInstr(prof.intervals[si.interval]);
    }
    std::vector<double> cpiAnchor(nClusters, 0.0), xAnchor(nClusters,
                                                           0.0);
    for (std::size_t c = 0; c < nClusters; ++c) {
        cpiAnchor[c] = aInstr[c] > 0 ? aCycles[c] / aInstr[c] : 0.0;
        xAnchor[c] = aInstr[c] > 0 ? aX[c] / aInstr[c] : 0.0;
    }
    double slope = 0;
    {
        double sw = 0, sx = 0, sy = 0;
        std::vector<double> cpiRep(rep.intervals.size(), 0.0);
        std::vector<double> xRep(rep.intervals.size(), 0.0);
        for (std::size_t p = 0; p < rep.intervals.size(); ++p) {
            const SampledInterval& si = rep.intervals[p];
            cpiRep[p] = si.instructions
                            ? static_cast<double>(si.cycles) /
                                  static_cast<double>(si.instructions)
                            : 0.0;
            xRep[p] = missPerInstr(prof.intervals[si.interval]);
            sw += sizes[p];
            sx += sizes[p] * xRep[p];
            sy += sizes[p] * cpiRep[p];
        }
        const double mx = sx / sw, my = sy / sw;
        double sxx = 0, sxy = 0;
        for (std::size_t p = 0; p < cpiRep.size(); ++p) {
            sxx += sizes[p] * (xRep[p] - mx) * (xRep[p] - mx);
            sxy += sizes[p] * (xRep[p] - mx) * (cpiRep[p] - my);
        }
        if (sxx > 1e-12)
            slope = sxy / sxx;
    }
    double totInstr = 0, totCycles = 0;
    for (std::size_t i = 0; i < prof.intervals.size(); ++i) {
        const IntervalProfile& iv = prof.intervals[i];
        const std::size_t pos = sel.assignment[i];
        double cpi = cpiAnchor[pos] +
                     slope * (missPerInstr(iv) - xAnchor[pos]);
        // A wild extrapolation (noisy slope x far-from-anchor interval)
        // must not produce absurd or negative cycle counts.
        cpi = std::max(cpi, 0.1 * cpiAnchor[pos]);
        totInstr += static_cast<double>(iv.instructions);
        totCycles += cpi * static_cast<double>(iv.instructions);
    }
    rep.ipcEstimate = totCycles > 0
                          ? totInstr / totCycles
                          : (wCycles > 0 ? wInstr / wCycles : 0);
    const WeightedStat ws = weightedStat(ipcs, sizes);
    rep.ipcMean = ws.mean;
    rep.ipcStddev = ws.stddev;
    rep.ipcCi95 = ws.ci95;
    rep.neff = ws.neff;
    rep.mpki = wInstr > 0 ? 1000.0 * wMiss / wInstr : 0;
    rep.coverage =
        (wUseful + wMiss) > 0 ? wUseful / (wUseful + wMiss) : 0;
    rep.accuracy = wIssued > 0 ? wUseful / wIssued : 0;

    // Deterministic report object: no wall clock, no attempt counts —
    // a killed-and-resumed sweep must reproduce it byte for byte.
    std::ostringstream det;
    det << "{\"workload\":\"" << jsonEscape(workload) << "\""
        << ",\"config\":" << toJson(cfg)
        << ",\"intervals\":" << opts.intervals << ",\"k\":" << opts.k
        << ",\"clusters\":" << sel.representatives.size()
        << ",\"warmup_records\":" << opts.warmupRecords
        << ",\"selected\":[";
    for (std::size_t i = 0; i < rep.intervals.size(); ++i) {
        const SampledInterval& si = rep.intervals[i];
        det << (i ? "," : "") << "{\"interval\":" << si.interval
            << ",\"checkpoint\":" << si.checkpointRecord
            << ",\"start\":" << si.startRecord
            << ",\"end\":" << si.endRecord
            << ",\"weight\":" << jsonNumber(si.weight)
            << ",\"cluster_size\":" << si.clusterSize
            << ",\"ipc\":" << jsonNumber(si.ipc)
            << ",\"instructions\":" << si.instructions
            << ",\"cycles\":" << si.cycles
            << ",\"l2_demand_misses\":" << si.misses
            << ",\"l2_pf_useful\":" << si.useful
            << ",\"l2_pf_issued\":" << si.issued << "}";
    }
    det << "]"
        << ",\"ipc_estimate\":" << jsonNumber(rep.ipcEstimate)
        << ",\"ipc_mean\":" << jsonNumber(rep.ipcMean)
        << ",\"ipc_stddev\":" << jsonNumber(rep.ipcStddev)
        << ",\"ipc_ci95\":" << jsonNumber(rep.ipcCi95)
        << ",\"n_eff\":" << jsonNumber(rep.neff)
        << ",\"mpki\":" << jsonNumber(rep.mpki)
        << ",\"coverage\":" << jsonNumber(rep.coverage)
        << ",\"accuracy\":" << jsonNumber(rep.accuracy)
        << ",\"sampled_instructions\":" << rep.sampledInstructions
        << ",\"total_eval_instructions\":" << rep.totalEvalInstructions
        << ",\"detailed_fraction\":"
        << jsonNumber(rep.totalEvalInstructions > 0
                          ? static_cast<double>(rep.sampledInstructions) /
                                static_cast<double>(
                                    rep.totalEvalInstructions)
                          : 0)
        << "}";
    rep.deterministicJson = det.str();

    // Bench-style document: the standard jobs array (wall clock
    // included) with the deterministic object appended.
    std::string doc = batchJson("sampled", specs, results,
                                runner.threads(), wall);
    doc.pop_back(); // trailing '}'
    doc += ",\"sampled\":" + rep.deterministicJson + "}";
    rep.fullJson = std::move(doc);
    return rep;
}

std::string
sampleReportJson(const RunConfig& cfg, const std::string& workload,
                 const SampleOptions& opts)
{
    validateSampleRun(cfg, opts);
    const TracePtr trace = getTrace(workload, cfg.traceScale, cfg.seed);
    const TraceProfile prof = profileTrace(*trace, opts.intervals);
    std::vector<std::vector<double>> points;
    points.reserve(prof.intervals.size());
    for (const auto& iv : prof.intervals)
        points.push_back(iv.features);
    const ClusterSelection sel =
        kmeansSelect(points, clustersForBudget(opts.k), cfg.seed);
    const std::vector<RepPlan> reps = allocateReps(sel, opts.k);
    std::vector<std::size_t> repsPerCluster(sel.representatives.size(),
                                            0);
    for (const RepPlan& rp : reps)
        ++repsPerCluster[rp.pos];

    std::ostringstream os;
    os << "{\"bench\":\"sample_report\",\"workload\":\""
       << jsonEscape(workload) << "\""
       << ",\"config\":" << toJson(cfg)
       << ",\"intervals\":" << opts.intervals << ",\"k\":" << opts.k
       << ",\"clusters\":" << sel.representatives.size()
       << ",\"selected\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const RepPlan& rp = reps[i];
        const IntervalProfile& iv = prof.intervals[rp.interval];
        os << (i ? "," : "") << "{\"interval\":" << rp.interval
           << ",\"cluster\":" << rp.pos
           << ",\"start\":" << iv.firstRecord
           << ",\"end\":" << iv.endRecord
           << ",\"weight\":"
           << jsonNumber(sel.weights[rp.pos] /
                         static_cast<double>(repsPerCluster[rp.pos]))
           << ",\"cluster_size\":" << sel.clusterSizes[rp.pos] << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace sl
