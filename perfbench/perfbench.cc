/**
 * @file
 * Repository benchmark driver: runs one named workload of simulator
 * cells for a fixed host-time budget and prints every end-to-end and
 * per-layer metric by name with its unit (see perfbench/README.md).
 *
 * Timing comes only from this file. It wraps the public calls into
 * each layer (getTrace, the System constructor, System::run, the
 * prefetchers' onAccess through a forwarding CacheListener, and the
 * sampled lane's profileTrace / kmeansSelect / generateCheckpoints /
 * runSampled) and reads each layer's public StatGroup counters after a
 * run. Nothing under src/ knows it is being measured.
 *
 * Usage:
 *   sl_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                [--threads T] [--work-dir DIR]
 *
 * Exit status: 0 when every cell passed its correctness and regime
 * checks, 1 when any cell failed (the result line is still printed),
 * 2 on a usage error.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "sample/checkpoint.hh"
#include "sample/kmeans.hh"
#include "sample/profile.hh"
#include "sample/sampled.hh"
#include "sim/batch.hh"
#include "sim/runner.hh"

extern char** environ;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------

/** Calibration-kernel time that reported host seconds are rescaled to:
 *  about the kernel's time on the tuning host in its fast state. */
constexpr double kCalibRefS = 0.010;

/**
 * A fixed calibration kernel: a dependent walk over a 4 MB random ring
 * with some integer mixing per step, timed on the calling thread. The
 * host this benchmark was tuned on, a shared 4-vCPU VM, runs the same
 * code at speeds up to 1.8x apart, in phases from under a second to
 * over a minute. The slow state is not stolen time -- thread CPU time
 * slows exactly as wall time does -- so no choice of clock removes it,
 * and a phase longer than a run defeats any best-of or median. The
 * kernel's own time tracks the host's state instead, so every timed
 * phase of a cell is bracketed by two kernel runs (see PhaseClock).
 * Each vCPU changes state on its own, so the kernel runs on as many
 * threads at once as the phase it calibrates keeps busy.
 */
class HostSpeed
{
  public:
    HostSpeed() : ring_(std::size_t{1} << 20)
    {
        // Sattolo's shuffle: one cycle through every slot.
        for (std::size_t i = 0; i < ring_.size(); ++i)
            ring_[i] = static_cast<std::uint32_t>(i);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::size_t i = ring_.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(ring_[i], ring_[x % i]);
        }
    }

    /** Mean seconds one run of the kernel takes now on each of
     *  @p threads threads running it at once. */
    double
    measure(unsigned threads)
    {
        std::vector<double> t(threads);
        std::vector<std::thread> pool;
        for (unsigned i = 1; i < threads; ++i)
            pool.emplace_back([this, &t, i] { t[i] = run(); });
        t[0] = run();
        for (auto& th : pool)
            th.join();
        double sum = 0;
        for (const double x : t)
            sum += x;
        return sum / threads;
    }

    static HostSpeed&
    instance()
    {
        static HostSpeed speed;
        return speed;
    }

  private:
    double
    run()
    {
        const auto t0 = Clock::now();
        std::uint32_t i = 0;
        std::uint64_t h = 1;
        for (int k = 0; k < 200'000; ++k) {
            i = ring_[i];
            h = h * 0x9e3779b97f4a7c15ULL + i;
            for (int j = 0; j < 8; ++j)
                h = (h & 1) ? h ^ (h >> 7) : h + (h << 3);
        }
        sink_.fetch_add(h, std::memory_order_relaxed);
        return secondsSince(t0);
    }

    std::vector<std::uint32_t> ring_;
    std::atomic<std::uint64_t> sink_{0};
};

/**
 * Times a cell's two phases -- set-up, then the run -- with a
 * calibration-kernel run before, between and after them. A phase's host
 * seconds are rescaled by kCalibRefS over the mean of its two bracketing
 * kernel times, giving host seconds at the reference speed. Kernel time
 * is not counted in either phase. The kernel runs on @p threads threads,
 * the number the timed phases keep busy.
 */
class PhaseClock
{
  public:
    explicit PhaseClock(unsigned threads) : threads_(threads) { start(0); }

    /** End the set-up phase and start the run phase. */
    void
    next()
    {
        stop();
        start(1);
    }

    /** End the current phase (idempotent). */
    void
    stop()
    {
        if (stopped_)
            return;
        raw_[phase_] = secondsSince(t_);
        cal_[phase_ + 1] = HostSpeed::instance().measure(threads_);
        stopped_ = true;
    }

    /** Rescale factor of phase @p p (0 set-up, 1 run); 0 if never run. */
    double
    factor(int p) const
    {
        const double c = cal_[p] + cal_[p + 1];
        return c > 0 && cal_[p + 1] > 0 ? 2 * kCalibRefS / c : 0;
    }

    /** Both phases at the reference speed, and as measured. */
    double total() const { return raw_[0] * factor(0) + raw_[1] * factor(1); }
    double rawTotal() const { return raw_[0] + raw_[1]; }
    double calibration(int i) const { return cal_[i]; }

  private:
    void
    start(int p)
    {
        phase_ = p;
        stopped_ = false;
        if (p == 0)
            cal_[0] = HostSpeed::instance().measure(threads_);
        t_ = Clock::now();
    }

    unsigned threads_;
    double cal_[3] = {0, 0, 0};
    double raw_[2] = {0, 0};
    int phase_ = 0;
    bool stopped_ = false;
    Clock::time_point t_;
};

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/** One simulator cell: a workload per core under one L2 prefetcher. */
struct CellSpec
{
    std::vector<std::string> workloads;
    std::string l2;

    std::string
    label() const
    {
        std::string s = l2 + "/";
        for (std::size_t i = 0; i < workloads.size(); ++i)
            s += (i ? "+" : "") + workloads[i];
        return s;
    }
};

struct WorkloadDef
{
    std::string name;
    double scale;
    std::vector<CellSpec> cells;
    /** Cells run through runSampled instead of a full detailed run. */
    bool sampled = false;
    /** Regime guard: baseline IPC < 1.0, temporal cells issue L2 pfs. */
    bool regimeGuard = false;
};

std::vector<CellSpec>
crossCells(const std::vector<std::vector<std::string>>& mixes,
           const std::vector<std::string>& l2s)
{
    std::vector<CellSpec> cells;
    for (const auto& m : mixes)
        for (const auto& p : l2s)
            cells.push_back({m, p});
    return cells;
}

/**
 * The four workloads. Scales are where each workload's mechanism does
 * the work (README.md records the measurements behind each choice):
 * gap_pr at 0.35 is memory-bound for every seed and storms the L1D
 * MSHRs; mcf / xalancbmk at 0.5 keep Streamline training with
 * almost no retries; the two-core mcf pair is the only FR-FCFS user;
 * the sampled lane runs at its default scale of 1.0.
 */
std::vector<WorkloadDef>
workloadDefs()
{
    const std::vector<std::string> four = {"none", "streamline",
                                           "triangel", "triage"};
    const std::vector<std::string> three = {"none", "streamline",
                                            "triangel"};
    std::vector<WorkloadDef> defs;
    defs.push_back({"graph_storm", 0.35, crossCells({{"gap_pr"}}, four),
                    false, true});
    defs.push_back(
        {"pointer_chase", 0.5,
         crossCells({{"spec06_mcf"}, {"spec06_xalancbmk"}}, four), false,
         true});
    defs.push_back({"shared_2core", 0.5,
                    crossCells({{"spec06_mcf", "spec06_mcf"}}, three),
                    false, false});
    defs.push_back({"sampled_lane", 1.0,
                    crossCells({{"spec06_mcf"}, {"gap_pr"}}, three), true,
                    false});
    return defs;
}

/** The two-core mix whose gap_bfs core runs at an unexplained IPC; the
 *  traced shared_2core run reports it (one cell, ~16 s at 0.5). */
const CellSpec kMixProbe{{"spec06_mcf", "gap_bfs"}, "none"};

// Cell filters by L2 prefetcher. Every L2 prefetcher the workloads use
// is temporal: Streamline lives in core/, Triage and Triangel in
// temporal/.
bool anyL2(const std::string&) { return true; }
bool hasL2(const std::string& l2) { return l2 != "none"; }
bool isStreamline(const std::string& l2) { return l2 == "streamline"; }
bool isPairwise(const std::string& l2)
{
    return l2 == "triangel" || l2 == "triage";
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Accumulated time of one span name (all calls). */
struct SpanAcc
{
    double totalNs = 0;
    double selfNs = 0;
    std::uint64_t calls = 0;
};

/** One open span; child time accumulates here while it is open. */
struct Frame
{
    Frame* parent = nullptr;
    double childNs = 0;
};

/**
 * In-memory span recorder. Coarse spans (one per layer call per cell)
 * are kept individually and written out at exit; the per-access
 * prefetcher spans, about a million per cell, are kept as per-cell
 * totals instead. Self time = span - child spans. Every wrapped call
 * runs on the main thread, so one stack suffices.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::string cell;
        int parent;
        double startNs;
        double endNs;
    };

    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    bool enabled = false;

    /** Time @p fn as span @p name of @p cell, accumulating into @p acc
     *  (may be null) and, when @p record, keeping an individual record. */
    template <typename Fn>
    void
    span(const char* name, const std::string& cell, SpanAcc* acc,
         bool record, Fn&& fn)
    {
        if (!enabled) {
            fn();
            return;
        }
        Frame f;
        f.parent = top_;
        top_ = &f;
        int id = -1;
        if (record) {
            id = static_cast<int>(records_.size());
            records_.push_back({name, cell, openRecord_, 0, 0});
            openRecord_ = id;
        }
        const auto t0 = Clock::now();
        auto close = [&] {
            const auto t1 = Clock::now();
            const double ns =
                std::chrono::duration<double, std::nano>(t1 - t0).count();
            top_ = f.parent;
            if (f.parent)
                f.parent->childNs += ns;
            if (acc) {
                acc->totalNs += ns;
                acc->selfNs += ns - f.childNs;
                ++acc->calls;
            }
            if (record) {
                records_[id].startNs = nsFromOrigin(t0);
                records_[id].endNs = nsFromOrigin(t1);
                openRecord_ = records_[id].parent;
            }
        };
        try {
            fn();
        } catch (...) {
            close();
            throw;
        }
        close();
    }

    /** Chrome trace-event JSON of the recorded spans. */
    void
    write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record& r = records_[i];
            out << (i ? ",\n" : "\n") << "{\"name\":\""
                << sl::jsonEscape(r.name) << "\",\"ph\":\"X\",\"pid\":1,"
                << "\"tid\":1,\"ts\":" << sl::jsonNumber(r.startNs / 1e3)
                << ",\"dur\":"
                << sl::jsonNumber((r.endNs - r.startNs) / 1e3)
                << ",\"args\":{\"cell\":\"" << sl::jsonEscape(r.cell)
                << "\",\"parent\":" << r.parent << "}}";
        }
        out << "\n]}\n";
    }

  private:
    double
    nsFromOrigin(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::nano>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    Frame* top_ = nullptr;
    int openRecord_ = -1;
    std::vector<Record> records_;
};

/** Forwards a cache's demand-access notifications to the prefetcher
 *  the System attached, timing each call as one span. */
class TimedListener : public sl::CacheListener
{
  public:
    TimedListener(sl::CacheListener* inner, Tracer& tracer, SpanAcc& acc,
                  const char* name, const std::string& cell)
        : inner_(inner), tracer_(tracer), acc_(acc), name_(name),
          cell_(cell)
    {
    }

    void
    onAccess(const sl::AccessInfo& info) override
    {
        tracer_.span(name_, cell_, &acc_, false,
                     [&] { inner_->onAccess(info); });
    }

  private:
    sl::CacheListener* inner_;
    Tracer& tracer_;
    SpanAcc& acc_;
    const char* name_;
    const std::string& cell_;
};

// ---------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------

/** FNV-1a over bytes; good enough to tell two counter sets apart. */
class Digest
{
  public:
    void
    add(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    void add(const std::string& s) { add(s.data(), s.size() + 1); }
    void add(std::uint64_t v) { add(&v, sizeof v); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Word-wise mix over a trace's records (FNV per byte is too slow for
 *  tens of millions of records). */
std::uint64_t
traceHash(const sl::Trace& t)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ t.warmupRecords;
    for (const sl::TraceRecord& r : t.records) {
        std::uint64_t w[2];
        std::memcpy(w, &r, sizeof w);
        for (const std::uint64_t x : w) {
            h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            h *= 0xff51afd7ed558ccdull;
        }
    }
    return h;
}

// ---------------------------------------------------------------------
// Cell results
// ---------------------------------------------------------------------

/** Host time of one cell's layer calls, in seconds at the reference
 *  host speed (see PhaseClock); rawTotal is as measured. */
struct CellTimes
{
    double synth = 0;
    double build = 0;
    double run = 0;    //!< System::run, or runSampled on sampled cells
    double total = 0;
    SpanAcc l1Train;   //!< L1D prefetcher onAccess
    SpanAcc l2Train;   //!< L2 prefetcher onAccess (includes LLC calls)
    SpanAcc runSpan;   //!< System::run (self = minus the train spans)
    // Sampled-lane phases (traced runs only).
    double profile = 0;
    double select = 0;
    double checkpoint = 0;
    double intervals = 0;
    double rawTotal = 0;
    double calibration = 0; //!< mean of the cell's kernel times

    /** Rescale every phase time as measured by @p clock. */
    void
    rescale(const PhaseClock& clock)
    {
        const double a = clock.factor(0), b = clock.factor(1);
        for (double* x : {&synth, &build, &profile, &select, &checkpoint})
            *x *= a;
        run *= b;
        for (SpanAcc* s : {&l1Train, &l2Train, &runSpan}) {
            s->totalNs *= b;
            s->selfNs *= b;
        }
        total = clock.total();
        rawTotal = clock.rawTotal();
        calibration = (clock.calibration(0) + clock.calibration(1) +
                       clock.calibration(2)) /
                      3;
    }
};

struct CellResult
{
    CellSpec spec;
    bool ok = true;
    std::string error;
    std::vector<double> ipc;       //!< per core (sampled: estimate)
    std::uint64_t traceInstr = 0;  //!< sum of trace instruction counts
    std::uint64_t simCycles = 0;
    /** Every public counter, "group.key" -> value (full runs). */
    std::map<std::string, std::uint64_t> stats;
    std::uint64_t metadataOps = 0;
    std::uint64_t digest = 0;
    std::uint64_t inputDigest = 0;
    CellTimes t;
    double peakRssMb = 0;
    // Sampled cells.
    double neff = 0;
    double detailedFrac = 0;
    std::vector<std::size_t> checkpoints; //!< snapshot record per interval
};

/**
 * Start a per-cell peak-memory window: hand freed heap back to the OS
 * and reset the kernel's resident high-water mark, so a cell's peak
 * reflects what it needs rather than what earlier cells left behind.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Resident high-water mark (VmHWM) since resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
fail(CellResult& r, const std::string& why)
{
    if (r.ok)
        r.error = why;
    else
        r.error += "; " + why;
    r.ok = false;
}

std::uint64_t
evalInstructions(const sl::Trace& t, std::size_t from, std::size_t to)
{
    std::uint64_t n = 0;
    for (std::size_t i = from; i < to; ++i)
        n += 1 + t.records[i].bubbles;
    return n;
}

void
collectStats(sl::System& sys, std::map<std::string, std::uint64_t>& out)
{
    auto group = [&](const std::string& prefix, const sl::StatGroup& g) {
        for (const auto& [k, v] : g.counters())
            out[prefix + g.name() + "." + k] = v.value();
    };
    for (unsigned c = 0; c < sys.cores(); ++c) {
        const std::string core = "c" + std::to_string(c) + ".";
        group("", sys.core(c).stats());
        group("", sys.l1d(c).stats());
        group("", sys.l2(c).stats());
        if (sl::Prefetcher* pf = sys.l1dPrefetcher(c))
            group(core + "l1pf.", pf->stats());
        if (sl::Prefetcher* pf = sys.l2Prefetcher(c)) {
            group(core + "l2pf.", pf->stats());
            if (const sl::StatGroup* store = pf->metadataStoreStats())
                group(core + "l2pf.", *store);
        }
    }
    group("", sys.llc().stats());
    group("", sys.dram().stats());
    if (sl::MemPressure* mp = sys.memPressure())
        group("", mp->stats());
}

/**
 * One full detailed cell: synthesize its traces, build the System, run
 * it, check it, and read its counters. Trace memoisation is cleared
 * first so every cell pays its own set-up.
 */
CellResult
runFullCell(const CellSpec& spec, double scale, std::uint64_t seed,
            Tracer& tracer, bool wantInputDigest)
{
    CellResult r;
    r.spec = spec;
    const std::string label = spec.label();
    sl::clearTraceCache();
    resetPeakRss();
    PhaseClock clock(1);

    sl::RunConfig cfg;
    cfg.cores = static_cast<unsigned>(spec.workloads.size());
    cfg.l2 = spec.l2;
    cfg.traceScale = scale;
    cfg.seed = seed;

    try {
        std::vector<sl::TracePtr> traces;
        auto ts = Clock::now();
        tracer.span("getTrace", label, nullptr, true, [&] {
            for (const auto& w : spec.workloads)
                traces.push_back(sl::getTrace(w, scale, seed));
        });
        r.t.synth = secondsSince(ts);

        // Listeners outlive the System that points at them.
        std::vector<std::unique_ptr<TimedListener>> listeners;
        std::unique_ptr<sl::System> sys;
        ts = Clock::now();
        tracer.span("System::System", label, nullptr, true, [&] {
            sys = std::make_unique<sl::System>(sl::systemConfigFor(cfg),
                                               traces);
        });
        r.t.build = secondsSince(ts);

        if (tracer.enabled) {
            for (unsigned c = 0; c < sys->cores(); ++c) {
                if (sl::Prefetcher* pf = sys->l1dPrefetcher(c)) {
                    listeners.push_back(std::make_unique<TimedListener>(
                        pf, tracer, r.t.l1Train, "l1d.onAccess", label));
                    sys->l1d(c).setListener(listeners.back().get());
                }
                if (sl::Prefetcher* pf = sys->l2Prefetcher(c)) {
                    listeners.push_back(std::make_unique<TimedListener>(
                        pf, tracer, r.t.l2Train, "l2.onAccess", label));
                    sys->l2(c).setListener(listeners.back().get());
                }
            }
        }

        clock.next();
        ts = Clock::now();
        tracer.span("System::run", label, &r.t.runSpan, true,
                    [&] { sys->run(); });
        r.t.run = secondsSince(ts);
        clock.stop();

        // Correctness: every core retired exactly its eval region.
        for (unsigned c = 0; c < sys->cores(); ++c) {
            const sl::Trace& tr = *traces[c];
            const std::uint64_t want =
                evalInstructions(tr, tr.warmupRecords, tr.records.size());
            sl::Core& core = sys->core(c);
            if (!core.done())
                fail(r, "core " + std::to_string(c) +
                            " did not finish its eval region");
            else if (core.evalInstructions() != want)
                fail(r, "core " + std::to_string(c) + " retired " +
                            std::to_string(core.evalInstructions()) +
                            " eval instructions, trace has " +
                            std::to_string(want));
            r.ipc.push_back(core.ipc());
            r.traceInstr += tr.instructionCount();
        }
        r.peakRssMb = peakRssMb();
        r.simCycles = sys->eventQueue().now();
        collectStats(*sys, r.stats);
        for (unsigned c = 0; c < sys->cores(); ++c)
            if (sl::Prefetcher* pf = sys->l2Prefetcher(c))
                r.metadataOps += pf->metadataOps();

        Digest d;
        d.add(label);
        for (const auto& [k, v] : r.stats) {
            d.add(k);
            d.add(v);
        }
        d.add(r.simCycles);
        for (unsigned c = 0; c < sys->cores(); ++c) {
            d.add(sys->core(c).evalInstructions());
            d.add(sys->core(c).evalCycles());
        }
        r.digest = d.value();
        if (wantInputDigest) {
            Digest in;
            for (const auto& t : traces) {
                in.add(t->name);
                in.add(traceHash(*t));
            }
            r.inputDigest = in.value();
        }
    } catch (const sl::SimError& e) {
        fail(r, std::string("SimError [") + e.component() +
                    "]: " + e.what());
    } catch (const std::exception& e) {
        fail(r, std::string("exception: ") + e.what());
    }
    clock.stop();
    r.t.rescale(clock);
    return r;
}

std::size_t
countFiles(const std::string& dir)
{
    std::error_code ec;
    std::size_t n = 0;
    for (auto it = std::filesystem::directory_iterator(dir, ec);
         !ec && it != std::filesystem::directory_iterator(); ++it)
        ++n;
    return n;
}

/**
 * One sampled cell: runSampled into an empty private checkpoint
 * directory (a cold run). A traced run splits the lane into its phases
 * first -- profile, select, checkpoint generation at @p checkpoints,
 * the boundaries an earlier untraced runSampled of the same cell
 * reported -- and then calls runSampled, which finds the checkpoints on
 * disk and so spends its time re-profiling, re-selecting and simulating
 * the intervals.
 */
CellResult
runSampledCell(const CellSpec& spec, double scale, std::uint64_t seed,
               unsigned threads, const std::string& ckptDir,
               const std::vector<std::size_t>& checkpoints, Tracer& tracer,
               bool wantInputDigest)
{
    CellResult r;
    r.spec = spec;
    const std::string label = spec.label();
    const std::string& workload = spec.workloads[0];
    sl::clearTraceCache();
    resetPeakRss();
    PhaseClock clock(threads);

    sl::RunConfig cfg;
    cfg.l2 = spec.l2;
    cfg.traceScale = scale;
    cfg.seed = seed;
    sl::SampleOptions opts;
    opts.checkpointDir = ckptDir;
    opts.threads = threads;

    try {
        std::filesystem::remove_all(ckptDir);
        std::filesystem::create_directories(ckptDir);

        sl::TracePtr trace;
        auto ts = Clock::now();
        tracer.span("getTrace", label, nullptr, true, [&] {
            trace = sl::getTrace(workload, scale, seed);
        });
        r.t.synth = secondsSince(ts);

        if (tracer.enabled) {
            sl::TraceProfile prof;
            ts = Clock::now();
            tracer.span("profileTrace", label, nullptr, true, [&] {
                prof = sl::profileTrace(*trace, opts.intervals);
            });
            r.t.profile = secondsSince(ts);
            std::vector<std::vector<double>> points;
            for (const auto& iv : prof.intervals)
                points.push_back(iv.features);
            ts = Clock::now();
            tracer.span("kmeansSelect", label, nullptr, true, [&] {
                // runSampled clusters three quarters of its budget.
                sl::kmeansSelect(points,
                                 std::max<std::size_t>(1, 3 * opts.k / 4),
                                 seed);
            });
            r.t.select = secondsSince(ts);
            ts = Clock::now();
            tracer.span("generateCheckpoints", label, nullptr, true, [&] {
                sl::generateCheckpoints(cfg, workload, checkpoints,
                                        ckptDir);
            });
            r.t.checkpoint = secondsSince(ts);
        }

        const std::size_t filesBefore = countFiles(ckptDir);
        sl::SampledReport rep;
        clock.next();
        ts = Clock::now();
        tracer.span("runSampled", label, &r.t.runSpan, true, [&] {
            rep = sl::runSampled(cfg, workload, opts);
        });
        r.t.run = secondsSince(ts);
        clock.stop();
        if (tracer.enabled) {
            if (countFiles(ckptDir) != filesBefore)
                fail(r, "runSampled wrote checkpoints the phase split "
                        "did not predict; sample.* times are wrong");
        }

        // Correctness: every detailed interval retired exactly its
        // measurement window, and the estimate is a real IPC.
        std::uint64_t sampled = 0;
        for (const sl::SampledInterval& si : rep.intervals) {
            const std::uint64_t want =
                evalInstructions(*trace, si.startRecord, si.endRecord);
            if (si.instructions != want)
                fail(r, "interval " + std::to_string(si.interval) +
                            " retired " + std::to_string(si.instructions) +
                            " instructions, window has " +
                            std::to_string(want));
            sampled += si.instructions;
            r.checkpoints.push_back(si.checkpointRecord);
        }
        if (rep.intervals.empty() || sampled != rep.sampledInstructions)
            fail(r, "sampled instruction total does not add up");
        if (!(rep.ipcEstimate > 0) || !std::isfinite(rep.ipcEstimate))
            fail(r, "sampled IPC estimate is not a positive number");
        r.peakRssMb = peakRssMb();
        r.ipc.push_back(rep.ipcEstimate);
        r.traceInstr = trace->instructionCount();
        r.neff = rep.neff;
        r.detailedFrac =
            rep.totalEvalInstructions
                ? static_cast<double>(rep.sampledInstructions) /
                      static_cast<double>(rep.totalEvalInstructions)
                : 0;

        Digest d;
        d.add(label);
        d.add(rep.deterministicJson);
        r.digest = d.value();
        if (wantInputDigest) {
            Digest in;
            in.add(trace->name);
            in.add(traceHash(*trace));
            r.inputDigest = in.value();
        }
    } catch (const sl::SimError& e) {
        fail(r, std::string("SimError [") + e.component() +
                    "]: " + e.what());
    } catch (const std::exception& e) {
        fail(r, std::string("exception: ") + e.what());
    }
    clock.stop();
    r.t.rescale(clock);
    if (tracer.enabled)
        r.t.intervals =
            std::max(0.0, r.t.run - r.t.profile - r.t.select);
    std::error_code ec;
    std::filesystem::remove_all(ckptDir, ec);
    return r;
}

// ---------------------------------------------------------------------
// Repetitions and metrics
// ---------------------------------------------------------------------

struct Rep
{
    bool traced = false;
    std::vector<CellResult> cells;
};

/**
 * Each cell's median across @p reps. Times are already rescaled to the
 * reference host speed (PhaseClock); the median then drops the odd
 * repetition whose calibration missed a change of host state, which a
 * best-of would keep.
 */
template <typename Fn>
std::vector<double>
cellMedian(const std::vector<const Rep*>& reps, Fn&& fn)
{
    std::vector<double> out;
    for (std::size_t i = 0; !reps.empty() && i < reps[0]->cells.size();
         ++i) {
        std::vector<double> v;
        for (const Rep* r : reps)
            v.push_back(fn(r->cells[i]));
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        out.push_back(n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
    }
    return out;
}

template <typename Fn>
double
cellMedianSum(const std::vector<const Rep*>& reps, Fn&& fn)
{
    double s = 0;
    for (const double x : cellMedian(reps, fn))
        s += x;
    return s;
}

template <typename Fn>
double
cellMedianMax(const std::vector<const Rep*>& reps, Fn&& fn)
{
    double m = 0;
    for (const double x : cellMedian(reps, fn))
        m = std::max(m, x);
    return m;
}

/** IPC of the single-core cell (@p l2, @p workload), 0 if absent. */
double
ipcOf(const std::vector<CellResult>& cells, const std::string& l2,
      const std::string& workload)
{
    for (const auto& c : cells)
        if (c.ok && c.spec.l2 == l2 && c.spec.workloads[0] == workload)
            return c.ipc[0];
    return 0;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (const double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Geomean over (workload, core) of IPC under @p l2 over IPC under
 *  "none", matched by cell position. */
double
speedupOf(const std::vector<CellResult>& cells, const std::string& l2)
{
    std::vector<double> ratios;
    for (const auto& base : cells) {
        if (base.spec.l2 != "none" || !base.ok)
            continue;
        for (const auto& var : cells) {
            if (var.spec.l2 != l2 || var.spec.workloads != base.spec.workloads ||
                !var.ok)
                continue;
            for (std::size_t c = 0; c < base.ipc.size(); ++c)
                if (base.ipc[c] > 0 && var.ipc[c] > 0)
                    ratios.push_back(var.ipc[c] / base.ipc[c]);
        }
    }
    return geomean(ratios);
}

/** Ordered (name, value, unit) rows; printed and emitted as JSON. */
struct MetricRow
{
    std::string name;
    double value;
    std::string unit;
};

double
safeDiv(double a, double b)
{
    return b != 0 ? a / b : 0;
}

/** Component group of a counter key: "l2_0.mshr_retries" -> "l2",
 *  "c0.l2pf.stream_store.hits" -> "stream_store". */
std::string
groupOf(const std::string& key)
{
    std::string g = key.substr(0, key.rfind('.'));
    g = g.substr(g.rfind('.') + 1);
    const std::size_t us = g.rfind('_');
    if (us != std::string::npos && us + 1 < g.size() &&
        std::all_of(g.begin() + us + 1, g.end(),
                    [](char ch) { return ch >= '0' && ch <= '9'; }))
        g.resize(us);
    return g;
}

/** Sum of counter @p name of component group @p group over @p cells
 *  (all cores). */
double
counterSum(const std::vector<const CellResult*>& cells,
           const std::string& group, const std::string& name)
{
    double s = 0;
    for (const CellResult* c : cells)
        for (const auto& [k, v] : c->stats)
            if (k.size() > name.size() &&
                k.compare(k.size() - name.size(), name.size(), name) == 0 &&
                k[k.size() - name.size() - 1] == '.' && groupOf(k) == group)
                s += static_cast<double>(v);
    return s;
}

/** Regime guard (graph_storm, pointer_chase): keeps the benchmark from
 *  sliding back to a cache-resident scale unnoticed. */
void
checkRegime(CellResult& r)
{
    if (!r.ok)
        return;
    if (r.spec.l2 == "none") {
        for (std::size_t c = 0; c < r.ipc.size(); ++c)
            if (!(r.ipc[c] < 1.0))
                fail(r, "regime: baseline IPC " +
                            std::to_string(r.ipc[c]) +
                            " is not below 1.0 (cache-resident)");
    } else if (hasL2(r.spec.l2)) {
        const double issued = counterSum({&r}, "l2", "prefetch_issued");
        if (issued == 0)
            fail(r, "regime: temporal prefetcher issued no L2 prefetches");
    }
}

double
instrK(const std::vector<const CellResult*>& cells)
{
    double s = 0;
    for (const CellResult* c : cells)
        s += static_cast<double>(c->traceInstr);
    return s / 1e3;
}

std::vector<const CellResult*>
cellsWhere(const std::vector<CellResult>& cells,
           bool (*pred)(const std::string&))
{
    std::vector<const CellResult*> out;
    for (const auto& c : cells)
        if (c.ok && pred(c.spec.l2))
            out.push_back(&c);
    return out;
}

/**
 * Per-layer metrics from full detailed cells. Counts come from @p cells,
 * one repetition (the run is deterministic and every repetition's
 * digest is checked equal); span times are per-cell medians over the
 * @p traced repetitions, which must not be empty.
 */
void
fullRunLayers(const std::vector<CellResult>& cells,
              const std::vector<const Rep*>& traced,
              std::vector<MetricRow>& m)
{
    const auto all = cellsWhere(cells, anyL2);
    const auto pf = cellsWhere(cells, hasL2);
    const auto sln = cellsWhere(cells, isStreamline);
    const auto pw = cellsWhere(cells, isPairwise);
    const double ki = instrK(all);

    for (const std::string lvl : {"l1d", "l2", "llc"}) {
        m.push_back({"cache." + lvl + ".mshr_retries_pki",
                     safeDiv(counterSum(all, lvl, "mshr_retries"), ki),
                     "1/kinstr"});
        m.push_back({"cache." + lvl + ".mpki",
                     safeDiv(counterSum(all, lvl, "demand_misses"), ki),
                     "1/kinstr"});
    }
    m.push_back({"cache.llc.metadata_pki",
                 safeDiv(counterSum(all, "llc", "metadata_reads") +
                             counterSum(all, "llc", "metadata_writes") +
                             2 * counterSum(all, "llc",
                                            "metadata_shuffle_blocks"),
                         ki),
                 "1/kinstr"});
    const double useful = counterSum(pf, "l2", "prefetch_useful");
    const double issued = counterSum(pf, "l2", "prefetch_issued");
    const double misses = counterSum(pf, "l2", "demand_misses");
    m.push_back({"cache.l2.pf_accuracy", safeDiv(useful, issued), "ratio"});
    m.push_back({"cache.l2.pf_coverage", safeDiv(useful, useful + misses),
                 "ratio"});
    m.push_back({"cache.l2.pf_late_frac",
                 safeDiv(counterSum(pf, "l2", "prefetch_late"), issued),
                 "ratio"});
    std::vector<double> ipcs;
    for (const CellResult* c : all)
        ipcs.insert(ipcs.end(), c->ipc.begin(), c->ipc.end());
    m.push_back({"cpu.ipc_geomean", geomean(ipcs), "instr/cycle"});

    // Training spans, split by the module the L2 prefetcher lives in.
    // Call counts are deterministic, so one traced repetition gives them.
    const std::vector<CellResult>& spanCells = traced[0]->cells;
    auto trainRows = [&](const std::string& mod,
                         bool (*pred)(const std::string&),
                         const std::vector<const CellResult*>& sel) {
        const double s = cellMedianSum(traced, [&](const CellResult& c) {
            return c.ok && pred(c.spec.l2) ? c.t.l2Train.totalNs / 1e9 : 0;
        });
        double calls = 0;
        for (const auto& c : spanCells)
            if (c.ok && pred(c.spec.l2))
                calls += static_cast<double>(c.t.l2Train.calls);
        double ops = 0;
        for (const CellResult* c : sel)
            ops += static_cast<double>(c->metadataOps);
        m.push_back({mod + ".train_s", s, "s"});
        m.push_back({mod + ".train_ns_per_call", safeDiv(s * 1e9, calls),
                     "ns"});
        m.push_back({mod + ".metadata_ops_pki", safeDiv(ops, instrK(sel)),
                     "1/kinstr"});
    };
    trainRows("core", isStreamline, sln);
    trainRows("temporal", isPairwise, pw);
    const double storeHits = counterSum(sln, "stream_store", "hits");
    const double storeMisses = counterSum(sln, "stream_store", "misses");
    m.push_back({"core.store_hit_rate",
                 safeDiv(storeHits, storeHits + storeMisses), "ratio"});

    double l1calls = 0;
    for (const auto& c : spanCells)
        l1calls += static_cast<double>(c.t.l1Train.calls);
    m.push_back({"prefetch.l1_train_s",
                 cellMedianSum(traced, [](const CellResult& c) {
                     return c.t.l1Train.totalNs / 1e9;
                 }),
                 "s"});
    m.push_back({"prefetch.l1_calls_pki", safeDiv(l1calls, ki),
                 "1/kinstr"});
    m.push_back({"sim.run_self_s",
                 cellMedianSum(traced, [](const CellResult& c) {
                     return c.t.runSpan.selfNs / 1e9;
                 }),
                 "s"});

    const double reads = counterSum(all, "dram", "reads");
    const double writes = counterSum(all, "dram", "writes");
    const double rowHits = counterSum(all, "dram", "row_hits");
    const double rowOther = counterSum(all, "dram", "row_misses") +
                            counterSum(all, "dram", "row_conflicts");
    m.push_back({"dram.reads_pki", safeDiv(reads, ki), "1/kinstr"});
    m.push_back({"dram.writes_pki", safeDiv(writes, ki), "1/kinstr"});
    m.push_back({"dram.row_hit_rate", safeDiv(rowHits, rowHits + rowOther),
                 "ratio"});
    m.push_back({"dram.read_q_wait_per_read",
                 safeDiv(counterSum(all, "dram", "read_q_wait_cycles"),
                         reads),
                 "cycles"});
    m.push_back({"cache.llc.quota_stalls_pki",
                 safeDiv(counterSum(all, "llc", "mshr_quota_stalls"), ki),
                 "1/kinstr"});
    m.push_back({"sim.pf_dropped_pressure_pki",
                 safeDiv(counterSum(all, "l1d", "prefetch_dropped_pressure") +
                             counterSum(all, "l2",
                                        "prefetch_dropped_pressure"),
                         ki),
                 "1/kinstr"});
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 2;
    std::string workDir = ".bench_build/perfbench-work";
};

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "sl_perfbench: %s\nusage: sl_perfbench --workload "
                 "{graph_storm|pointer_chase|shared_2core|sampled_lane} "
                 "--seed N --seconds S --trace 0|1 [--threads T] "
                 "[--work-dir DIR]\n",
                 msg);
    return 2;
}

/** Clear every SL_* knob so results cannot depend on the caller's
 *  environment (fast-wake, trace cache, telemetry, job count, scale,
 *  sample dir, stat dumps, repro paths). */
void
clearSimulatorEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "SL_", 3) == 0)
            names.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const auto& n : names)
        unsetenv(n.c_str());
}

void
printRow(const MetricRow& r)
{
    std::printf("  %-34s %16.6g %s\n", r.name.c_str(), r.value,
                r.unit.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    clearSimulatorEnvironment();

    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (a == "--threads")
            o.threads = static_cast<unsigned>(std::atoi(v));
        else if (a == "--work-dir")
            o.workDir = v;
        else
            return usage(("unknown option " + a).c_str());
    }
    const std::vector<WorkloadDef> defs = workloadDefs();
    const WorkloadDef* def = nullptr;
    for (const auto& d : defs)
        if (d.name == o.workload)
            def = &d;
    if (!def)
        return usage(("unknown workload '" + o.workload + "'").c_str());
    if (o.threads < 1 || o.threads > 4)
        return usage("--threads must be 1..4");
    if (!(o.seconds > 0))
        return usage("--seconds must be positive");

    std::filesystem::create_directories(o.workDir);
    const std::string ckptDir = o.workDir + "/ckpt";
    const auto start = Clock::now();
    Tracer tracer(start);

    // Repetitions: at least three (their digests must agree, and each
    // cell's median needs three times), then more while
    // another fits in the budget; failures are deterministic, so a run
    // that has one stops at the minimum. A traced run alternates
    // untraced and traced repetitions so the overhead is measured under
    // the same conditions.
    constexpr std::size_t kMinReps = 3;
    std::vector<Rep> reps;
    std::uint64_t inputDigest = 0;
    bool anyFailed = false;
    while (true) {
        const double elapsed = secondsSince(start);
        if (reps.size() >= kMinReps &&
            (anyFailed ||
             elapsed * (reps.size() + 1) / reps.size() > o.seconds))
            break;
        Rep rep;
        rep.traced = o.trace && reps.size() % 2 == 1;
        tracer.enabled = rep.traced;
        const bool first = reps.empty();
        for (const CellSpec& spec : def->cells) {
            CellResult c =
                def->sampled
                    ? runSampledCell(
                          spec, def->scale, o.seed, o.threads, ckptDir,
                          first ? std::vector<std::size_t>{}
                                : reps[0].cells[rep.cells.size()].checkpoints,
                          tracer, first)
                    : runFullCell(spec, def->scale, o.seed, tracer, first);
            if (def->regimeGuard)
                checkRegime(c);
            anyFailed |= !c.ok;
            rep.cells.push_back(std::move(c));
        }
        tracer.enabled = false;
        if (first) {
            Digest in;
            for (const auto& c : rep.cells)
                in.add(c.inputDigest);
            inputDigest = in.value();
        }
        reps.push_back(std::move(rep));
    }

    // Cross-repetition determinism: a cell whose counters differ
    // between repetitions of the same run is a failure.
    const std::size_t ncells = def->cells.size();
    std::vector<std::string> cellError(ncells);
    for (const auto& rep : reps)
        for (std::size_t i = 0; i < ncells; ++i) {
            const CellResult& c = rep.cells[i];
            if (!cellError[i].empty())
                continue;
            if (!c.ok)
                cellError[i] = c.error;
            else if (reps[0].cells[i].ok &&
                     c.digest != reps[0].cells[i].digest)
                cellError[i] = "counters differ between repetitions";
        }
    std::vector<const Rep*> plain, traced;
    for (const auto& r : reps)
        (r.traced ? traced : plain).push_back(&r);

    // A traced run prints a traced repetition's digest, so comparing it
    // with an untraced run's checks that the interposer changes nothing.
    Digest simDigest;
    for (const auto& c : (traced.empty() ? reps[0] : *traced[0]).cells)
        simDigest.add(c.digest);

    // ---- end-to-end metrics (untraced repetitions) ----
    std::vector<MetricRow> e2e;
    e2e.push_back({"wall_s", cellMedianSum(plain, [](const CellResult& c) {
                       return c.t.total;
                   }),
                   "s"});
    e2e.push_back({"setup_s", cellMedianSum(plain, [](const CellResult& c) {
                       return c.t.synth + c.t.build;
                   }),
                   "s"});
    double instr = 0;
    for (const auto& c : reps[0].cells)
        instr += static_cast<double>(c.traceInstr);
    const auto runTime = [](const CellResult& c) { return c.t.run; };
    e2e.push_back({"sim_mips",
                   safeDiv(instr, cellMedianSum(plain, runTime)) / 1e6,
                   "Minstr/s"});
    e2e.push_back({"peak_rss_mb",
                   cellMedianMax(plain, [](const CellResult& c) {
                       return c.peakRssMb;
                   }),
                   "MB"});
    e2e.push_back({"sim_speedup_streamline",
                   speedupOf(reps[0].cells, "streamline"), "ratio"});
    // The slowest cell bounds a parallel figure sweep. One cell's time
    // is too noisy on a shared host for a bounded metric, so it is
    // printed here and emitted with the per-layer metrics.
    const MetricRow cellMax{"cell_s_max",
                            cellMedianMax(plain, [](const CellResult& c) {
                                return c.t.total;
                            }),
                            "s"};

    // ---- per-layer metrics (traced runs only) ----
    std::vector<MetricRow> layers;
    std::vector<std::string> notes;
    std::size_t extraCells = 0, extraFailed = 0;
    auto extraCell = [&](const CellResult& c) {
        ++extraCells;
        if (!c.ok) {
            ++extraFailed;
            notes.push_back("cell " + c.spec.label() + " FAILED: " +
                            c.error);
        }
    };
    if (o.trace) {
        // Full-run layers come from the workload's own cells -- on the
        // sampled lane from the full detailed reference runs of its
        // cells, which are traced, run once, and timed apart.
        std::vector<const Rep*> spanReps = traced;
        std::vector<const Rep*> timeReps = plain;
        Rep refRep;
        double errPp = 0;
        if (def->sampled) {
            tracer.enabled = true;
            for (const CellSpec& spec : def->cells) {
                refRep.cells.push_back(
                    runFullCell(spec, def->scale, o.seed, tracer, false));
                extraCell(refRep.cells.back());
            }
            tracer.enabled = false;
            spanReps = timeReps = {&refRep};
            for (const char* p : {"streamline", "triangel"})
                for (const auto& w : {"spec06_mcf", "gap_pr"}) {
                    const double full =
                        safeDiv(ipcOf(refRep.cells, p, w),
                                ipcOf(refRep.cells, "none", w));
                    const double samp =
                        safeDiv(ipcOf(reps[0].cells, p, w),
                                ipcOf(reps[0].cells, "none", w));
                    notes.push_back(std::string("speedup ") + p + "/" + w +
                                    ": sampled " + std::to_string(samp) +
                                    ", full run " + std::to_string(full));
                    errPp = std::max(errPp, 100.0 * std::fabs(samp - full));
                }
        }
        const std::vector<CellResult>& layerCells = spanReps[0]->cells;

        layers.push_back(cellMax);
        layers.push_back({"trace.synth_s",
                          cellMedianSum(plain, [](const CellResult& c) {
                              return c.t.synth;
                          }),
                          "s"});
        layers.push_back({"sim.build_s",
                          cellMedianSum(timeReps, [](const CellResult& c) {
                              return c.t.build;
                          }),
                          "s"});
        const double runS = cellMedianSum(timeReps, runTime);
        layers.push_back({"sim.run_s", runS, "s"});
        double cycles = 0;
        for (const auto& c : layerCells)
            cycles += static_cast<double>(c.simCycles);
        layers.push_back({"sim.kcycles_per_s", safeDiv(cycles / 1e3, runS),
                          "kcycles/s"});
        layers.push_back({"sampled_speedup_err_pp", errPp, "pp"});
        fullRunLayers(layerCells, spanReps, layers);

        auto phase = [&](double CellTimes::*f) {
            return cellMedianSum(def->sampled ? traced
                                              : std::vector<const Rep*>{},
                                 [f](const CellResult& c) { return c.t.*f; });
        };
        layers.push_back({"sample.profile_s", phase(&CellTimes::profile),
                          "s"});
        layers.push_back({"sample.select_s", phase(&CellTimes::select), "s"});
        layers.push_back({"sample.checkpoint_s",
                          phase(&CellTimes::checkpoint), "s"});
        layers.push_back({"sample.intervals_s", phase(&CellTimes::intervals),
                          "s"});
        double frac = 0, neff = 0;
        if (def->sampled) {
            for (const auto& c : reps[0].cells) {
                frac += c.detailedFrac / static_cast<double>(ncells);
                neff += c.neff / static_cast<double>(ncells);
            }
        }
        layers.push_back({"sample.detailed_frac", frac, "ratio"});
        layers.push_back({"sample.n_eff", neff, "intervals"});

        double mixIpc = 0;
        if (def->name == "shared_2core") {
            const CellResult mix =
                runFullCell(kMixProbe, def->scale, o.seed, tracer, false);
            extraCell(mix);
            if (mix.ok) {
                mixIpc = mix.ipc[1];
                notes.push_back("mix " + kMixProbe.label() + ": ipc " +
                                std::to_string(mix.ipc[0]) + " / " +
                                std::to_string(mix.ipc[1]) + ", cell " +
                                std::to_string(mix.t.total) + " s");
            }
        }
        layers.push_back({"cpu.ipc_gap_bfs_in_mix", mixIpc, "instr/cycle"});

        // Medians over equal numbers of untraced and traced
        // repetitions, which alternate.
        const auto total = [](const CellResult& c) { return c.t.total; };
        const std::vector<const Rep*> paired(
            plain.begin(),
            plain.begin() + std::min(plain.size(), traced.size()));
        const double tw = cellMedianSum(traced, total);
        const double uw = cellMedianSum(paired, total);
        layers.push_back({"trace.overhead_s", tw - uw, "s"});
        layers.push_back({"trace.overhead_frac", safeDiv(tw - uw, uw),
                          "ratio"});
        tracer.write(o.workDir + "/spans-" + def->name + ".json");
    }
    std::size_t failed = extraFailed;
    for (const auto& e : cellError)
        failed += !e.empty();
    const std::size_t attempted = ncells + extraCells;

    // ---- report ----
    std::printf("workload %s  scale %g  seed %llu  reps %zu (%zu traced)"
                "  threads %u\n",
                def->name.c_str(), def->scale,
                static_cast<unsigned long long>(o.seed), reps.size(),
                traced.size(), o.threads);
    for (std::size_t i = 0; i < ncells; ++i) {
        const CellResult& c = reps[0].cells[i];
        std::printf("  cell %-38s ipc", c.spec.label().c_str());
        for (const double x : c.ipc)
            std::printf(" %.4f", x);
        std::printf("  %.3f s  %s\n", c.t.total,
                    cellError[i].empty() ? "ok" : "FAILED");
        if (!cellError[i].empty())
            std::printf("    error: %s\n", cellError[i].c_str());
    }
    // Each repetition's wall time as measured and the host's slowdown
    // against the reference speed, which the metrics below divide out.
    std::printf("  rep walls as measured (s), host slowdown:");
    for (const auto& r : reps) {
        double w = 0, cal = 0;
        for (const auto& c : r.cells) {
            w += c.t.rawTotal;
            cal += c.t.calibration;
        }
        std::printf(" %.3f%s x%.2f", w, r.traced ? "T" : "",
                    cal / static_cast<double>(r.cells.size()) / kCalibRefS);
    }
    std::printf("\nend-to-end (host seconds at the reference speed):\n");
    for (const auto& r : e2e)
        printRow(r);
    printRow({"failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio"});
    printRow(cellMax);
    if (o.trace) {
        std::printf("per-layer:\n");
        for (const auto& r : layers)
            printRow(r);
    }
    for (const auto& n : notes)
        std::printf("  note: %s\n", n.c_str());
    std::printf("input_digest %s\nsim_digest %s\n", hex(inputDigest).c_str(),
                hex(simDigest.value()).c_str());

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    const auto& rows = o.trace ? layers : e2e;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double v = std::isfinite(rows[i].value) ? rows[i].value : 0;
        json += (i ? ", " : "") + std::string("\"") + rows[i].name +
                "\": {\"value\": " + sl::jsonNumber(v) + ", \"unit\": \"" +
                rows[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
