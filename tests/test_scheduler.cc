/**
 * @file
 * Tests for the stall scheduler (DESIGN.md §14).
 *
 * Structurally stalled requests park on per-resource wakeup lists and
 * wake when the blocking resource frees; cache-to-cache Forward/Respond
 * hops are direct timestamp-carrying calls (the scheme was once an
 * opt-in "fast-wake" mode, hence the FastWakeGolden name). Three
 * properties are checked here:
 *
 *  1. Audited runs: every workload retires exactly its evaluation
 *     region under a tight audit interval, so the waiter invariants
 *     (no parked request against a free resource without a wake in
 *     flight) are exercised throughout, not just at the end.
 *  2. Golden digests under audit: the pinned table in golden_digests.hh
 *     holds with the invariant auditor running every 10K cycles, so
 *     auditing observes the schedule without perturbing it.
 *  3. Snapshot round-trip: saving mid retry storm (waiter lists and
 *     wake probes live) and restoring resumes bit-identically.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden_digests.hh"
#include "prefetch/registry.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "test_util.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace
{

// ---------- audited runs ----------

TEST(SchedulerAudit, WorkloadsRetireEvalRegionUnderAudit)
{
    const char* workloads[] = {"spec06_mcf", "spec06_omnetpp",
                               "spec06_soplex", "gap_bfs", "gap_pr"};
    for (const char* w : workloads) {
        clearTraceCache();
        PrefetcherRegistry& reg = prefetcherRegistry();
        const PrefetcherTuning tuning;
        const TracePtr trace = getTrace(w, 0.05, /*seed=*/1);

        // Run length is the trace's record count retired in order; the
        // measurement region covers the records past warmup, each one
        // memory op plus the bubbles that precede it.
        std::uint64_t eval_instr = 0;
        for (std::size_t i = trace->warmupRecords;
             i < trace->records.size(); ++i)
            eval_instr += 1 + trace->records[i].bubbles;

        // A 10K-cycle audit interval has the InvariantAuditor check
        // MSHR/downstream accounting and the waiter invariants hundreds
        // of times per run; a stranded waiter throws instead of wedging
        // the run until the watchdog fires.
        SystemConfig sc;
        sc.hardening.auditInterval = 10'000;
        sc.l1dPrefetcher =
            reg.make("stride", PrefetcherRegistry::L1, tuning);
        sc.l2Prefetcher =
            reg.make("streamline", PrefetcherRegistry::L2, tuning);
        System sys(sc, {trace});
        sys.run();

        EXPECT_EQ(sys.core(0).evalInstructions(), eval_instr) << w;
        EXPECT_GT(sys.core(0).evalCycles(), 0u) << w;
        // The run stops the cycle the last record retires, with
        // prefetches still in flight; draining the calendar must leave
        // every MSHR freed and no request parked for good.
        EventQueue& eq = sys.eventQueue();
        while (!eq.empty())
            eq.runUntil(eq.nextCycle());
        EXPECT_TRUE(sys.l1d(0).idle() && sys.l2(0).idle() &&
                    sys.llc().idle())
            << w << ": hierarchy not drained at completion";
    }
}

// ---------- golden digests under audit ----------

/** The audit runs from the run loop, not as an event, so a tight audit
 *  interval must leave every pinned counter and digest unchanged while
 *  checking the waiter invariants throughout each golden run. */
TEST(FastWakeGolden, MatchesPinnedDigests)
{
    RunConfig cfg;
    cfg.hardening.auditInterval = 10'000;
    test::expectGoldenRuns(cfg);
}

// ---------- snapshot round-trip mid retry storm ----------

void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].l2DemandMisses, b.cores[i].l2DemandMisses);
        EXPECT_EQ(a.cores[i].l2PrefetchUseful,
                  b.cores[i].l2PrefetchUseful);
        EXPECT_EQ(a.cores[i].l2PrefetchIssued,
                  b.cores[i].l2PrefetchIssued);
    }
    EXPECT_EQ(a.metadataTraffic(), b.metadataTraffic());
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.storedCorrelations, b.storedCorrelations);
}

/** gap_bfs is the MSHR-saturating workload. The save point sits mid-run
 *  (the full run is ~245K cycles at this scale), where waiter lists and
 *  in-flight wake probes are live, so the waiter-list snapshot sections
 *  carry real state, not empty counts. */
TEST(SchedulerSnapshot, MidStormRoundTripIsBitIdentical)
{
    const test::ScratchDir dir;
    const std::string path = dir.file("storm.bin");
    RunConfig cfg;
    cfg.traceScale = 0.05;
    cfg.l2 = "streamline";
    const std::vector<std::string> w{"gap_bfs"};

    const RunResult plain = runWorkloads(cfg, w);

    RunHooks save;
    save.snapshotAt = 100'000;
    save.snapshotPath = path;
    const RunResult saved = runWorkloads(cfg, w, save);
    // Saving mid-run must not perturb the run that continues past it.
    expectIdenticalResults(plain, saved);

    RunHooks restore;
    restore.restorePath = path;
    const RunResult resumed = runWorkloads(cfg, w, restore);
    expectIdenticalResults(plain, resumed);
}

} // namespace
} // namespace sl
