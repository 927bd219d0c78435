/**
 * @file
 * The suite's one golden-digest table: full-run stat snapshots of every
 * temporal prefetcher on a DRAM-bound and a cache-resident workload,
 * plus the check that compares a run against a row.
 */

#ifndef SL_TESTS_GOLDEN_DIGESTS_HH
#define SL_TESTS_GOLDEN_DIGESTS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "sim/runner.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace test
{

inline std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t n)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline std::uint64_t
digestStats(const std::map<std::string, std::uint64_t>& m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [k, v] : m) {
        h = fnv1a(h, k.data(), k.size());
        h = fnv1a(h, &v, sizeof(v));
    }
    return h;
}

struct GoldenRow
{
    const char* l2;
    const char* workload;
    std::uint64_t ipcBits;
    std::uint64_t pfStatsDigest, storeStatsDigest;
    std::uint64_t dramReads, dramBytes;
    std::uint64_t metaReads, metaWrites;
    std::uint64_t l2Miss, l2Useful, l2Issued;
};

// Full-run digests (traceScale 0.05, seed 1, stride L1). The digests
// cover the *complete* prefetcher and metadata-store stat maps, so any
// change to counter values -- or to which counters get registered --
// fails here, and so does any change to wake order, pass-on chaining,
// the inline cache-to-cache hops (DESIGN.md §14) or the DRAM pick order
// (DESIGN.md §12).
inline constexpr GoldenRow kGolden[] = {
    {"streamline", "spec06_mcf", 0x3fd4f3ce441840acULL,
     16387182989679362704ULL, 15155647001994564694ULL, 40633, 2600512,
     15157, 6962, 27341, 15619, 15773},
    {"streamline", "gap_bfs", 0x4014ca3c678ac507ULL,
     17941494327627623614ULL, 10586314003329820419ULL, 790, 50560,
     1700, 1030, 2923, 2592, 2599},
    {"triage", "spec06_mcf", 0x3fd76a5dd0bdfe50ULL,
     2996249642007329399ULL, 14695981039346656037ULL, 40678, 2603392,
     117998, 35682, 24592, 21412, 21928},
    {"triage", "gap_bfs", 0x40091806925d1588ULL,
     9458815478729230711ULL, 14695981039346656037ULL, 811, 51904,
     18814, 5439, 2484, 2959, 3220},
    {"triangel", "spec06_mcf", 0x3fd63aa4283410b3ULL,
     6905316249603145240ULL, 14695981039346656037ULL, 40671, 2602944,
     43803, 11127, 24123, 20734, 21073},
    {"triangel", "gap_bfs", 0x40153c82f918488aULL,
     15031366736971310637ULL, 14695981039346656037ULL, 790, 50560,
     5777, 1369, 1732, 3739, 3747},
};

/** Run every golden cell on top of @p base (traceScale and l2 are set
 *  per row) and compare each counter and digest with the pinned row. */
inline void
expectGoldenRuns(const RunConfig& base)
{
    for (const GoldenRow& g : kGolden) {
        clearTraceCache();
        RunConfig cfg = base;
        cfg.traceScale = 0.05;
        cfg.l2 = g.l2;
        const RunResult r = runWorkload(cfg, g.workload);
        const std::string where = std::string(g.l2) + "/" + g.workload;

        std::uint64_t ipc_bits = 0;
        std::memcpy(&ipc_bits, &r.cores[0].ipc, sizeof(ipc_bits));
        EXPECT_EQ(ipc_bits, g.ipcBits) << where;
        EXPECT_EQ(digestStats(r.l2PfStats[0]), g.pfStatsDigest) << where;
        EXPECT_EQ(digestStats(r.storeStats), g.storeStatsDigest) << where;
        EXPECT_EQ(r.dramReads, g.dramReads) << where;
        EXPECT_EQ(r.dramBytes, g.dramBytes) << where;
        EXPECT_EQ(r.llcMetaReads, g.metaReads) << where;
        EXPECT_EQ(r.llcMetaWrites, g.metaWrites) << where;
        EXPECT_EQ(r.cores[0].l2DemandMisses, g.l2Miss) << where;
        EXPECT_EQ(r.cores[0].l2PrefetchUseful, g.l2Useful) << where;
        EXPECT_EQ(r.cores[0].l2PrefetchIssued, g.l2Issued) << where;
    }
}

} // namespace test
} // namespace sl

#endif // SL_TESTS_GOLDEN_DIGESTS_HH
