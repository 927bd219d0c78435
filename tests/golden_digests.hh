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
// fails here, and so does any change to wake order, pass-on chaining or
// the inline cache-to-cache hops (DESIGN.md §14).
inline constexpr GoldenRow kGolden[] = {
    {"streamline", "spec06_mcf", 0x3fd5178d31158a45ULL,
     17685425496156585352ULL, 15155647001994564694ULL, 40633, 2600512,
     15157, 6962, 27038, 15596, 15750},
    {"streamline", "gap_bfs", 0x40156e15ccf6a3c3ULL,
     16366167094985885994ULL, 4262596619712192483ULL, 790, 50560,
     1698, 1040, 3027, 2430, 2439},
    {"triage", "spec06_mcf", 0x3fd798ad3eb880fdULL,
     10965295171386264284ULL, 14695981039346656037ULL, 40682, 2603648,
     117994, 35681, 25465, 21572, 22086},
    {"triage", "gap_bfs", 0x40084f0f1835730bULL,
     17017092280115398680ULL, 14695981039346656037ULL, 820, 52480,
     19513, 5626, 2562, 3068, 3362},
    {"triangel", "spec06_mcf", 0x3fd585ad716435fcULL,
     6343442115286259055ULL, 14695981039346656037ULL, 40671, 2602944,
     43799, 11126, 25247, 20775, 21111},
    {"triangel", "gap_bfs", 0x401536b8aa8628dfULL,
     13972193496535648856ULL, 14695981039346656037ULL, 790, 50560,
     5823, 1345, 1797, 3674, 3684},
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
