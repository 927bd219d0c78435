/**
 * @file
 * Tests for the persistent trace cache (DESIGN.md §13): byte-exact
 * round-trips through the on-disk format, golden equivalence between
 * mmap-loaded and freshly regenerated traces at the full-run level, and
 * the corruption taxonomy (truncation, CRC damage, version skew) with
 * its transparent fall-back to regeneration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/runner.hh"
#include "trace/trace.hh"
#include "trace/trace_cache.hh"
#include "test_util.hh"
#include "trace/workloads.hh"

namespace sl
{
namespace
{

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 1;

/** Scratch cache directory private to each test. Tests restore the ""
 *  override on teardown so the rest of the suite keeps running
 *  cache-less regardless of the ambient SL_TRACE_CACHE. */
class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setTraceCacheDir("");
        clearTraceCache();
    }

    void
    TearDown() override
    {
        setTraceCacheDir("");
        clearTraceCache();
    }

    const test::ScratchDir scratch_;
    const std::string dir_ = scratch_.path();
};

bool
sameRecords(const Trace& a, const Trace& b)
{
    return a.records.size() == b.records.size() &&
           std::memcmp(a.records.data(), b.records.data(),
                       a.records.size() * sizeof(TraceRecord)) == 0;
}

/** Expect a trace_cache SimError whose detail mentions @p needle. */
template <typename Fn>
void
expectCacheError(Fn&& fn, const std::string& needle)
{
    try {
        fn();
        FAIL() << "expected SimError containing '" << needle << "'";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "trace_cache");
        EXPECT_NE(e.detail().find(needle), std::string::npos)
            << "detail was: " << e.detail();
    }
}

TEST_F(TraceCacheTest, StoreThenLoadRoundTripsExactly)
{
    TracePtr gen = getTrace("spec06_mcf", kScale, kSeed);
    const std::string path =
        traceCachePath(dir_, "spec06_mcf", kScale, kSeed);
    ASSERT_TRUE(storeCachedTrace(path, *gen, kScale, kSeed));

    TracePtr loaded = loadCachedTrace(path, "spec06_mcf", kScale, kSeed);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name, gen->name);
    EXPECT_EQ(loaded->suite, gen->suite);
    EXPECT_EQ(loaded->warmupRecords, gen->warmupRecords);
    EXPECT_EQ(loaded->instructionCount(), gen->instructionCount());
    EXPECT_TRUE(sameRecords(*loaded, *gen));
}

TEST_F(TraceCacheTest, MissingFileIsAPlainMiss)
{
    EXPECT_EQ(loadCachedTrace(dir_ + "/absent.sltc", "spec06_mcf",
                              kScale, kSeed),
              nullptr);
}

TEST_F(TraceCacheTest, PathKeysIdentityAndGeneratorVersion)
{
    const std::string a = traceCachePath(dir_, "gap_bfs", 0.05, 1);
    EXPECT_NE(a, traceCachePath(dir_, "gap_bfs", 0.25, 1));
    EXPECT_NE(a, traceCachePath(dir_, "gap_bfs", 0.05, 2));
    EXPECT_NE(a, traceCachePath(dir_, "gap_pr", 0.05, 1));
    EXPECT_NE(a.find("_g" + std::to_string(kTraceGenVersion)),
              std::string::npos);
}

/**
 * Golden equivalence: a run whose trace was mmap-loaded from the cache
 * must match a run whose trace was regenerated, across every prefetcher
 * under test on a SPEC and a GAP workload. IPC and the counters are
 * compared exactly — the loaded records are the same bytes, so the
 * simulation must be bit-identical.
 */
TEST_F(TraceCacheTest, MmapLoadedRunMatchesRegeneratedRun)
{
    for (const char* wl : {"spec06_mcf", "gap_bfs"}) {
        // Reference: regenerated, cache disabled.
        setTraceCacheDir("");
        clearTraceCache();
        TracePtr gen = getTrace(wl, kScale, kSeed);

        // Populate the cache, then force the next getTrace to consult it.
        setTraceCacheDir(dir_);
        clearTraceCache();
        TracePtr stored = getTrace(wl, kScale, kSeed);
        ASSERT_TRUE(std::filesystem::exists(
            traceCachePath(dir_, wl, kScale, kSeed)))
            << wl;
        clearTraceCache();
        TracePtr mapped = getTrace(wl, kScale, kSeed);
        ASSERT_TRUE(sameRecords(*gen, *stored)) << wl;
        ASSERT_TRUE(sameRecords(*gen, *mapped)) << wl;
        EXPECT_EQ(gen->warmupRecords, mapped->warmupRecords) << wl;
        EXPECT_EQ(gen->instructionCount(), mapped->instructionCount())
            << wl;

        for (const char* pf : {"streamline", "triage", "triangel"}) {
            RunConfig cfg;
            cfg.l2 = pf;
            cfg.traceScale = kScale;
            cfg.seed = kSeed;

            setTraceCacheDir("");
            clearTraceCache();
            const RunResult fresh = runWorkload(cfg, wl);

            setTraceCacheDir(dir_);
            clearTraceCache();
            const RunResult warm = runWorkload(cfg, wl);

            ASSERT_EQ(fresh.cores.size(), warm.cores.size());
            EXPECT_EQ(fresh.cores[0].ipc, warm.cores[0].ipc)
                << pf << "/" << wl;
            EXPECT_EQ(fresh.cores[0].l2DemandMisses,
                      warm.cores[0].l2DemandMisses)
                << pf << "/" << wl;
            EXPECT_EQ(fresh.cores[0].l2PrefetchIssued,
                      warm.cores[0].l2PrefetchIssued)
                << pf << "/" << wl;
            EXPECT_EQ(fresh.cores[0].l2PrefetchUseful,
                      warm.cores[0].l2PrefetchUseful)
                << pf << "/" << wl;
            EXPECT_EQ(fresh.dramReads, warm.dramReads) << pf << "/" << wl;
            EXPECT_EQ(fresh.dramWrites, warm.dramWrites)
                << pf << "/" << wl;
            EXPECT_EQ(fresh.dramBytes, warm.dramBytes) << pf << "/" << wl;
            EXPECT_EQ(fresh.metadataTraffic(), warm.metadataTraffic())
                << pf << "/" << wl;
            EXPECT_EQ(fresh.l2PfStats, warm.l2PfStats) << pf << "/" << wl;
        }
    }
}

TEST_F(TraceCacheTest, TruncatedFileThrowsDistinctError)
{
    TracePtr gen = getTrace("gap_bfs", kScale, kSeed);
    const std::string path = traceCachePath(dir_, "gap_bfs", kScale, kSeed);
    ASSERT_TRUE(storeCachedTrace(path, *gen, kScale, kSeed));

    // Cut mid-payload: the header still promises the full record count.
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);
    expectCacheError(
        [&] { loadCachedTrace(path, "gap_bfs", kScale, kSeed); },
        "truncated");

    // Cut into the header itself: a different truncation message.
    std::filesystem::resize_file(path, 64);
    expectCacheError(
        [&] { loadCachedTrace(path, "gap_bfs", kScale, kSeed); },
        "smaller than");
}

TEST_F(TraceCacheTest, PayloadCorruptionThrowsCrcMismatch)
{
    TracePtr gen = getTrace("gap_bfs", kScale, kSeed);
    const std::string path = traceCachePath(dir_, "gap_bfs", kScale, kSeed);
    ASSERT_TRUE(storeCachedTrace(path, *gen, kScale, kSeed));

    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(128 + 5);
    char byte{};
    f.seekg(128 + 5);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(128 + 5);
    f.write(&byte, 1);
    f.close();

    expectCacheError(
        [&] { loadCachedTrace(path, "gap_bfs", kScale, kSeed); },
        "payload CRC mismatch");
}

TEST_F(TraceCacheTest, HeaderCorruptionThrowsHeaderCrcMismatch)
{
    TracePtr gen = getTrace("gap_bfs", kScale, kSeed);
    const std::string path = traceCachePath(dir_, "gap_bfs", kScale, kSeed);
    ASSERT_TRUE(storeCachedTrace(path, *gen, kScale, kSeed));

    // Flip a bit in the record-count field; the header CRC catches it
    // before the bogus count can size a payload read.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    char b = 0x7f;
    f.write(&b, 1);
    f.close();

    expectCacheError(
        [&] { loadCachedTrace(path, "gap_bfs", kScale, kSeed); },
        "header CRC mismatch");
}

TEST_F(TraceCacheTest, VersionSkewThrowsDistinctErrors)
{
    TracePtr gen = getTrace("gap_bfs", kScale, kSeed);
    const std::string path = traceCachePath(dir_, "gap_bfs", kScale, kSeed);
    ASSERT_TRUE(storeCachedTrace(path, *gen, kScale, kSeed));

    // Format-version skew fires before the header CRC is checked, so a
    // raw byte patch is enough.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        std::uint32_t v = kTraceCacheVersion + 1;
        f.seekp(4);
        f.write(reinterpret_cast<const char*>(&v), sizeof(v));
        f.close();
        expectCacheError(
            [&] { loadCachedTrace(path, "gap_bfs", kScale, kSeed); },
            "unsupported trace cache format version");
    }

    // Wrong magic: not ours at all.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        std::uint32_t m = 0xdeadbeefu;
        f.seekp(0);
        f.write(reinterpret_cast<const char*>(&m), sizeof(m));
        f.close();
        expectCacheError(
            [&] { loadCachedTrace(path, "gap_bfs", kScale, kSeed); },
            "bad magic");
    }
}

/**
 * The fall-back contract: getTrace() must absorb any cache corruption,
 * regenerate the identical trace, and re-publish a healthy file.
 */
TEST_F(TraceCacheTest, CorruptFileFallsBackToRegeneration)
{
    setTraceCacheDir("");
    clearTraceCache();
    TracePtr gen = getTrace("spec06_mcf", kScale, kSeed);

    setTraceCacheDir(dir_);
    clearTraceCache();
    (void)getTrace("spec06_mcf", kScale, kSeed); // publish
    const std::string path =
        traceCachePath(dir_, "spec06_mcf", kScale, kSeed);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Damage the payload; the next cold getTrace must still succeed and
    // heal the file.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(200);
        char b = 0x55;
        f.write(&b, 1);
        f.close();
    }
    clearTraceCache();
    TracePtr healed = getTrace("spec06_mcf", kScale, kSeed);
    ASSERT_NE(healed, nullptr);
    EXPECT_TRUE(sameRecords(*gen, *healed));

    TracePtr reloaded = loadCachedTrace(path, "spec06_mcf", kScale, kSeed);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_TRUE(sameRecords(*gen, *reloaded));
}

} // namespace
} // namespace sl
