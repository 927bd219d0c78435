/**
 * @file
 * Snapshot subsystem tests: the direction-switched Serializer, the
 * versioned CRC-guarded snapshot file format (round-trip bit-identity
 * and every rejection path), the sweep manifest (digests, resume
 * skip/rerun semantics, JSON splicing), and per-job wall-clock timeouts
 * with hang snapshots.
 *
 * File-based tests write into a per-test test::ScratchDir, so parallel
 * ctest processes never collide, and the directory goes away with the
 * test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/serializer.hh"
#include "dram/dram.hh"
#include "sim/batch.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

// ---------- Serializer ----------

TEST(Serializer, ScalarStringVectorRoundTrip)
{
    Serializer save;
    std::uint64_t a = 0x1122334455667788ull;
    std::int32_t b = -7;
    bool c = true;
    double d = 3.25;
    std::string s = "snapshot";
    std::vector<std::uint16_t> v{1, 2, 3, 500};
    save.io(a);
    save.io(b);
    save.io(c);
    save.io(d);
    save.io(s);
    save.io(v);

    const auto bytes = save.takeBuffer();
    Serializer load(bytes.data(), bytes.size());
    std::uint64_t a2 = 0;
    std::int32_t b2 = 0;
    bool c2 = false;
    double d2 = 0;
    std::string s2;
    std::vector<std::uint16_t> v2;
    load.io(a2);
    load.io(b2);
    load.io(c2);
    load.io(d2);
    load.io(s2);
    load.io(v2);
    load.finish();

    EXPECT_EQ(a2, a);
    EXPECT_EQ(b2, b);
    EXPECT_EQ(c2, c);
    EXPECT_EQ(d2, d);
    EXPECT_EQ(s2, s);
    EXPECT_EQ(v2, v);
}

TEST(Serializer, TruncatedPayloadThrowsNotReads)
{
    Serializer save;
    std::uint64_t a = 42;
    save.io(a);
    auto bytes = save.takeBuffer();
    bytes.resize(bytes.size() - 1); // lop off the last byte

    Serializer load(bytes.data(), bytes.size());
    std::uint64_t a2 = 0;
    EXPECT_THROW(load.io(a2), SimError);
}

TEST(Serializer, OversizedStringLengthRejected)
{
    // A corrupted length prefix must not trigger a giant allocation or
    // an out-of-bounds copy.
    Serializer save;
    std::uint64_t huge = ~0ull;
    save.io(huge);
    const auto bytes = save.takeBuffer();

    Serializer load(bytes.data(), bytes.size());
    std::string s;
    EXPECT_THROW(load.io(s), SimError);
}

TEST(Serializer, MarkerMismatchNamesTheSection)
{
    Serializer save;
    save.marker(0xdeadbeef, "write-side");
    const auto bytes = save.takeBuffer();

    Serializer load(bytes.data(), bytes.size());
    try {
        load.marker(0xfeedface, "mshr_table");
        FAIL() << "mismatched marker accepted";
    } catch (const SimError& e) {
        EXPECT_EQ(e.component(), "serializer");
        EXPECT_NE(std::string(e.what()).find("mshr_table"),
                  std::string::npos);
    }
}

TEST(Serializer, FinishRejectsTrailingBytes)
{
    Serializer save;
    std::uint32_t a = 1, b = 2;
    save.io(a);
    save.io(b);
    const auto bytes = save.takeBuffer();

    Serializer load(bytes.data(), bytes.size());
    std::uint32_t a2 = 0;
    load.io(a2);
    EXPECT_EQ(load.remaining(), sizeof(std::uint32_t));
    EXPECT_THROW(load.finish(), SimError);
}

TEST(Serializer, Crc32MatchesIeeeCheckValue)
{
    // The canonical CRC-32 check value: crc("123456789") = 0xCBF43926.
    const char* msg = "123456789";
    EXPECT_EQ(crc32(msg, 9), 0xcbf43926u);
    // Seeded continuation equals one-shot over the concatenation.
    const std::uint32_t first = crc32(msg, 4);
    EXPECT_EQ(crc32(msg + 4, 5, first), crc32(msg, 9));
}

// ---------- snapshot files ----------

RunConfig
smallConfig(const char* l2 = "streamline")
{
    RunConfig cfg;
    cfg.l2 = l2;
    cfg.traceScale = 0.05;
    return cfg;
}

/** Fields that must round-trip exactly through save/restore. */
void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].l2DemandMisses, b.cores[i].l2DemandMisses);
        EXPECT_EQ(a.cores[i].l2PrefetchUseful, b.cores[i].l2PrefetchUseful);
        EXPECT_EQ(a.cores[i].l2PrefetchIssued, b.cores[i].l2PrefetchIssued);
    }
    EXPECT_EQ(a.metadataTraffic(), b.metadataTraffic());
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.storedCorrelations, b.storedCorrelations);
    // Shared-memory-system counters (the DRAM scheduler's fire on every
    // run; pressure drops, quota stalls and per-core bytes are
    // multi-core only).
    EXPECT_EQ(a.pfDroppedPressure, b.pfDroppedPressure);
    EXPECT_EQ(a.llcQuotaStalls, b.llcQuotaStalls);
    EXPECT_EQ(a.dramReadQueueWait, b.dramReadQueueWait);
    EXPECT_EQ(a.dramDemandReads, b.dramDemandReads);
    EXPECT_EQ(a.dramPrefetchReads, b.dramPrefetchReads);
    EXPECT_EQ(a.dramCoreBytes, b.dramCoreBytes);
}

std::vector<char>
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Queued DRAM reads where a snapshot at @p at would be taken: the
 *  top of the first run-loop iteration at or after that cycle. */
std::size_t
queuedDramReadsAt(const RunConfig& cfg, const std::string& workload,
                  Cycle at)
{
    struct Stop
    {
    };
    System sys(systemConfigFor(cfg),
               {getTrace(workload, cfg.traceScale, cfg.seed)});
    std::size_t queued = 0;
    sys.scheduleSnapshot(at, [&](System& s, Cycle) {
        queued = s.dram().queuedReads();
        throw Stop{};
    });
    try {
        sys.run();
    } catch (const Stop&) {
    }
    return queued;
}

TEST(SnapshotFile, SaveRestoreRoundTripIsBitIdentical)
{
    const test::ScratchDir dir;
    const std::string path = dir.file("roundtrip.bin");
    const RunConfig cfg = smallConfig();
    const std::vector<std::string> w{"spec06_mcf"};

    const RunResult plain = runWorkloads(cfg, w);

    // The second save point catches a read parked in the DRAM channel
    // queue, so the queue section carries a live request.
    ASSERT_GT(queuedDramReadsAt(cfg, w[0], 22'000), 0u);
    for (const Cycle at : {Cycle{20'000}, Cycle{22'000}}) {
        SCOPED_TRACE("snapshot at " + std::to_string(at));
        RunHooks save;
        save.snapshotAt = at;
        save.snapshotPath = path;
        const RunResult saved = runWorkloads(cfg, w, save);
        // Saving mid-run must not perturb the run that continues past it.
        expectIdenticalResults(plain, saved);

        RunHooks restore;
        restore.restorePath = path;
        const RunResult resumed = runWorkloads(cfg, w, restore);
        expectIdenticalResults(plain, resumed);
    }
}

/**
 * The shared-memory-system state added for multi-core runs — per-channel
 * DRAM read/write queues with mid-flight requests, per-core LLC MSHR
 * quota charges, core/class tags on queued entries, and the pressure
 * probe's parity coin — must all survive a snapshot taken while that
 * machinery is busy. A 2-core mix keeps every piece engaged (the LLC
 * arbiter and MemPressure only exist when cores > 1, and the DRAM
 * scheduler rotates between two requestors); the save point lands
 * mid-run so queues are realistically non-empty.
 */
TEST(SnapshotFile, MultiCoreSharedMemoryRoundTrip)
{
    const test::ScratchDir dir;
    const std::string path = dir.file("2core.bin");
    RunConfig cfg = smallConfig();
    cfg.cores = 2;
    const std::vector<std::string> w{"spec06_mcf", "gap_bfs"};

    const RunResult plain = runWorkloads(cfg, w);

    RunHooks save;
    save.snapshotAt = 50'000;
    save.snapshotPath = path;
    const RunResult saved = runWorkloads(cfg, w, save);
    expectIdenticalResults(plain, saved);

    RunHooks restore;
    restore.restorePath = path;
    const RunResult resumed = runWorkloads(cfg, w, restore);
    expectIdenticalResults(plain, resumed);

    // The run must actually have exercised both requestors' DRAM
    // traffic, or this round-trip proves nothing about the new state.
    EXPECT_GT(plain.dramDemandReads + plain.dramPrefetchReads, 0u);
    ASSERT_EQ(plain.dramCoreBytes.size(), 2u);
    EXPECT_GT(plain.dramCoreBytes[0] + plain.dramCoreBytes[1], 0u);
}

TEST(SnapshotFile, MissingFileThrows)
{
    RunHooks restore;
    const test::ScratchDir dir;
    restore.restorePath = dir.file("does_not_exist.bin");
    EXPECT_THROW(runWorkloads(smallConfig(), {"spec06_mcf"}, restore),
                 SimError);
}

class SnapshotRejection : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RunHooks save;
        save.snapshotAt = 20'000;
        save.snapshotPath = path_;
        runWorkloads(smallConfig(), {"spec06_mcf"}, save);
    }

    /** Restore under the matching config and return the SimError text. */
    std::string
    restoreError(const RunConfig& cfg = smallConfig())
    {
        RunHooks restore;
        restore.restorePath = path_;
        try {
            runWorkloads(cfg, {"spec06_mcf"}, restore);
        } catch (const SimError& e) {
            EXPECT_EQ(e.component(), "snapshot");
            return e.what();
        }
        ADD_FAILURE() << "restore of a damaged snapshot succeeded";
        return {};
    }

    const test::ScratchDir dir_;
    const std::string path_ = dir_.file("snapshot.bin");
};

TEST_F(SnapshotRejection, CorruptedPayloadFailsCrc)
{
    auto bytes = slurp(path_);
    bytes.back() ^= 0x01; // one bit, last payload byte
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("CRC"), std::string::npos);
}

TEST_F(SnapshotRejection, TruncatedFileRejected)
{
    auto bytes = slurp(path_);
    bytes.resize(bytes.size() / 2);
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("truncated"), std::string::npos);
}

TEST_F(SnapshotRejection, VersionSkewRejected)
{
    auto bytes = slurp(path_);
    bytes[8] = 99; // version field follows the 8-byte magic
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("version"), std::string::npos);
}

TEST_F(SnapshotRejection, BadMagicRejected)
{
    auto bytes = slurp(path_);
    bytes[0] = 'X';
    spit(path_, bytes);
    EXPECT_NE(restoreError().find("not a"), std::string::npos);
}

TEST_F(SnapshotRejection, ConfigMismatchRejected)
{
    // The file itself is pristine; the restoring simulator is built
    // differently, so the config digest must veto the restore.
    EXPECT_NE(restoreError(smallConfig("triage")).find("config"),
              std::string::npos);
    // Same prefetcher, different tuning: a differently-built store.
    RunConfig tuned = smallConfig();
    tuned.streamline.maxDegree = 1;
    tuned.streamline.enableAlignment = false;
    EXPECT_NE(restoreError(tuned).find("config"), std::string::npos);
}

TEST(SnapshotDigest, CoversConfigAndWorkloads)
{
    const RunConfig cfg = smallConfig();
    EXPECT_EQ(snapshotDigest(cfg, {"spec06_mcf"}),
              snapshotDigest(cfg, {"spec06_mcf"}));
    EXPECT_NE(snapshotDigest(cfg, {"spec06_mcf"}),
              snapshotDigest(cfg, {"gap_bfs"}));
    EXPECT_NE(snapshotDigest(smallConfig("streamline"), {"spec06_mcf"}),
              snapshotDigest(smallConfig("triage"), {"spec06_mcf"}));
    // Each tuning struct is covered, whichever prefetcher is selected.
    RunConfig sl = cfg, tg = cfg, ta = cfg;
    sl.streamline.streamLength = 8;
    tg.triangel.maxDegree = 2;
    ta.triage.unlimited = true;
    for (const RunConfig& tuned : {sl, tg, ta})
        EXPECT_NE(snapshotDigest(cfg, {"spec06_mcf"}),
                  snapshotDigest(tuned, {"spec06_mcf"}));
}

// ---------- sweep manifest ----------

ExperimentSpec
spec(const std::string& label, const std::string& workload,
     const char* l2 = "streamline")
{
    ExperimentSpec s;
    s.label = label;
    s.config = smallConfig(l2);
    s.workloads = {workload};
    return s;
}

TEST(SweepManifest, JobDigestIsStableAndDiscriminating)
{
    const ExperimentSpec a = spec("a", "spec06_mcf");
    EXPECT_EQ(jobDigest(a), jobDigest(a));
    EXPECT_EQ(jobDigest(a).size(), 16u);
    EXPECT_NE(jobDigest(a), jobDigest(spec("b", "spec06_mcf")));
    EXPECT_NE(jobDigest(a), jobDigest(spec("a", "gap_bfs")));
    EXPECT_NE(jobDigest(a), jobDigest(spec("a", "spec06_mcf", "triage")));
    ExperimentSpec tuned = a;
    tuned.config.streamline.maxDegree = 1;
    EXPECT_NE(jobDigest(a), jobDigest(tuned));
}

TEST(SweepManifest, ResumeSkipsFinishedJobsAndReplaysJson)
{
    const test::ScratchDir dir;
    const std::string manifest = dir.file("sweep.manifest.jsonl");
    BatchOptions opts;
    opts.manifestPath = manifest;
    const std::vector<ExperimentSpec> specs{spec("mcf", "spec06_mcf"),
                                            spec("bfs", "gap_bfs")};

    const auto first = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_TRUE(first[0].ok);
    EXPECT_TRUE(first[1].ok);
    EXPECT_FALSE(first[0].resumed);

    const auto second = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(second.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(second[i].ok);
        EXPECT_TRUE(second[i].resumed) << "job " << i << " reran";
        EXPECT_FALSE(second[i].cachedJson.empty());
        // The spliced JSON is byte-identical to the first run's.
        EXPECT_EQ(toJson(specs[i], second[i]), toJson(specs[i], first[i]));
    }
}

TEST(SweepManifest, FailedJobsRerunOnResume)
{
    const test::ScratchDir dir;
    const std::string manifest = dir.file("sweep.manifest.jsonl");
    BatchOptions opts;
    opts.manifestPath = manifest;
    const std::vector<ExperimentSpec> specs{
        spec("bogus", "no_such_workload")};

    const auto first = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_FALSE(first[0].ok);
    EXPECT_FALSE(first[0].resumed);

    // Journalled as failed: the resume must try again, not replay it.
    const auto second = BatchRunner(1, opts).run(specs);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].ok);
    EXPECT_FALSE(second[0].resumed);
}

TEST(SweepManifest, MalformedLinesAreSkippedNotFatal)
{
    const test::ScratchDir dir;
    const std::string manifest = dir.file("sweep.manifest.jsonl");
    {
        std::ofstream out(manifest, std::ios::trunc);
        out << "this is not json\n";
        out << "{\"digest\":\"feedfacefeedface\",\"ok\":tru\n";
    }
    BatchOptions opts;
    opts.manifestPath = manifest;
    const auto rs = BatchRunner(1, opts).run({spec("mcf", "spec06_mcf")});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_FALSE(rs[0].resumed); // ran, nothing usable to resume from
}

// ---------- job timeouts ----------

TEST(JobTimeout, OverBudgetJobFailsAndLeavesResumableSnapshot)
{
    const test::ScratchDir dir;
    const std::string hang = dir.file("sl_snapshot_hang_job0.bin");
    BatchOptions opts;
    opts.snapshotDir = dir.path();
    opts.jobTimeoutSec = 0.02; // far below the job's real runtime
    ExperimentSpec s = spec("slow", "spec06_mcf");
    s.config.traceScale = 0.5;

    const auto rs = BatchRunner(1, opts).run({s});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_FALSE(rs[0].ok);
    ASSERT_TRUE(rs[0].error.has_value());
    EXPECT_EQ(rs[0].error->component(), "job_timeout");
    EXPECT_FALSE(rs[0].reproBundle.empty());

    // The hang snapshot exists and resumes: restoring it finishes the
    // job with no timeout attached.
    std::ifstream probe(hang, std::ios::binary);
    ASSERT_TRUE(probe.good()) << "hang snapshot not written";
    probe.close();
    RunHooks restore;
    restore.restorePath = hang;
    const RunResult done = runWorkloads(s.config, s.workloads, restore);
    ASSERT_EQ(done.cores.size(), 1u);
    EXPECT_GT(done.cores[0].ipc, 0.0);
}

TEST(JobTimeout, SlRunSnapshotsTheHungJobInPlainAndSweepMode)
{
    // sl_run writes hang snapshots to the working directory.
    const test::ScratchDir dir;
    const std::filesystem::path home = std::filesystem::current_path();
    std::filesystem::current_path(dir.path());
    ::setenv("SL_REPRO_PATH", dir.file("bundle.txt").c_str(), 1);
    for (const bool sweep : {false, true}) {
        SCOPED_TRACE(sweep ? "sweep" : "plain");
        std::filesystem::remove(dir.file("sl_snapshot_hang_job0.bin"));
        std::vector<std::string> args{"sl_run", "--scale", "0.5",
                                      "--job-timeout", "0.02"};
        if (sweep)
            args.push_back("--sweep");
        args.push_back("spec06_mcf");
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        EXPECT_EQ(runnerMain(static_cast<int>(argv.size()), argv.data()),
                  1);
        EXPECT_TRUE(snapshotFileIsCurrent(
            dir.file("sl_snapshot_hang_job0.bin")));
    }
    ::unsetenv("SL_REPRO_PATH");
    std::filesystem::current_path(home);
}

} // namespace
} // namespace sl
