/**
 * @file
 * Tests for the DRAM timing model: row-buffer states, channel mapping,
 * bandwidth scaling, write handling, bank overlap behind the channel
 * bus, and the FR-FCFS scheduler's pick order.
 */

#include <gtest/gtest.h>

#include "dram/dram.hh"
#include "test_util.hh"

namespace sl
{
namespace
{

using test::drain;
using test::RecordingClient;

struct DramFixture : ::testing::Test
{
    DramFixture()
    {
        params.channels = 1;
        params.ranksPerChannel = 1;
        params.controllerNs = 0.0; // isolate bank/bus timing in tests
    }

    MemRequest*
    read(Addr addr, RequestClient* c, ReqKind kind = ReqKind::DemandLoad,
         int core = 0)
    {
        auto* r = new MemRequest;
        r->addr = addr;
        r->kind = kind;
        r->client = c;
        r->coreId = core;
        return r;
    }

    /** First block of row @p row in bank @p bank (one channel, 8 banks:
     *  128-block rows interleave across banks). */
    static Addr
    blockAt(unsigned bank, unsigned row = 0)
    {
        return (Addr{row} * 8 + bank) * 128 * kBlockBytes;
    }

    /** Completion order, as the addresses the client saw. */
    std::vector<Addr>
    order() const
    {
        std::vector<Addr> v;
        for (const auto& [addr, at] : client.completions)
            v.push_back(addr);
        return v;
    }

    EventQueue eq;
    DramParams params;
    RecordingClient client;
};

TEST_F(DramFixture, RowMissThenRowHit)
{
    Dram dram(params, eq);
    dram.access(read(0x0, &client), 0);
    drain(eq);
    dram.access(read(0x400, &client), 100'000); // same 8KB row
    drain(eq);
    ASSERT_EQ(client.completions.size(), 2u);
    const Cycle first = client.completions[0].second;
    const Cycle second = client.completions[1].second - 100'000;
    // First access opens the row (tRCD+tCAS); second is a row hit (tCAS).
    EXPECT_GT(first, second);
    EXPECT_EQ(dram.stats().get("row_misses"), 1u);
    EXPECT_EQ(dram.stats().get("row_hits"), 1u);
}

TEST_F(DramFixture, RowConflictCostsMost)
{
    Dram dram(params, eq);
    dram.access(read(0x0, &client), 0);
    drain(eq);
    // Same bank, different row: one full bank rotation away (128-block
    // rows x 8 banks x 64B blocks = 64KB).
    const Addr other_row = Addr{128} * 8 * kBlockBytes;
    dram.access(read(other_row, &client), 100'000);
    drain(eq);
    EXPECT_EQ(dram.stats().get("row_conflicts"), 1u);
    const Cycle miss = client.completions[0].second;
    const Cycle conflict = client.completions[1].second - 100'000;
    EXPECT_GT(conflict, miss);
}

TEST_F(DramFixture, ChannelBusSerialises)
{
    Dram dram(params, eq);
    // Two same-cycle reads to different banks on one channel: the data
    // bursts share the bus.
    dram.access(read(0x0, &client), 0);
    dram.access(read(kBlockBytes, &client), 0);
    drain(eq);
    ASSERT_EQ(client.completions.size(), 2u);
    const Cycle gap = client.completions[1].second >
                              client.completions[0].second
                          ? client.completions[1].second -
                                client.completions[0].second
                          : client.completions[0].second -
                                client.completions[1].second;
    EXPECT_GE(gap, dram.burstCycles());
}

/** Banks work in parallel and only the bursts share the bus: same-cycle
 *  reads to distinct banks of one channel complete one burst apart,
 *  whether the channel serves one requestor or several. */
TEST_F(DramFixture, BanksOverlapBehindOneBus)
{
    for (const unsigned requestors : {1u, 2u}) {
        SCOPED_TRACE("requestors=" + std::to_string(requestors));
        params.requestors = requestors;
        client.completions.clear();
        Dram dram(params, eq);
        for (unsigned bank = 0; bank < 4; ++bank)
            dram.access(read(blockAt(bank), &client), 0);
        drain(eq);
        ASSERT_EQ(client.completions.size(), 4u);
        for (std::size_t i = 1; i < 4; ++i)
            EXPECT_EQ(client.completions[i].second -
                          client.completions[i - 1].second,
                      dram.burstCycles());
    }
}

TEST_F(DramFixture, MoreChannelsMoreParallel)
{
    params.channels = 4;
    Dram dram(params, eq);
    for (unsigned i = 0; i < 4; ++i)
        dram.access(read(i * kBlockBytes, &client), 0);
    drain(eq);
    ASSERT_EQ(client.completions.size(), 4u);
    // All four land on distinct channels: identical completion times.
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(client.completions[i].second,
                  client.completions[0].second);
}

TEST_F(DramFixture, BandwidthKnobScalesBurst)
{
    Dram fast(params, eq);
    params.transferMTs = 800;
    Dram slow(params, eq);
    EXPECT_EQ(fast.burstCycles() * 4, slow.burstCycles());
    EXPECT_GT(fast.peakBytesPerCycle(), slow.peakBytesPerCycle());
}

TEST_F(DramFixture, WritesConsumeBandwidthSilently)
{
    Dram dram(params, eq);
    auto* wb = new MemRequest;
    wb->addr = 0x9000;
    wb->kind = ReqKind::Writeback;
    dram.access(wb, 0);
    drain(eq);
    EXPECT_EQ(dram.stats().get("writes"), 1u);
    EXPECT_EQ(dram.stats().get("bytes"), kBlockBytes);
    EXPECT_TRUE(client.completions.empty());
}

TEST_F(DramFixture, ControllerLatencyAdds)
{
    Dram base(params, eq);
    params.controllerNs = 30.0;
    Dram slow(params, eq);
    RecordingClient c1, c2;
    base.access(read(0x0, &c1), 0);
    slow.access(read(0x0, &c2), 0);
    drain(eq);
    ASSERT_EQ(c1.completions.size(), 1u);
    ASSERT_EQ(c2.completions.size(), 1u);
    EXPECT_EQ(c2.completions[0].second - c1.completions[0].second, 120u);
}

// ---------- FR-FCFS pick order ----------

TEST_F(DramFixture, DemandReadBeatsQueuedPrefetch)
{
    Dram dram(params, eq);
    dram.access(read(blockAt(0), &client, ReqKind::Prefetch), 0);
    dram.access(read(blockAt(1), &client), 0);
    drain(eq);
    EXPECT_EQ(order(), (std::vector<Addr>{blockAt(1), blockAt(0)}));
    EXPECT_EQ(dram.stats().get("sched_demand_reads"), 1u);
    EXPECT_EQ(dram.stats().get("sched_prefetch_reads"), 1u);
}

TEST_F(DramFixture, FirstRowHitInFifoOrderWins)
{
    Dram dram(params, eq);
    // Open row 0 in banks 0 and 1.
    dram.access(read(blockAt(0), &client), 0);
    dram.access(read(blockAt(1), &client), 0);
    drain(eq);
    client.completions.clear();

    // FIFO order: a row miss, then two row hits. The older hit goes
    // first, then the younger hit, then the miss.
    const Addr miss = blockAt(2);
    const Addr hit_old = blockAt(1) + kBlockBytes;
    const Addr hit_young = blockAt(0) + kBlockBytes;
    dram.access(read(miss, &client), 100'000);
    dram.access(read(hit_old, &client), 100'000);
    dram.access(read(hit_young, &client), 100'000);
    drain(eq);
    EXPECT_EQ(order(), (std::vector<Addr>{hit_old, hit_young, miss}));
}

TEST_F(DramFixture, RequestorsTakeRoundRobinTurns)
{
    params.requestors = 2;
    Dram dram(params, eq);
    // Core 0 queues three reads before core 1 queues two; no row hits.
    for (unsigned bank = 0; bank < 3; ++bank)
        dram.access(read(blockAt(bank), &client, ReqKind::DemandLoad, 0),
                    0);
    for (unsigned bank = 3; bank < 5; ++bank)
        dram.access(read(blockAt(bank), &client, ReqKind::DemandLoad, 1),
                    0);
    drain(eq);
    EXPECT_EQ(order(),
              (std::vector<Addr>{blockAt(0), blockAt(3), blockAt(1),
                                 blockAt(4), blockAt(2)}));
}

TEST_F(DramFixture, WriteDrainRunsBetweenWatermarks)
{
    params.writeDrainHigh = 4;
    params.writeDrainLow = 2;
    Dram dram(params, eq);
    // Writebacks normally have no client; one here records when each
    // write's burst completes, so the pick order is visible.
    auto write = [&](Addr addr, Cycle at) {
        dram.access(read(addr, &client, ReqKind::Writeback), at);
    };
    for (unsigned bank = 0; bank < 3; ++bank)
        dram.access(read(blockAt(4 + bank), &client), 0);
    for (unsigned bank = 0; bank < 4; ++bank)
        write(blockAt(bank), 0);
    drain(eq);
    // Four queued writes reach writeDrainHigh: writes go first until the
    // queue falls to writeDrainLow with reads waiting, then the reads,
    // then the rest of the writes once no read is left.
    EXPECT_EQ(order(),
              (std::vector<Addr>{blockAt(0), blockAt(1), blockAt(4),
                                 blockAt(5), blockAt(6), blockAt(2),
                                 blockAt(3)}));
    EXPECT_EQ(dram.stats().get("sched_write_drains"), 2u);

    // The last batch ended when its queue emptied, so three writes stay
    // below the high watermark and the reads go first.
    client.completions.clear();
    for (unsigned bank = 0; bank < 3; ++bank)
        dram.access(read(blockAt(4 + bank, 1), &client), 100'000);
    for (unsigned bank = 0; bank < 3; ++bank)
        write(blockAt(bank, 1), 100'000);
    drain(eq);
    EXPECT_EQ(order(),
              (std::vector<Addr>{blockAt(4, 1), blockAt(5, 1),
                                 blockAt(6, 1), blockAt(0, 1),
                                 blockAt(1, 1), blockAt(2, 1)}));
}

} // namespace
} // namespace sl
