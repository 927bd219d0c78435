/**
 * @file
 * Tests for the stream metadata machinery: entry geometry, the FTS store
 * (filtering, tagging, aliasing, replacement), and TP-Mockingjay.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "core/stream_entry.hh"
#include "core/stream_store.hh"
#include "core/tp_mockingjay.hh"

namespace sl
{
namespace
{

StreamEntry
entryOf(Addr trigger, std::initializer_list<Addr> targets)
{
    StreamEntry e;
    e.trigger = trigger;
    for (Addr t : targets)
        e.targets[e.length++] = t;
    return e;
}

// ---------- stream entries ----------

TEST(StreamEntry, FindPositions)
{
    auto e = entryOf(10, {11, 12, 13, 14});
    EXPECT_EQ(e.find(10), 0);
    EXPECT_EQ(e.find(11), 1);
    EXPECT_EQ(e.find(14), 4);
    EXPECT_EQ(e.find(99), -1);
    EXPECT_EQ(e.lastAddress(), 14u);
}

TEST(StreamEntry, EmptyEntry)
{
    StreamEntry e;
    EXPECT_FALSE(e.valid());
    e.trigger = 5;
    EXPECT_EQ(e.lastAddress(), 5u);
}

/** Fig 12a: correlations per way across stream lengths (paper values). */
struct LengthCapacity
{
    unsigned length;
    unsigned correlations;
};

class StreamLengthCapacity
    : public ::testing::TestWithParam<LengthCapacity>
{
};

TEST_P(StreamLengthCapacity, MatchesPaper)
{
    const auto [len, corr] = GetParam();
    EXPECT_EQ(streamCorrelationsPerBlock(len), corr);
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, StreamLengthCapacity,
    ::testing::Values(LengthCapacity{2, 14}, LengthCapacity{3, 15},
                      LengthCapacity{4, 16}, LengthCapacity{5, 15},
                      LengthCapacity{8, 16}, LengthCapacity{16, 16}));

TEST(StreamEntry, StreamBeatsPairwiseAtLengthFour)
{
    // The 33% storage-efficiency claim (§IV-A): 16 vs 12 per block.
    EXPECT_EQ(streamCorrelationsPerBlock(4),
              kPairwiseCorrelationsPerBlock * 4 / 3);
}

// ---------- the FTS store ----------

StreamStoreParams
smallParams()
{
    StreamStoreParams p;
    p.sets = 64;
    p.ways = 8;
    p.streamLength = 4;
    p.sampledSets = 4;
    return p;
}

TEST(StreamStore, InsertLookupRoundTrip)
{
    StreamStore store(smallParams());
    auto e = entryOf(100, {101, 102, 103, 104});
    EXPECT_EQ(store.insert(e, 7), InsertOutcome::Stored);
    auto got = store.lookup(100);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->targets[0], 101u);
    EXPECT_EQ(got->length, 4);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.correlations(), 4u);
}

TEST(StreamStore, UpdateInPlace)
{
    StreamStore store(smallParams());
    store.insert(entryOf(100, {1, 2, 3, 4}), 7);
    EXPECT_EQ(store.insert(entryOf(100, {5, 6, 7, 8}), 7),
              InsertOutcome::Updated);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.lookup(100)->targets[0], 5u);
}

TEST(StreamStore, EraseRemoves)
{
    StreamStore store(smallParams());
    store.insert(entryOf(100, {1, 2, 3, 4}), 7);
    store.erase(100);
    EXPECT_FALSE(store.lookup(100).has_value());
    EXPECT_EQ(store.size(), 0u);
}

TEST(StreamStore, MissCountsAndHitCounts)
{
    StreamStore store(smallParams());
    store.insert(entryOf(100, {1, 2, 3, 4}), 7);
    store.lookup(100);
    store.lookup(200);
    EXPECT_EQ(store.stats().get("hits"), 1u);
    EXPECT_EQ(store.stats().get("misses"), 1u);
}

TEST(StreamStore, FilteredIndexingDropsUnallocated)
{
    StreamStore store(smallParams());
    store.setAllocation(0, 8); // sampled sets only
    unsigned filtered = 0, stored = 0;
    for (Addr t = 1; t <= 400; ++t) {
        const auto out = store.insert(entryOf(t, {t + 1, t + 2, t + 3,
                                                  t + 4}),
                                      7);
        filtered += out == InsertOutcome::Filtered;
        stored += out == InsertOutcome::Stored;
    }
    // 4 of 64 sets allocated: ~94% filtered.
    EXPECT_GT(filtered, 300u);
    EXPECT_GT(stored, 0u);
    EXPECT_EQ(store.stats().get("filtered_inserts"), filtered);
}

TEST(StreamStore, AllocationChangeDropsWithoutMoving)
{
    StreamStore store(smallParams());
    store.setAllocation(1, 8);
    for (Addr t = 1; t <= 200; ++t)
        store.insert(entryOf(t * 977, {t, t + 1, t + 2, t + 3}), 7);
    const auto before = store.size();
    const auto dropped = store.setAllocation(2, 8);
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(store.size(), before - dropped);
    // Every surviving entry is still found (nothing was re-indexed).
    std::uint64_t found = 0;
    for (Addr t = 1; t <= 200; ++t)
        found += store.lookup(t * 977).has_value();
    EXPECT_EQ(found, store.size());
}

TEST(StreamStore, SampledSetsSurviveOff)
{
    StreamStore store(smallParams());
    store.setAllocation(1, 8);
    for (Addr t = 1; t <= 500; ++t)
        store.insert(entryOf(t * 31, {t, t, t, t}), 7);
    store.setAllocation(0, 8);
    EXPECT_GT(store.size(), 0u); // sampled sets kept their entries
    for (Addr t = 1; t <= 500; ++t) {
        if (store.lookup(t * 31)) {
            EXPECT_TRUE(
                store.sampledSet(store.indexOf(t * 31)));
        }
    }
}

TEST(StreamStore, CapacityFormula)
{
    StreamStore store(smallParams());
    store.setAllocation(1, 8);
    // 64 sets x 8 ways x 4 entries x length 4 = 8192 correlations.
    EXPECT_EQ(store.capacity(), 64u * 8 * 4 * 4);
    store.setAllocation(2, 8);
    // 32 even sets; the 4 sampled sets (stride 16) are all even already.
    EXPECT_EQ(store.capacity(), 32u * 8 * 4 * 4);
    store.setAllocation(0, 8);
    EXPECT_EQ(store.capacity(), 4u * 8 * 4 * 4);
}

TEST(StreamStore, EvictionWhenSetFull)
{
    auto p = smallParams();
    p.sets = 1;
    p.sampledSets = 1;
    StreamStore store(p);
    // One set holds 8 ways x 4 entries = 32 entries.
    for (Addr t = 0; t < 40; ++t)
        store.insert(entryOf(t * 7919 + 1, {t, t, t, t}), 7);
    EXPECT_EQ(store.size(), 32u);
    // Overflow resolves via eviction or TP-Mockingjay bypass.
    EXPECT_GT(store.stats().get("evictions") +
                  store.stats().get("bypassed"),
              0u);
}

TEST(StreamStore, UntaggedModeLowersAssociativity)
{
    auto tagged_p = smallParams();
    auto untagged_p = smallParams();
    untagged_p.tagged = false;
    tagged_p.sets = untagged_p.sets = 1;
    tagged_p.sampledSets = untagged_p.sampledSets = 1;
    StreamStore tagged(tagged_p), untagged(untagged_p);

    // Insert 8 triggers then re-walk them cyclically: the tagged store
    // holds all 8; the untagged one conflicts within single ways.
    std::vector<Addr> triggers;
    for (Addr t = 0; t < 8; ++t)
        triggers.push_back(t * 104729 + 3);
    for (unsigned round = 0; round < 4; ++round) {
        for (Addr t : triggers) {
            auto e = entryOf(t, {t + 1, t + 2, t + 3, t + 4});
            tagged.insert(e, 7);
            untagged.insert(e, 7);
        }
    }
    unsigned tagged_hits = 0, untagged_hits = 0;
    for (Addr t : triggers) {
        tagged_hits += tagged.lookup(t).has_value();
        untagged_hits += untagged.lookup(t).has_value();
    }
    EXPECT_EQ(tagged_hits, 8u);
    EXPECT_LE(untagged_hits, tagged_hits);
}

TEST(StreamStore, PartialTagAliasingConstrained)
{
    auto p = smallParams();
    p.partialTagBits = 2; // tiny tags force aliasing
    StreamStore store(p);
    store.setAllocation(1, 8);
    for (Addr t = 1; t <= 2000; ++t)
        store.insert(entryOf(t, {t, t, t, t}), 7);
    EXPECT_GT(store.stats().get("alias_constrained"), 0u);
}

TEST(StreamStore, WiderPartialTagsAliasLess)
{
    auto narrow_p = smallParams();
    narrow_p.partialTagBits = 2;
    auto wide_p = smallParams();
    wide_p.partialTagBits = 10;
    StreamStore narrow(narrow_p), wide(wide_p);
    for (Addr t = 1; t <= 2000; ++t) {
        narrow.insert(entryOf(t, {t, t, t, t}), 7);
        wide.insert(entryOf(t, {t, t, t, t}), 7);
    }
    EXPECT_GT(narrow.stats().get("alias_constrained"),
              wide.stats().get("alias_constrained"));
}

TEST(StreamStore, SkewedIndexBiasesAllocatedSets)
{
    auto p = smallParams();
    p.skewedIndex = true;
    StreamStore store(p);
    unsigned aligned8 = 0;
    const unsigned n = 20'000;
    for (Addr t = 1; t <= n; ++t)
        aligned8 += store.indexOf(t * 2654435761ULL) % 8 == 0;
    // Uniform would put 12.5% on multiples of 8; skew targets ~40%+.
    EXPECT_GT(aligned8, n / 4);
}

// ---------- TP-Mockingjay ----------

TEST(TpMockingjay, StableCorrelationPredictsRetention)
{
    TpMockingjay mj(64, 4);
    // PC 5's correlations repeat exactly: prediction should stay low
    // (short estimated time remaining = keep).
    for (unsigned r = 0; r < 50; ++r) {
        for (Addr t = 0; t < 8; ++t)
            mj.sample(0, 1000 + t, 2000 + t, 5);
    }
    EXPECT_LT(mj.predict(5), TpMockingjay::kMaxEtr);
    EXPECT_GT(mj.stats().get("reuse_hits"), 0u);
}

TEST(TpMockingjay, ChangingTargetsPredictEviction)
{
    TpMockingjay mj(64, 4);
    // PC 9's trigger keeps changing targets: TP-MIN says useless.
    for (unsigned r = 0; r < 60; ++r)
        mj.sample(0, 1234, 5000 + r, 9);
    EXPECT_EQ(mj.predict(9), TpMockingjay::kMaxEtr);
    EXPECT_GT(mj.stats().get("correlation_changed"), 0u);
}

TEST(TpMockingjay, NonSampledSetsIgnored)
{
    TpMockingjay mj(64, 4);
    mj.sample(1, 10, 20, 3); // set 1 is not sampled (stride 16)
    EXPECT_EQ(mj.stats().get("reuse_hits"), 0u);
    EXPECT_EQ(mj.stats().get("sampler_evictions"), 0u);
}

TEST(TpMockingjay, RejectsNonPowerOfTwoSetCounts)
{
    EXPECT_THROW(TpMockingjay(48, 8), SimError);
    EXPECT_THROW(TpMockingjay(64, 6), SimError);
    EXPECT_THROW(TpMockingjay(64, 0), SimError);
    EXPECT_NO_THROW(TpMockingjay(4, 8));
}

TEST(TpMockingjay, SetClockTicksEveryThirtyTwo)
{
    TpMockingjay mj(16, 4);
    unsigned ticks = 0;
    for (unsigned i = 0; i < 128; ++i)
        ticks += mj.tickSet(3);
    EXPECT_EQ(ticks, 4u);
}

TEST(StreamStore, TpMockingjayProtectsStableEntries)
{
    // A stable stream plus a scan: with TP-MJ the stable triggers should
    // survive better than with SRRIP.
    auto mk = [](MetaRepl repl) {
        auto p = smallParams();
        p.sets = 4;
        p.sampledSets = 4; // all sets sampled -> sampler sees everything
        p.repl = repl;
        return StreamStore(p);
    };
    auto run = [](StreamStore& store) {
        // Cyclic stable stream larger than the store, polluted by scans:
        // recency-based SRRIP thrashes; TP-Mockingjay's bypass keeps a
        // resident subset alive (the Fig 13c effect).
        std::vector<Addr> stable;
        for (Addr t = 0; t < 400; ++t)
            stable.push_back(t * 15485863 + 7);
        std::uint64_t hits = 0;
        Addr scan = 1'000'000;
        for (unsigned round = 0; round < 60; ++round) {
            for (Addr t : stable) {
                store.sampleCorrelation(t, t + 1, 11);
                if (store.lookup(t))
                    ++hits;
                store.insert(
                    StreamEntry{t, {t + 1, t + 2, t + 3, t + 4}, 4}, 11);
                // Interleave never-reused scan entries.
                store.insert(StreamEntry{scan, {scan + 1, scan + 2,
                                                scan + 3, scan + 4},
                                         4},
                             13);
                store.sampleCorrelation(scan, scan + 1, 13);
                scan += 9973;
            }
        }
        return hits;
    };
    StreamStore srrip = mk(MetaRepl::Srrip);
    StreamStore tpmj = mk(MetaRepl::TpMockingjay);
    const auto srrip_hits = run(srrip);
    const auto tpmj_hits = run(tpmj);
    EXPECT_GT(tpmj_hits, srrip_hits);
}

} // namespace
} // namespace sl
