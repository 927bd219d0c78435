/**
 * @file
 * Pairwise (trigger -> target) metadata store used by Triage and Triangel.
 *
 * Models the way-partitioned organisation of §III: the trigger's hash picks
 * an LLC set, a second-level hash picks one of the currently allocated
 * metadata ways, and the entry lives among that block's `entriesPerBlock`
 * slots under SRRIP replacement. Resizing changes the way-index function,
 * misplacing entries; rearrangement cost is reported to the caller
 * (Triangel shuffles up to 1MB of metadata per resize, §III-C2).
 *
 * Fast-path layout (DESIGN.md §8): sets and sampledSets are rounded up to
 * powers of two at construction so every per-access derivation -- set
 * index, sampled-set membership, reuse-predictor slot -- is a mask over
 * ONE mix64() of the trigger, and all entries live in one contiguous
 * slot array (valid bit folded into the RRPV byte) instead of 16K heap
 * blocks.
 */

#ifndef SL_TEMPORAL_PAIRWISE_STORE_HH
#define SL_TEMPORAL_PAIRWISE_STORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fault.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sl
{

/** Configuration for a pairwise metadata store. */
struct PairwiseStoreParams
{
    /** Virtual LLC sets available; rounded UP to a power of two at
     *  construction (every real geometry is one already). */
    std::uint32_t sets = 2048;
    unsigned maxWays = 8;          //!< largest metadata partition, in ways
    unsigned entriesPerBlock = 12; //!< 12 uncompressed, 16 LUT-compressed
    /**
     * Utility-aware replacement (the Triangel+TP-Mockingjay variant of
     * Fig 13c): triggers whose correlations keep changing insert at
     * distant RRPV so they evict first.
     */
    bool utilityRepl = false;
    /** Permanently full-size sampled sets used by the partitioner to
     *  measure metadata utility (mirrors Streamline's 64 sets); also
     *  rounded up to a power of two. */
    unsigned sampledSets = 64;
};

/** Way-partitioned pairwise metadata store. */
class PairwiseStore
{
  public:
    explicit PairwiseStore(const PairwiseStoreParams& params);

    /** Look up the prefetch target recorded for @p trigger. */
    std::optional<Addr> lookup(Addr trigger);

    /** Is @p set one of the permanently full-size sampled sets? */
    bool
    sampledSet(std::uint32_t set) const
    {
        return (set & sampledMask_) == sampledMatch_;
    }

    /** Hits observed in sampled sets since the last call (and reset). */
    std::uint64_t takeSampledHits();

    /**
     * Measurement-only lookup: probes the always-resident sampled sets
     * so the partitioner keeps seeing metadata utility even while the
     * prefetcher's confidence gates suppress real lookups.
     */
    void probeSampled(Addr trigger);

    /** Record the correlation trigger -> target. */
    void insert(Addr trigger, Addr target);

    /** Remove the correlation for @p trigger if present. */
    void erase(Addr trigger);

    /**
     * Resize the partition to @p ways (0..maxWays), rearranging misplaced
     * entries as Triangel does.
     * @return number of metadata *blocks* that had to move
     */
    std::uint64_t resize(unsigned ways);

    unsigned ways() const { return ways_; }
    std::uint32_t sets() const { return params_.sets; }

    /** Live correlations currently stored. */
    std::uint64_t size() const { return liveEntries_; }

    /** Correlations the current partition can hold. */
    std::uint64_t
    capacity() const
    {
        return static_cast<std::uint64_t>(params_.sets) * ways_ *
               params_.entriesPerBlock;
    }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Attach the system's fault injector: lookup results may then come
     *  back with a flipped target bit (a corrupt metadata read). */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /** Audit size-counter and placement invariants; throws SimError. */
    void audit(Cycle now) const;

    /** Snapshot the packed slots, partition size, reuse predictor, and
     *  stats. Geometry (sets/maxWays/entriesPerBlock) is rebuilt from
     *  params at construction and only cross-checked here. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x50574953, "pairwise_store");
        std::uint64_t nslots = slots_.size();
        s.io(nslots);
        SL_CHECK(nslots == slots_.size(), "pairwise_store",
                 "snapshot has " << nslots << " slots but this store is "
                 "sized for " << slots_.size());
        std::uint32_t w = ways_;
        s.io(w);
        SL_CHECK(w <= params_.maxWays, "pairwise_store",
                 "snapshot partition size " << w << " exceeds maxWays "
                 << params_.maxWays);
        ways_ = w;
        s.io(slots_);
        s.io(liveEntries_);
        s.io(reusePred_);
        s.io(sampledHitsEpoch_);
        stats_.serializeState(s);
    }

  private:
    /**
     * One correlation slot. The valid bit lives in the top of the RRPV
     * byte so a slot packs into 24 bytes and the SRRIP aging loop (which
     * only ever runs on all-valid blocks) is a bare increment.
     */
    struct Entry
    {
        Addr trigger = 0;
        Addr target = 0;
        std::uint8_t meta = 3; //!< bit 7: valid; low bits: RRPV (0..3)
        std::uint8_t pad[7] = {}; //!< explicit zero padding

        static constexpr std::uint8_t kValid = 0x80;

        bool valid() const { return meta & kValid; }
        std::uint8_t rrpv() const { return meta & 0x7f; }
        void
        fill(Addr t, Addr tgt, std::uint8_t insert_rrpv)
        {
            trigger = t;
            target = tgt;
            meta = static_cast<std::uint8_t>(kValid | insert_rrpv);
        }
    };
    static_assert(sizeof(Entry) <= 24, "pairwise slot must stay packed");

    std::uint32_t setIndex(Addr trigger) const;
    unsigned wayFromHash(std::uint64_t h, unsigned ways) const;
    unsigned waysFor(std::uint32_t set) const;
    Entry* findEntry(Addr trigger);
    Entry* findEntry(Addr trigger, std::uint64_t h);
    /** First slot of block (set, way) in the flat array. */
    std::size_t
    blockBase(std::uint32_t set, unsigned way) const
    {
        return (static_cast<std::size_t>(set) * params_.maxWays + way) *
               params_.entriesPerBlock;
    }

    PairwiseStoreParams params_;
    unsigned ways_;
    std::uint32_t setMask_;     //!< sets - 1 (sets is a power of two)
    std::uint32_t sampledMask_; //!< stride - 1, or 0 for the all/none cases
    std::uint32_t sampledMatch_; //!< 0 normally; 1 when nothing is sampled
    /** Flat slot array: slots_[blockBase(set, way) + i]. */
    std::vector<Entry> slots_;
    std::uint64_t liveEntries_ = 0;
    /** Per-trigger-hash reuse predictor for utilityRepl (-8..8). */
    std::vector<std::int8_t> reusePred_;
    std::uint64_t sampledHitsEpoch_ = 0;
    FaultInjector* faults_ = nullptr;
    StatGroup stats_;
    // Hot counters resolved once (stats_.counter is a map lookup).
    Counter& hitsCtr_{stats_.counter("hits")};
    Counter& missesCtr_{stats_.counter("misses")};
    Counter& sampledHitsCtr_{stats_.counter("sampled_hits")};
    Counter& insertsCtr_{stats_.counter("inserts")};
    Counter& evictionsCtr_{stats_.counter("evictions")};
    Counter& corruptReadsCtr_{stats_.counter("corrupt_reads")};
};

} // namespace sl

#endif // SL_TEMPORAL_PAIRWISE_STORE_HH
