/**
 * @file
 * Prefetcher base class and attach points.
 *
 * A prefetcher observes demand accesses at the cache it is attached to and
 * issues prefetch fills into that cache. Temporal prefetchers additionally
 * hold a pointer to the LLC for metadata traffic and partition control.
 */

#ifndef SL_PREFETCH_PREFETCHER_HH
#define SL_PREFETCH_PREFETCHER_HH

#include <functional>
#include <memory>
#include <string>

#include "common/event.hh"
#include "common/fault.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "cache/cache.hh"

namespace sl
{

/** Base class for all prefetchers. */
class Prefetcher : public CacheListener
{
  public:
    explicit Prefetcher(const std::string& name) : stats_(name) {}

    /** Wire up the prefetcher. Called once by the System builder. */
    virtual void
    attach(Cache* owner, Cache* llc, EventQueue* eq, int core_id,
           unsigned total_cores)
    {
        owner_ = owner;
        llc_ = llc;
        eq_ = eq;
        coreId_ = core_id;
        totalCores_ = total_cores;
    }

    /**
     * LLC partition policy of a metadata-holding prefetcher, expressed over
     * this core's *virtual* set range (see CompositePartition). Null for
     * prefetchers without LLC metadata.
     */
    virtual const PartitionPolicy* partitionPolicy() const
    {
        return nullptr;
    }

    /**
     * Attach the system's fault injector (null = no faults). Called by
     * the System builder after attach(); temporal prefetchers forward it
     * to their metadata stores so lookups can return corrupted targets.
     */
    virtual void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /**
     * Audit internal invariants (metadata-store size bounds and entry
     * placement); throws SimError on violation. Called periodically by
     * the InvariantAuditor; default is a no-op for stateless designs.
     */
    virtual void audit(Cycle now) const { (void)now; }

    /**
     * Attach the shared-memory pressure probe (always null on
     * single-core systems, so designs that sample it cannot perturb
     * single-core digests). Temporal prefetchers fold the sampled level
     * into their partition-sizing epochs: metadata capacity shrinks
     * while the shared LLC/DRAM are contended.
     */
    void setPressure(PressureSignal* p) { pressure_ = p; }

    /**
     * Correlations resident in the metadata store at this instant; 0 for
     * designs without one. Lets the runner report storage-efficiency
     * metrics without knowing concrete prefetcher types.
     */
    virtual std::uint64_t storedCorrelations() const { return 0; }

    /**
     * Stat group of the backing metadata store, or null when the design
     * has no separate store (regular prefetchers, pairwise temporal
     * designs that fold store stats into their own group).
     */
    virtual const StatGroup* metadataStoreStats() const { return nullptr; }

    /**
     * Total metadata-store operations performed so far (lookups, inserts,
     * updates); 0 for designs without a store. perfbench reports it per
     * thousand instructions as `*.metadata_ops_pki`.
     */
    virtual std::uint64_t metadataOps() const { return 0; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }
    const std::string& name() const { return stats_.name(); }

    /**
     * Snapshot the prefetcher's mutable state. The default refuses with
     * a SimError naming the design: a snapshot that silently skipped a
     * prefetcher's tables would restore into a wrong-answer run. Every
     * design the paper's experiments sweep (stride, streamline, triage,
     * triangel) overrides this.
     */
    virtual void
    serializeState(Serializer& s, const SnapshotCtx& ctx)
    {
        (void)s;
        (void)ctx;
        SL_CHECK(false, "snapshot",
                 "prefetcher '" << name() << "' does not support "
                 "checkpoint/restore; rerun without snapshots or use a "
                 "snapshot-capable design");
    }

  protected:
    /** Base-class state shared by every design (issue counter, pressure
     *  epoch accumulators); overrides call this first. */
    void
    serializeBaseState(Serializer& s)
    {
        s.marker(0x50524546, "prefetcher");
        stats_.serializeState(s);
        s.io(pressureSum_);
        s.io(pressureSamples_);
        s.io(calmEpochs_);
        s.io(calmNeed_);
    }
    /** Issue a prefetch into the owning cache at cycle @p when. */
    void
    prefetch(Addr addr, PC pc, Cycle when)
    {
        ++issuedCtr_;
        EventDesc d;
        d.comp = owner_;
        d.a = addr;
        d.pc = pc;
        d.core = coreId_;
        eq_->schedule(when,
                      EventCallback::make(EventKind::PrefetchIssue, d));
    }

    /** Number of LLC sets this core's prefetcher can place metadata in. */
    std::uint32_t
    metadataSets() const
    {
        return llc_ ? llc_->numSets() / totalCores_ : 0;
    }

    /** Translate a virtual metadata set to a physical LLC set. */
    std::uint32_t
    physicalSet(std::uint32_t virt) const
    {
        return virt * totalCores_ + static_cast<std::uint32_t>(coreId_);
    }

    /**
     * Running pressure sample for one partition-sizing epoch. Call
     * samplePressure() on the training path (no-op single-core), then
     * pressureDemotions() at the resize decision: 0 = calm epoch, 1 =
     * mostly elevated (halve the metadata allocation), 2 = mostly
     * saturated (give the capacity back to data). Resets per epoch.
     */
    void
    samplePressure()
    {
        if (pressure_) {
            pressureSum_ += pressure_->level();
            ++pressureSamples_;
        }
    }

    /**
     * True once the pressure epoch holds enough samples to act on by
     * itself. Low-miss phases may never complete a design's own resize
     * epoch (e.g. a 2^15-access UADP epoch on a core with 30k training
     * events total), but the co-runners they starve cannot wait: designs
     * check this on the training path and shrink from the *current*
     * allocation when a full pressure epoch accumulates first.
     */
    bool pressureEpochReady() const { return pressureSamples_ >= 2048; }

    unsigned
    pressureDemotions()
    {
        const std::uint64_t sum = pressureSum_;
        const std::uint64_t n = pressureSamples_;
        pressureSum_ = 0;
        pressureSamples_ = 0;
        if (n == 0)
            return 0;
        // Mean level >= 1.5 -> saturated epoch; >= 0.5 -> elevated.
        unsigned lvl = 0;
        if (2 * sum >= 3 * n)
            lvl = 2;
        else if (2 * sum >= n)
            lvl = 1;
        if (lvl == 0) {
            if (calmEpochs_ < 255)
                ++calmEpochs_;
        } else {
            calmEpochs_ = 0;
        }
        return lvl;
    }

    /**
     * Growth hysteresis. A demoted metadata store drains the very queues
     * whose depth demoted it, so the next epoch reads calm and the
     * design's own utility logic grows the store right back — a
     * shrink/drain/regrow/saturate limit cycle. Designs block allocation
     * *growth* while this is true: until enough consecutive calm
     * pressure epochs have passed. Always false single-core (null
     * probe).
     */
    bool pressureRecentlyHot() const
    {
        return pressure_ != nullptr && calmEpochs_ < calmNeed_;
    }

    /**
     * Exponential backoff on the hysteresis window. Designs call this
     * each time pressure forces the allocation all the way back to zero
     * (NOT when their own utility logic chooses zero): a store whose
     * utility signal keeps regrowing it into the same contention is
     * overclaiming — realized co-runner harm exceeds realized benefit —
     * and each strike quadruples the calm streak required before the
     * next growth, which effectively locks a repeat offender released
     * for the rest of the run.
     */
    void
    notePressureRelease()
    {
        if (calmNeed_ <= 64)
            calmNeed_ *= 4;
    }

    Cache* owner_ = nullptr;
    Cache* llc_ = nullptr;
    EventQueue* eq_ = nullptr;
    FaultInjector* faults_ = nullptr;
    PressureSignal* pressure_ = nullptr;
    std::uint64_t pressureSum_ = 0;
    std::uint64_t pressureSamples_ = 0;
    /** Consecutive calm pressure epochs; starts at the hysteresis
     *  threshold ("long calm") so a store that starts released can grow
     *  at its first utility epoch unless pressure is actually seen. */
    std::uint32_t calmEpochs_ = 16;
    /** Calm streak required before growth; quadrupled per forced
     *  release (16 -> 64 -> 256, capped). */
    std::uint32_t calmNeed_ = 16;
    int coreId_ = 0;
    unsigned totalCores_ = 1;
    StatGroup stats_;
    /** Issue counter resolved once; prefetch() is per-issue hot. */
    Counter& issuedCtr_{stats_.counter("issued")};
};

/** Factory invoked per core by the System builder. */
using PrefetcherFactory =
    std::function<std::unique_ptr<Prefetcher>(int core_id)>;

} // namespace sl

#endif // SL_PREFETCH_PREFETCHER_HH
