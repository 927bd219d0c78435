/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * Models the imperfect-metadata and imperfect-hierarchy conditions the
 * Triangel evaluation stresses: corrupted metadata entries, lost prefetch
 * fills, and slow DRAM. Prefetches are *hints* — under every graceful
 * fault kind the hierarchy must degrade coverage/IPC but never corrupt
 * demand-access correctness or crash. All draws come from one xoshiro
 * stream seeded from FaultConfig::seed, so a faulty run replays
 * bit-identically from its repro bundle.
 *
 * `loseRequestRate` is deliberately *not* graceful: it drops a cache's
 * downstream miss request after the MSHR is allocated, modelling a hung
 * memory controller. It exists to prove the invariant auditor (MSHR with
 * no request in flight) and the progress watchdog (no retirement window)
 * convert a silent hang into a diagnosable SimError.
 */

#ifndef SL_COMMON_FAULT_HH
#define SL_COMMON_FAULT_HH

#include <cstdint>

#include "error.hh"
#include "rng.hh"
#include "serializer.hh"
#include "stats.hh"
#include "types.hh"

namespace sl
{

/** Fault-injection knobs. All rates are probabilities in [0, 1]. */
struct FaultConfig
{
    std::uint64_t seed = 0x5eedfa17ULL;

    /** Flip one bit of a metadata target on store lookup (per hit). */
    double metadataBitFlipRate = 0.0;
    /** Silently drop a prefetch-only fill instead of installing it. */
    double dropPrefetchFillRate = 0.0;
    /** Delay a DRAM response by dramDelayCycles. */
    double dramDelayRate = 0.0;
    Cycle dramDelayCycles = 500;
    /** Lose a downstream miss request after MSHR allocation (NOT
     *  graceful; pairs with the auditor/watchdog tests). */
    double loseRequestRate = 0.0;

    bool
    enabled() const
    {
        return metadataBitFlipRate > 0 || dropPrefetchFillRate > 0 ||
               dramDelayRate > 0 || loseRequestRate > 0;
    }

    /** Reject nonsensical rates before a run starts. */
    void
    validate() const
    {
        auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
        SL_REQUIRE(rate_ok(metadataBitFlipRate), "fault_config",
                   "metadataBitFlipRate must be in [0,1], got "
                       << metadataBitFlipRate);
        SL_REQUIRE(rate_ok(dropPrefetchFillRate), "fault_config",
                   "dropPrefetchFillRate must be in [0,1], got "
                       << dropPrefetchFillRate);
        SL_REQUIRE(rate_ok(dramDelayRate), "fault_config",
                   "dramDelayRate must be in [0,1], got " << dramDelayRate);
        SL_REQUIRE(rate_ok(loseRequestRate), "fault_config",
                   "loseRequestRate must be in [0,1], got "
                       << loseRequestRate);
    }
};

/**
 * The injector. One instance per System; components hold a (possibly
 * null) pointer and consult it at their fault sites. Null pointer or
 * all-zero rates means the fault paths fold to a single branch.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig& cfg)
        : cfg_(cfg), rng_(cfg.seed), stats_("fault_injector")
    {
        cfg_.validate();
    }

    const FaultConfig& config() const { return cfg_; }

    /**
     * Maybe corrupt a looked-up metadata target in place (one bit flip
     * within the block-number bits). @return true when corrupted.
     */
    bool
    corruptMetadataTarget(Addr& target)
    {
        if (cfg_.metadataBitFlipRate <= 0 ||
            !rng_.chance(cfg_.metadataBitFlipRate))
            return false;
        target ^= Addr{1} << rng_.below(32);
        ++stats_.counter("metadata_bit_flips");
        return true;
    }

    /** Should this prefetch-only fill be dropped instead of installed? */
    bool
    dropPrefetchFill()
    {
        if (cfg_.dropPrefetchFillRate <= 0 ||
            !rng_.chance(cfg_.dropPrefetchFillRate))
            return false;
        ++stats_.counter("prefetch_fills_dropped");
        return true;
    }

    /** Extra cycles to add to a DRAM response (0 = no fault). */
    Cycle
    dramDelay()
    {
        if (cfg_.dramDelayRate <= 0 || !rng_.chance(cfg_.dramDelayRate))
            return 0;
        ++stats_.counter("dram_responses_delayed");
        return cfg_.dramDelayCycles;
    }

    /** Should this downstream miss request be lost? (hang-inducing) */
    bool
    loseRequest()
    {
        if (cfg_.loseRequestRate <= 0 ||
            !rng_.chance(cfg_.loseRequestRate))
            return false;
        ++stats_.counter("requests_lost");
        return true;
    }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Snapshot the fault stream: RNG position plus injection stats,
     *  so a restored run replays the remaining draws bit-identically. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x464c5401, "fault_injector");
        std::uint64_t st[4];
        rng_.saveState(st);
        s.ioBytes(st, sizeof(st));
        if (s.loading())
            rng_.loadState(st);
        stats_.serializeState(s);
    }

  private:
    FaultConfig cfg_;
    Rng rng_;
    StatGroup stats_;
};

} // namespace sl

#endif // SL_COMMON_FAULT_HH
