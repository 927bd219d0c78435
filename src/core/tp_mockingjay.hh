/**
 * @file
 * TP-Mockingjay: Streamline's metadata replacement policy (§IV-E5).
 *
 * Mockingjay [45] mimics Belady's MIN by predicting per-PC reuse distances
 * from sampled sets and evicting the line with the largest estimated time
 * remaining (ETR). TP-Mockingjay learns from TP-MIN instead (§IV-D1): the
 * sampler stores the *correlation* (trigger and first target hashes); a
 * re-observed trigger whose target changed trains "no reuse", because the
 * old correlation would only have issued useless prefetches. ETRs are 3
 * bits (temporal metadata has more consistent reuse than raw data).
 */

#ifndef SL_CORE_TP_MOCKINGJAY_HH
#define SL_CORE_TP_MOCKINGJAY_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace sl
{

/** Reuse-distance-predicting replacement for the stream metadata store. */
class TpMockingjay
{
  public:
    /**
     * @param sets metadata sets tracked (per-set aging clocks); a power
     *        of two
     * @param sampled_sets how many sets feed the reuse sampler (paper: 8);
     *        a power of two
     */
    TpMockingjay(std::uint32_t sets, unsigned sampled_sets = 8);

    /** 3-bit ETR ceiling. */
    static constexpr int kMaxEtr = 7;

    /**
     * Observe a completed correlation (trigger -> first target) by @p pc
     * in metadata set @p set; trains the reuse-distance predictor when the
     * set is sampled.
     */
    void sample(std::uint32_t set, Addr trigger, Addr target, PC pc);

    /** Predicted ETR for a new/promoted entry trained by @p pc. */
    int predict(PC pc) const;

    /** Advance @p set's clock; the caller decrements its entries' ETRs
     *  when this returns true. */
    bool tickSet(std::uint32_t set);

    StatGroup& stats() { return stats_; }

    /** Snapshot sampler contents, clocks, and the reuse predictor. */
    void
    serializeState(Serializer& s)
    {
        s.marker(0x54504d4a, "tp_mockingjay");
        s.io(sampler_);
        s.io(samplerClock_);
        s.io(rdp_);
        s.io(setClock_);
        stats_.serializeState(s);
    }

  private:
    struct SamplerEntry
    {
        bool valid = false;
        std::uint8_t triggerHash = 0;
        std::uint8_t targetHash = 0;
        std::uint8_t pcHash = 0;
        std::uint8_t timestamp = 0;
    };

    static constexpr unsigned kSamplerWays = 10;
    static constexpr unsigned kSamplerSetsPerSampled = 32;

    unsigned sampledSets_;
    std::uint32_t sampleStride_;   //!< max(1, sets / sampledSets)
    std::uint32_t strideMask_;     //!< sampleStride_ - 1
    std::uint32_t setsMask_;       //!< sets - 1
    /** sampler_[sampled_idx][set][way] flattened. */
    std::vector<SamplerEntry> sampler_;
    std::vector<std::uint8_t> samplerClock_;
    /** Per-PC-hash reuse-distance prediction, 0..7 (7 = no reuse). */
    std::vector<std::int8_t> rdp_;
    std::vector<std::uint8_t> setClock_;
    StatGroup stats_;
    // Sample-path counters resolved once (the group is internal-only).
    Counter& reuseHitsCtr_{stats_.counter("reuse_hits")};
    Counter& correlationChangedCtr_{stats_.counter("correlation_changed")};
    Counter& samplerEvictionsCtr_{stats_.counter("sampler_evictions")};
};

} // namespace sl

#endif // SL_CORE_TP_MOCKINGJAY_HH
