#include "core/tp_mockingjay.hh"

#include <algorithm>
#include <bit>

#include "common/error.hh"
#include "common/hash.hh"

namespace sl
{

namespace
{

// Runs in the member initializers, before the stride divides by
// sampled_sets. Both counts power of two makes the stride one too, so
// the sampled-set gate and the set clock index are masks.
std::uint32_t
requirePow2(std::uint32_t v, const char* what)
{
    SL_REQUIRE(std::has_single_bit(v), "tp_mockingjay",
               what << " must be a power of two, got " << v);
    return v;
}

} // namespace

TpMockingjay::TpMockingjay(std::uint32_t sets, unsigned sampled_sets)
    : sampledSets_(requirePow2(sampled_sets, "sampled set count")),
      sampleStride_(std::max<std::uint32_t>(
          1, requirePow2(sets, "set count") / sampled_sets)),
      strideMask_(sampleStride_ - 1), setsMask_(sets - 1),
      sampler_(static_cast<std::size_t>(sampled_sets) *
               kSamplerSetsPerSampled * kSamplerWays),
      samplerClock_(sampled_sets, 0), rdp_(256, kMaxEtr / 2),
      setClock_(sets, 0), stats_("tp_mockingjay")
{
}

void
TpMockingjay::sample(std::uint32_t set, Addr trigger, Addr target, PC pc)
{
    // Gate first, hash after: non-sampled sets (the vast majority) pay
    // one precomputed mask and nothing else.
    if ((set & strideMask_) != 0)
        return;
    const unsigned sidx = (set / sampleStride_) % sampledSets_;

    const std::uint8_t trig_h = hash8(trigger);
    const std::uint8_t tgt_h = hash8(target);
    const std::uint8_t pc_h = hash8(pc);

    auto& clock = samplerClock_[sidx];
    ++clock; // 8-bit timestamp, wraps naturally

    const unsigned row =
        (trig_h % kSamplerSetsPerSampled) * kSamplerWays;
    SamplerEntry* base =
        &sampler_[(static_cast<std::size_t>(sidx) *
                   kSamplerSetsPerSampled * kSamplerWays) +
                  row];

    // Search for this trigger among the sampler ways.
    SamplerEntry* found = nullptr;
    SamplerEntry* victim = base;
    for (unsigned w = 0; w < kSamplerWays; ++w) {
        SamplerEntry& e = base[w];
        if (e.valid && e.triggerHash == trig_h) {
            found = &e;
            break;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid &&
                   static_cast<std::uint8_t>(clock - e.timestamp) >
                       static_cast<std::uint8_t>(clock -
                                                 victim->timestamp)) {
            victim = &e;
        }
    }

    if (found) {
        // The trigger re-occurred. TP twist: only a matching *target*
        // counts as reuse; a changed target means the old correlation
        // would have prefetched garbage -> train toward no-reuse.
        auto& pred = rdp_[found->pcHash];
        if (found->targetHash == tgt_h) {
            const std::uint8_t dist = clock - found->timestamp;
            // Scale the 8-bit sampled distance into the 3-bit ETR space.
            const int target_etr = std::min<int>(kMaxEtr - 1, dist / 32);
            // Converge quickly: observed reuse is strong evidence.
            pred = static_cast<std::int8_t>((pred + target_etr) / 2);
            ++reuseHitsCtr_;
        } else {
            pred = static_cast<std::int8_t>(
                std::min<int>(kMaxEtr, pred + 2));
            ++correlationChangedCtr_;
        }
        found->targetHash = tgt_h;
        found->pcHash = pc_h;
        found->timestamp = clock;
        return;
    }

    // Not found: the evicted victim never saw reuse -> push toward max.
    if (victim->valid) {
        auto& pred = rdp_[victim->pcHash];
        pred = static_cast<std::int8_t>(std::min<int>(kMaxEtr, pred + 1));
        ++samplerEvictionsCtr_;
    }
    *victim = SamplerEntry{true, trig_h, tgt_h, pc_h, clock};
}

int
TpMockingjay::predict(PC pc) const
{
    return rdp_[hash8(pc)];
}

bool
TpMockingjay::tickSet(std::uint32_t set)
{
    // Clock granularity matches the sampler's distance scale: kMaxEtr
    // ticks of 32 accesses give a ~224-access horizon before an entry
    // counts as overdue.
    auto& c = setClock_[set & setsMask_];
    if (++c >= 32) {
        c = 0;
        return true;
    }
    return false;
}

} // namespace sl
