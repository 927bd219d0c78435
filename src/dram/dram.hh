/**
 * @file
 * DRAM timing model with channels, ranks, banks, and row buffers.
 *
 * Parameters follow Table II of the paper: 3200 MT/s, 8B channel width,
 * tCAS = tRP = tRCD = 12.5ns, 8 banks/rank, and 1/2/2/4 channels with
 * 1/2/2/4 ranks per channel for 1/2/4/8 cores. Transfer rate is a knob so
 * the Fig 10c bandwidth sweep can scale it.
 *
 * One service discipline for every core count: arrivals park in
 * per-channel read/write queues and a per-channel FR-FCFS-with-priorities
 * scheduler picks the next request each time the channel bus frees:
 * demand reads beat prefetch reads, cores take round-robin turns
 * (per-requestor in-flight accounting backs the rotation and the
 * fairness stats), row-buffer hits go first within a core's turn, and
 * writes drain in batches between read bursts (high/low watermark).
 *
 * A picked request's bank work starts at its arrival, not at the pick:
 * banks overlap their row accesses behind the one data bus, and only
 * the bursts serialise, in pick order. A channel therefore serves one
 * request per burst when its queue spreads over banks.
 */

#ifndef SL_DRAM_DRAM_HH
#define SL_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/event.hh"
#include "common/fault.hh"
#include "common/serializer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cache/cache.hh"

namespace sl
{

class Telemetry;

/** DRAM geometry and timing configuration. */
struct DramParams
{
    unsigned channels = 1;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    unsigned rowsPerBank = 65536;
    unsigned transferMTs = 3200;   //!< mega-transfers/s on an 8B bus
    unsigned busBytes = 8;
    double coreGHz = 4.0;          //!< CPU clock for ns->cycle conversion
    double tCasNs = 12.5;
    double tRcdNs = 12.5;
    double tRpNs = 12.5;
    /** Memory-controller queueing + on-chip interconnect to the
     *  controller and back; added to every access's completion time. */
    double controllerNs = 30.0;

    /** Cores sharing this DRAM (round-robin turns and per-core byte
     *  counters); at least one. */
    unsigned requestors = 1;

    /** Write-drain watermarks: start draining writes when a channel's
     *  write queue reaches writeDrainHigh (or no read is waiting), stop
     *  once it falls to writeDrainLow with a read waiting, or empties. */
    unsigned writeDrainHigh = 16;
    unsigned writeDrainLow = 4;

    /** Reject nonsensical DRAM geometry/timing before a run starts. */
    void validate() const;
};

/**
 * Bank-aware DRAM model. Each access resolves its channel/rank/bank/row
 * and queues on its channel; when picked it pays row-hit / row-miss /
 * row-conflict latency on the bank, then its burst takes the channel
 * data bus. Reads respond to the requesting client; writebacks only
 * consume bank and bus time. See the file comment for the pick order.
 */
class Dram : public MemLevel
{
  public:
    Dram(const DramParams& params, EventQueue& eq);

    void access(MemRequest* req, Cycle now) override;

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Total cycles one 64B burst occupies the channel bus. */
    Cycle burstCycles() const { return burstCycles_; }

    /** Peak bandwidth in bytes per core cycle (for reporting). */
    double peakBytesPerCycle() const;

    /** Attach the system's fault injector (null = no faults). */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /** Attach the system's telemetry hub (null = probes disabled). */
    void setTelemetry(Telemetry* t) { tele_ = t; }

    /** Latest cycle any channel bus is busy until (diagnostics). */
    Cycle busyUntil() const;

    unsigned channels() const { return params_.channels; }

    /** Queued (not yet serviced) read requests across all channels.
     *  The MemPressure signal divides this by channels() to get a
     *  per-channel congestion estimate. */
    std::size_t queuedReads() const { return queuedReads_; }

    /** Queued write(back)s across all channels. */
    std::size_t queuedWrites() const { return queuedWrites_; }

    /** Service one scheduling step on @p ch (EventKind::DramTick
     *  target): pick the best queued request, commit its bank/bus
     *  timing, and re-arm the tick for the bus-free cycle while work
     *  remains. */
    void tickChannel(unsigned ch, Cycle now);

    /** Snapshot bank/row/bus state, scheduler queues (request pointers
     *  swizzled through @p ctx), and stats. Derived timing constants are
     *  rebuilt from params at construction, not serialized. */
    void serializeState(Serializer& s, const SnapshotCtx& ctx);

  private:
    struct Bank
    {
        Cycle readyAt = 0;
        std::uint32_t openRow = ~0u;
        bool rowValid = false;
        std::uint8_t pad[3] = {}; //!< explicit zero padding
    };

    /** One parked request in a channel's read or write queue. */
    struct QueuedReq
    {
        MemRequest* req = nullptr;
        Cycle arrival = 0;          //!< bank start, FCFS order, latency
        std::uint32_t bank = 0;     //!< channel-local bank index
        std::uint32_t row = 0;
        std::int32_t core = 0;      //!< clamped requestor id
        bool demand = false;        //!< demand read (beats prefetch)
    };

    /** Per-channel scheduler state. */
    struct Channel
    {
        std::vector<QueuedReq> readQ;
        std::vector<QueuedReq> writeQ;
        bool draining = false;   //!< in a write-drain batch
        bool tickArmed = false;  //!< a DramTick event is pending
        std::uint32_t rrNext = 0; //!< round-robin core cursor
        /** Queued demand reads in readQ. Replaces the per-tick
         *  any-demand scan; recomputed from readQ on snapshot load. */
        std::uint32_t demandQueued = 0;
    };

    struct Decoded
    {
        unsigned channel;
        std::uint32_t bank; //!< channel-local
        std::uint32_t row;
    };

    Decoded decode(Addr addr) const;

    /** Commit bank/bus timing for one request whose bank work may start
     *  at @p start (its arrival); returns the completion cycle. */
    Cycle serviceTiming(const Decoded& d, Cycle start);

    /** Completion tail: apply injected fault delay, record latency
     *  telemetry, and respond (reads) or dispose (writebacks have no
     *  client). */
    void finish(MemRequest* req, Cycle arrival, Cycle done);

    std::int32_t clampCore(int core) const;
    void armTick(unsigned ch, Cycle at);

    DramParams params_;
    EventQueue& eq_;
    FaultInjector* faults_ = nullptr;
    Telemetry* tele_ = nullptr;
    /** Flat [channel][rank*bank] state: banks_ holds channels * nbanks
     *  entries row-major, busFreeAt_ one slot per channel — one
     *  contiguous lookup each instead of nested vector indirection. */
    std::vector<Bank> banks_;
    std::vector<Cycle> busFreeAt_;
    unsigned banksPerChannel_ = 0;
    Cycle tCas_, tRcd_, tRp_, burstCycles_, controllerCycles_;
    /** Shift/mask address decode; validate() makes channels,
     *  banks/channel and rows/bank powers of two. */
    unsigned chShift_ = 0;
    std::uint64_t chMask_ = 0;
    unsigned bankShift_ = 0;
    std::uint64_t bankMask_ = 0;
    std::uint64_t rowMask_ = 0;
    StatGroup stats_;

    // ---- scheduler state ----
    std::vector<Channel> channels_;
    /** Per-requestor queued-request counts (in-flight accounting: the
     *  fairness rotation and the MemPressure probe both read these). */
    std::vector<std::uint32_t> inFlight_;
    /** Per-core {oldest, oldest-row-hit} read-queue candidates, filled
     *  by one pass over the queue per scheduling tick (scratch; sized
     *  to requestors, never serialized). */
    std::vector<std::uint32_t> firstIdx_;
    std::vector<std::uint32_t> firstHitIdx_;
    std::size_t queuedReads_ = 0;
    std::size_t queuedWrites_ = 0;
    /** Per-requestor serviced-byte counters, registered eagerly at
     *  construction ("core<i>_bytes"). */
    std::vector<Counter*> coreBytes_;

    /** Per-access counters; lazily registered (HotCounter) so counters
     *  that never fire stay out of serialized stat snapshots. */
    HotCounter readsCtr_{stats_, "reads"};
    HotCounter writesCtr_{stats_, "writes"};
    HotCounter rowHitsCtr_{stats_, "row_hits"};
    HotCounter rowMissesCtr_{stats_, "row_misses"};
    HotCounter rowConflictsCtr_{stats_, "row_conflicts"};
    HotCounter bytesCtr_{stats_, "bytes"};
    HotCounter demandReadsCtr_{stats_, "sched_demand_reads"};
    HotCounter prefetchReadsCtr_{stats_, "sched_prefetch_reads"};
    HotCounter writeDrainsCtr_{stats_, "sched_write_drains"};
    HotCounter readQWaitCtr_{stats_, "read_q_wait_cycles"};
    HotCounter readQPeakCtr_{stats_, "read_q_peak"};
    HotCounter writeQPeakCtr_{stats_, "write_q_peak"};
};

} // namespace sl

#endif // SL_DRAM_DRAM_HH
