#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ground/contact.hpp"
#include "sense/capture.hpp"
#include "sense/wrs.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace kodan::sim {

namespace {

using Interval = ground::GroundSegmentScheduler::Interval;
using Allocation = ground::GroundSegmentScheduler::Allocation;

/** One sim-time bin of one satellite's accounting in one chunk. */
struct BinAccum
{
    std::int64_t frames = 0;
    std::int64_t processed = 0;
    double queued_bits = 0.0;  // enqueued during this bin
    double drained_bits = 0.0; // finished downlinking during this bin
    double bits_down = 0.0;
    double high_bits_down = 0.0;
    double dropped_bits = 0.0; // shed by the storage cap
};
using Bins = std::map<std::int64_t, BinAccum>;

/** What every part of one run shares. */
struct RunContext
{
    const MissionConfig &mission;
    const FilterBehavior &filter;
    const ground::GroundSegmentScheduler &scheduler;
    std::size_t sat_count;
    double chunk_s;
    double frame_bits;
    double bin_s;
    bool ts_on;
    bool journal_on;
    bool lineage_on;

    std::int64_t binOf(double t) const
    {
        return static_cast<std::int64_t>(std::floor(t / bin_s));
    }
};

/** Per-satellite engine state carried across chunks. */
struct SatState
{
    util::Rng rng{0};
    std::uint32_t journal_ord = 0;
    SatelliteResult result;
};

/** One frame or product entering a downlink queue. */
struct QueueItem
{
    double bits;
    double high_bits;
    double capture_t;
    double enqueue_t;
    std::uint64_t ord; // capture ordinal (lineage id)
};

/** One satellite's pass through one chunk, as the queue model sees it. */
struct SatChunk
{
    std::size_t sat;
    std::size_t chunk;
    double t0;
    double t1;
    /** Contact runs the scheduler closed this chunk, by (start, station). */
    const std::vector<Interval> &runs;
    SatelliteResult &result;
    /** Null when no recorder reads the bins. */
    Bins *bins;
    std::int64_t frames = 0; // captured this chunk
};

/**
 * Walks a satellite's granted contact intervals, mapping cumulative
 * downlinked bits to the sim time at which the radio finishes them.
 * Pass overhead is spent at the start of each interval, mirroring
 * DownlinkModel::bitsForContact (which deducts it once per pass), so
 * the walk and the budget accounting describe the same radio.
 */
struct ContactWalk
{
    const std::vector<Interval> &intervals;
    double rate_bps;
    double overhead_s;
    std::size_t idx = 0;
    double used_s = 0.0; // usable seconds consumed in intervals[idx]

    double usable(std::size_t i) const
    {
        return std::max(0.0, intervals[i].seconds() - overhead_s);
    }

    void skipExhausted()
    {
        while (idx < intervals.size() && used_s >= usable(idx)) {
            ++idx;
            used_s = 0.0;
        }
    }

    /** Sim time at the radio's current position (next transmittable
     *  instant); clamps to the last interval's end when exhausted. */
    double position()
    {
        skipExhausted();
        if (idx >= intervals.size()) {
            return intervals.empty() ? 0.0 : intervals.back().end;
        }
        return intervals[idx].start + overhead_s + used_s;
    }

    /** Consume @p bits of capacity; sim time when the last bit leaves
     *  the radio. */
    double finish(double bits)
    {
        skipExhausted();
        while (idx < intervals.size()) {
            const double remaining_s = usable(idx) - used_s;
            const double need_s =
                rate_bps > 0.0
                    ? bits / rate_bps
                    : std::numeric_limits<double>::infinity();
            if (need_s <= remaining_s) {
                used_s += need_s;
                return intervals[idx].start + overhead_s + used_s;
            }
            bits -= remaining_s * rate_bps;
            ++idx;
            used_s = 0.0;
        }
        return position();
    }
};

/**
 * Exact per-item queues (see engine.hpp). The whole allocation comes
 * from one GroundSegmentScheduler::allocate() call, which records the
 * ground.segment.* metrics and journal event.
 */
class ExactQueue
{
  public:
    using Options = ExactQueues;
    static constexpr const char *kRegion = "sim.mission";
    static constexpr const char *kRunScope = "sim.mission.run";
    static constexpr const char *kSeries = ".latency.e2e_s";
    static constexpr bool kHorizonSeries = false;

    /** Records the run's config event. */
    ExactQueue(const Options &, const RunContext &ctx)
        : ctx_(ctx), sats_(ctx.sat_count), latencies_(ctx.sat_count)
    {
        const MissionConfig &mission = ctx.mission;
        if (ctx.journal_on) {
            telemetry::JournalEventBuilder("sim.mission.config")
                .i64("satellites",
                     static_cast<std::int64_t>(mission.satellites.size()))
                .i64("stations",
                     static_cast<std::int64_t>(mission.stations.size()))
                .f64("duration_s", mission.duration)
                .i64("seed", static_cast<std::int64_t>(mission.seed));
        }
    }

    template <class Body> static void chunkScope(const Body &body)
    {
        body();
    }

    Allocation &schedule(const std::vector<ground::ContactWindow> &windows,
                         double t0, double t1, bool)
    {
        allocation_ = ctx_.scheduler.allocate(
            windows, ctx_.sat_count, ctx_.mission.stations.size(), t0, t1);
        KODAN_COUNT_ADD("ground.contact.windows.found", windows.size());
        return allocation_;
    }

    void stamp(std::size_t s, std::uint64_t ord,
               telemetry::LineageStage stage, double t) const
    {
        if (ctx_.lineage_on) {
            telemetry::recordLineageSpan(telemetry::lineageFrameId(s, ord),
                                         stage, t);
        }
    }

    void enqueue(std::size_t s, const QueueItem &item, bool product)
    {
        (product ? sats_[s].products : sats_[s].raws).push_back(item);
        sats_[s].fifo.push_back(item);
        stamp(s, item.ord, telemetry::LineageStage::Enqueued,
              item.enqueue_t);
    }

    void drain(SatChunk &chunk)
    {
        const std::size_t s = chunk.sat;
        Sat &q = sats_[s];
        SatelliteResult &result = chunk.result;
        result.contact_seconds = allocation_.seconds_per_satellite[s];
        // Products first, highest value density first.
        std::sort(q.products.begin(), q.products.end(),
                  [](const QueueItem &a, const QueueItem &b) {
                      const double da =
                          a.bits > 0.0 ? a.high_bits / a.bits : 0.0;
                      const double db =
                          b.bits > 0.0 ? b.high_bits / b.bits : 0.0;
                      return da > db;
                  });
        double budget = ctx_.mission.radio.bitsForContact(
            allocation_.seconds_per_satellite[s],
            allocation_.passes_per_satellite[s]);
        // Timeline walk for the recorders: where the budget model says
        // *how much* reaches the ground, the walk says *when* — items
        // drain through the granted contact runs in drain order, and a
        // monotone clock keeps completion times consistent with the
        // value-priority queue discipline.
        const bool timed = chunk.bins != nullptr || ctx_.lineage_on;
        ContactWalk walk{chunk.runs, ctx_.mission.radio.datarate_bps,
                         ctx_.mission.radio.pass_overhead_s};
        double drain_clock = 0.0;
        const double frame_bits = ctx_.frame_bits;
        const auto drainQueue = [&](const std::vector<QueueItem> &queue) {
            for (const auto &item : queue) {
                if (budget <= 0.0) {
                    ++q.items_dropped;
                    continue;
                }
                const double sent = std::min(budget, item.bits);
                const double frac =
                    item.bits > 0.0 ? sent / item.bits : 0.0;
                result.bits_downlinked += sent;
                result.high_bits_downlinked += item.high_bits * frac;
                result.frames_downlinked +=
                    frame_bits > 0.0 ? sent / frame_bits : 0.0;
                budget -= sent;
                ++q.items_sent;
                if (!timed) {
                    continue;
                }
                const double service_t = walk.position();
                const double contact_t =
                    std::max(item.enqueue_t, service_t);
                const double done_t = walk.finish(sent);
                drain_clock =
                    std::max({drain_clock, item.enqueue_t, done_t});
                const double down_t = drain_clock;
                if (chunk.bins != nullptr) {
                    BinAccum &bin = (*chunk.bins)[ctx_.binOf(down_t)];
                    bin.drained_bits += sent;
                    bin.bits_down += sent;
                    bin.high_bits_down += item.high_bits * frac;
                }
                if (ctx_.ts_on) {
                    latencies_[s].emplace_back(down_t,
                                               down_t - item.capture_t);
                }
                stamp(s, item.ord, telemetry::LineageStage::Contact,
                      contact_t);
                stamp(s, item.ord, telemetry::LineageStage::Downlinked,
                      down_t);
                // Ground receipt: propagation delay is below the
                // model's resolution.
                stamp(s, item.ord, telemetry::LineageStage::Received,
                      down_t);
            }
        };
        if (ctx_.filter.prioritize_products) {
            drainQueue(q.products);
            drainQueue(q.raws);
        } else {
            drainQueue(q.fifo);
        }

        if (telemetry::enabled()) {
            KODAN_TRACE_SPAN("sim.satellite.tick");
            KODAN_COUNT_ADD("sim.frames.observed", result.frames_observed);
            KODAN_COUNT_ADD("sim.frames.processed",
                            result.frames_processed);
            double queued_bits = 0.0;
            for (const auto &item : q.fifo) {
                queued_bits += item.bits;
            }
            KODAN_GAUGE_ADD("ground.downlink.bits_queued", queued_bits);
            KODAN_GAUGE_ADD("ground.downlink.bits_drained",
                            result.bits_downlinked);
            KODAN_GAUGE_ADD("ground.contact.seconds_granted",
                            result.contact_seconds);
        }
        if (telemetry::journalEnabled()) {
            telemetry::JournalEventBuilder("sim.satellite.queue")
                .i64("products_queued",
                     static_cast<std::int64_t>(q.products.size()))
                .i64("raws_queued", static_cast<std::int64_t>(q.raws.size()))
                .i64("items_sent", q.items_sent)
                .i64("items_dropped", q.items_dropped)
                .f64("bits_downlinked", result.bits_downlinked);
            telemetry::JournalEventBuilder("sim.satellite.summary")
                .i64("frames_observed", result.frames_observed)
                .i64("frames_processed", result.frames_processed)
                .f64("frames_downlinked", result.frames_downlinked)
                .f64("high_bits_downlinked", result.high_bits_downlinked)
                .f64("contact_seconds", result.contact_seconds);
            // One event per active bin; kodan-top tails these for its live
            // sparklines.
            const std::string type =
                ctx_.mission.telemetry_prefix + ".satellite.bin";
            for (const auto &[bin, accum] : *chunk.bins) {
                telemetry::JournalEventBuilder(type.c_str())
                    .i64("sat", static_cast<std::int64_t>(chunk.sat))
                    .i64("bin", bin)
                    .f64("t_s", static_cast<double>(bin) * ctx_.bin_s)
                    .i64("frames", accum.frames)
                    .i64("processed", accum.processed)
                    .f64("queued_bits", accum.queued_bits)
                    .f64("bits", accum.bits_down)
                    .f64("high_bits", accum.high_bits_down)
                    .f64("dvd", accum.bits_down > 0.0
                                    ? accum.high_bits_down / accum.bits_down
                                    : 0.0);
            }
        }
        // Every item is now sent or dropped: free the queue, so only the
        // satellites in flight hold items.
        q = Sat();
    }

    void foldSeries(telemetry::SeriesId latency, const Bins &) const
    {
        for (const auto &sat : latencies_) {
            for (const auto &[down_t, latency_s] : sat) {
                telemetry::timeSeriesRecord(latency, down_t, latency_s);
            }
        }
    }

    void finish(const MissionResult &result, std::uint64_t,
                const std::vector<SatState> &) const
    {
        if (!ctx_.journal_on) {
            return;
        }
        const SatelliteResult totals = result.totals();
        telemetry::JournalEventBuilder("sim.mission.totals")
            .i64("frames_observed", totals.frames_observed)
            .i64("frames_processed", totals.frames_processed)
            .f64("frames_downlinked", totals.frames_downlinked)
            .f64("bits_downlinked", totals.bits_downlinked)
            .f64("high_bits_downlinked", totals.high_bits_downlinked);
    }

  private:
    struct Sat
    {
        std::vector<QueueItem> products;
        std::vector<QueueItem> raws;
        std::vector<QueueItem> fifo; // capture order, products + raws
        std::int64_t items_sent = 0;    // got (some) downlink budget
        std::int64_t items_dropped = 0; // budget exhausted before them
    };

    const RunContext &ctx_;
    std::vector<Sat> sats_;
    /** (downlink completion time, end-to-end latency) per sent item. */
    std::vector<std::vector<std::pair<double, double>>> latencies_;
    Allocation allocation_;
};

/** Value-separated fluid pool of queued downlink bits. */
struct BitPool
{
    double bits = 0.0;
    double high_bits = 0.0;

    /** Remove @p amount bits; returns the high bits that go with them
     *  (pro-rata — the pool is well mixed). */
    double take(double amount)
    {
        if (bits <= 0.0 || amount <= 0.0) {
            return 0.0;
        }
        const double frac = std::min(1.0, amount / bits);
        const double high = high_bits * frac;
        bits -= amount;
        high_bits -= high;
        if (bits <= 0.0) {
            bits = 0.0;
            high_bits = 0.0;
        }
        return high;
    }
};

/**
 * Fluid two-pool queues (see engine.hpp). The allocation advances
 * through the resumable scheduler state, which records no metrics.
 */
class FluidQueue
{
  public:
    using Options = FluidQueues;
    static constexpr const char *kRegion = "constellation.mission";
    static constexpr const char *kRunScope = "constellation.engine.run";
    static constexpr const char *kSeries = ".storage.dropped_bits";
    /** Room for the whole horizon: the default per-(thread, series)
     *  bound would evict the oldest bins of a year-long run. */
    static constexpr bool kHorizonSeries = true;

    /** Records the run's config event. */
    FluidQueue(const Options &options, const RunContext &ctx)
        : options_(options), ctx_(ctx), sats_(ctx.sat_count),
          state_(ctx.scheduler.beginAllocation(
              ctx.sat_count, ctx.mission.stations.size(), 0.0))
    {
        if (ctx.journal_on) {
            const MissionConfig &mission = ctx.mission;
            telemetry::JournalEventBuilder("constellation.mission.config")
                .i64("satellites",
                     static_cast<std::int64_t>(mission.satellites.size()))
                .i64("stations",
                     static_cast<std::int64_t>(mission.stations.size()))
                .f64("duration_s", mission.duration)
                // shard_size and thread count are scheduling detail and
                // deliberately absent: journal bytes are part of the
                // determinism contract across both.
                .f64("chunk_s", ctx.chunk_s)
                .i64("seed", static_cast<std::int64_t>(mission.seed));
        }
    }

    template <class Body> static void chunkScope(const Body &body)
    {
        KODAN_TRACE_SCOPE("constellation.engine.chunk");
        body();
    }

    Allocation &schedule(const std::vector<ground::ContactWindow> &windows,
                         double, double t1, bool last)
    {
        ctx_.scheduler.allocateSpan(windows, t1, state_);
        if (!last) {
            return state_.allocation;
        }
        // The final chunk also closes every still-open run.
        final_ = ctx_.scheduler.finishAllocation(std::move(state_));
        return final_;
    }

    void stamp(std::size_t, std::uint64_t, telemetry::LineageStage,
               double) const
    {
    }

    void enqueue(std::size_t s, const QueueItem &item, bool product)
    {
        BitPool &pool = product ? sats_[s].products : sats_[s].raws;
        pool.bits += item.bits;
        pool.high_bits += item.high_bits;
    }

    void drain(SatChunk &chunk)
    {
        const std::size_t s = chunk.sat;
        Sat &q = sats_[s];
        SatelliteResult &result = chunk.result;
        Bins *bins = chunk.bins;

        // Bounded solid-state recorder: shed backlog beyond the storage
        // cap, raw frames first (lowest value density), then products.
        const double backlog = q.products.bits + q.raws.bits;
        if (backlog > options_.storage_bits) {
            double overflow = backlog - options_.storage_bits;
            const double from_raws = std::min(q.raws.bits, overflow);
            q.raws.take(from_raws);
            overflow -= from_raws;
            const double from_products =
                std::min(q.products.bits, overflow);
            q.products.take(from_products);
            const double dropped = from_raws + from_products;
            q.dropped_bits += dropped;
            if (bins != nullptr) {
                const std::int64_t drop_bin = std::max(
                    ctx_.binOf(chunk.t0), ctx_.binOf(chunk.t1) - 1);
                (*bins)[drop_bin].dropped_bits += dropped;
            }
        }

        // Drain the contact runs that closed this chunk. Pass overhead
        // is charged once per run, as in DownlinkModel::bitsForContact.
        const bool degraded =
            options_.degrade.satellite >= 0 &&
            static_cast<std::int64_t>(s) == options_.degrade.satellite;
        double chunk_drained = 0.0;
        for (const auto &run : chunk.runs) {
            result.contact_seconds += run.seconds();
            // Injected degradation: the pass is granted but transfers
            // nothing (see ConstellationConfig).
            const double capacity =
                degraded && run.end >= options_.degrade.after_s
                    ? 0.0
                    : ctx_.mission.radio.bitsForContact(run.seconds(), 1);
            if (capacity <= 0.0) {
                continue;
            }
            const double total = q.products.bits + q.raws.bits;
            double send_p = 0.0;
            double send_r = 0.0;
            if (total <= capacity) {
                send_p = q.products.bits;
                send_r = q.raws.bits;
            } else if (ctx_.filter.prioritize_products) {
                send_p = std::min(q.products.bits, capacity);
                send_r = std::min(q.raws.bits, capacity - send_p);
            } else {
                // Capture-order (FIFO) drain, fluid limit: the pools are
                // drained in proportion to their backlog shares.
                send_p = capacity * q.products.bits / total;
                send_r = capacity - send_p;
            }
            const double high_p = q.products.take(send_p);
            const double high_r = q.raws.take(send_r);
            const double sent = send_p + send_r;
            const double high_sent = high_p + high_r;
            result.bits_downlinked += sent;
            result.high_bits_downlinked += high_sent;
            result.frames_downlinked +=
                ctx_.frame_bits > 0.0 ? sent / ctx_.frame_bits : 0.0;
            chunk_drained += sent;
            if (bins != nullptr && sent > 0.0) {
                BinAccum &bin =
                    (*bins)[ctx_.binOf(std::min(run.end, chunk.t1))];
                bin.drained_bits += sent;
                bin.bits_down += sent;
                bin.high_bits_down += high_sent;
            }
        }

        if (ctx_.journal_on) {
            telemetry::JournalEventBuilder("constellation.satellite.chunk")
                .i64("sat", static_cast<std::int64_t>(s))
                .i64("chunk", static_cast<std::int64_t>(chunk.chunk))
                .i64("frames", chunk.frames)
                .f64("drained_bits", chunk_drained)
                .f64("queue_bits", q.products.bits + q.raws.bits)
                .f64("dropped_bits", q.dropped_bits);
        }
    }

    void foldSeries(telemetry::SeriesId dropped, const Bins &merged) const
    {
        for (const auto &[bin, accum] : merged) {
            if (accum.dropped_bits > 0.0) {
                telemetry::timeSeriesRecord(
                    dropped, static_cast<double>(bin) * ctx_.bin_s,
                    accum.dropped_bits);
            }
        }
    }

    void finish(const MissionResult &result, std::uint64_t region,
                const std::vector<SatState> &state) const
    {
        const SatelliteResult totals = result.totals();
        if (ctx_.ts_on) {
            KODAN_COUNT_ADD("constellation.frames.observed",
                            totals.frames_observed);
            KODAN_COUNT_ADD("constellation.frames.processed",
                            totals.frames_processed);
            KODAN_GAUGE_ADD("constellation.downlink.bits",
                            totals.bits_downlinked);
            KODAN_GAUGE_ADD("constellation.contact.seconds_granted",
                            totals.contact_seconds);
        }
        if (!ctx_.journal_on) {
            return;
        }
        // Per-satellite closing summaries on each satellite's own lane,
        // then the mission totals on the region lane.
        for (std::size_t s = 0; s < state.size(); ++s) {
            telemetry::JournalScope lane(region, s, state[s].journal_ord);
            const SatelliteResult &sat = result.per_satellite[s];
            telemetry::JournalEventBuilder("constellation.satellite.summary")
                .i64("frames_observed", sat.frames_observed)
                .i64("frames_processed", sat.frames_processed)
                .f64("frames_downlinked", sat.frames_downlinked)
                .f64("high_bits_downlinked", sat.high_bits_downlinked)
                .f64("contact_seconds", sat.contact_seconds)
                .f64("dropped_bits", sats_[s].dropped_bits);
        }
        telemetry::JournalEventBuilder("constellation.mission.totals")
            .i64("frames_observed", totals.frames_observed)
            .i64("frames_processed", totals.frames_processed)
            .f64("frames_downlinked", totals.frames_downlinked)
            .f64("bits_downlinked", totals.bits_downlinked)
            .f64("high_bits_downlinked", totals.high_bits_downlinked)
            .f64("busy_station_seconds", result.busy_station_seconds)
            .f64("idle_station_seconds", result.idle_station_seconds);
    }

  private:
    struct Sat
    {
        BitPool products;
        BitPool raws;
        double dropped_bits = 0.0;
    };

    Options options_;
    const RunContext &ctx_;
    std::vector<Sat> sats_;
    ground::GroundSegmentScheduler::State state_;
    Allocation final_;
};

/** Calls @p add(bin, seconds) for each telemetry bin @p run overlaps. */
template <class Add>
void
forEachGrantedBin(const Interval &run, const RunContext &ctx, Add &&add)
{
    for (std::int64_t bin = ctx.binOf(run.start);
         static_cast<double>(bin) * ctx.bin_s < run.end; ++bin) {
        const double lo =
            std::max(run.start, static_cast<double>(bin) * ctx.bin_s);
        const double hi =
            std::min(run.end, static_cast<double>(bin + 1) * ctx.bin_s);
        if (hi > lo) {
            add(bin, hi - lo);
        }
    }
}

/**
 * The mission driver (see engine.hpp). @p Queue is the queue model: it
 * names the run (kRegion, kRunScope, chunkScope), owns one series
 * (kSeries, kHorizonSeries) and allocates contact time (schedule); it
 * takes each frame's lineage stamps and enqueued items (stamp,
 * enqueue), drains and records each satellite's chunk (drain), folds
 * its series (foldSeries) and closes the run (finish).
 */
template <class Queue>
MissionResult
drive(const MissionConfig &mission, const FilterBehavior &filter,
      const data::GeoModel *world, double fixed_prevalence,
      double chunk_s, std::size_t shard_size,
      const typename Queue::Options &options)
{
    assert(!mission.satellites.empty());
    assert(!mission.stations.empty());
    assert(mission.duration > 0.0 && chunk_s > 0.0);
    KODAN_TRACE_SCOPE(Queue::kRunScope);
    // Flight recorder: the whole run is one journal region. The serial
    // orchestration (contact sweep, ground allocation) records on the
    // region's own lane; satellite s records into slot s + 1.
    telemetry::JournalRegion journal_region(Queue::kRegion);

    const std::size_t sat_count = mission.satellites.size();
    const std::size_t station_count = mission.stations.size();
    const std::size_t shard = shard_size > 0 ? shard_size : 1;
    const std::size_t shard_count = (sat_count + shard - 1) / shard;

    const std::vector<orbit::J2Propagator> sats(mission.satellites.begin(),
                                                mission.satellites.end());
    const sense::WrsGrid grid;
    const sense::FrameCapture capture(mission.camera, grid);

    // Each satellite draws from its own RNG stream derived from
    // (mission seed, satellite index) and records into its own journal
    // lane, so its trajectory of random decisions is a pure function of
    // the config — independent of thread count, shard size, and the
    // other satellites.
    std::vector<SatState> state(sat_count);
    for (std::size_t s = 0; s < sat_count; ++s) {
        state[s].rng = util::Rng(
            util::splitMix64(mission.seed ^ (0x5A7E111E5ULL + s)));
        state[s].result.frame_deadline = capture.frameDeadline(sats[s]);
    }

    const ground::ContactFinder finder(mission.contact_scan_step);
    const ground::GroundSegmentScheduler scheduler(mission.scheduler_step);

    const bool ts_on = telemetry::enabled();
    const bool journal_on = telemetry::journalEnabled();
    const bool health_on = telemetry::health::healthEnabled();
    const bool bins_on = ts_on || journal_on || health_on;
    const double bin_s =
        mission.telemetry_bin_s > 0.0 ? mission.telemetry_bin_s : 1800.0;
    const RunContext ctx{mission, filter, scheduler, sat_count, chunk_s,
                         mission.camera.frameBits(), bin_s, ts_on,
                         journal_on, telemetry::lineageEnabled()};
    Queue queue(options, ctx);

    const std::string &prefix = mission.telemetry_prefix;
    const std::size_t horizon_bins =
        static_cast<std::size_t>(std::ceil(mission.duration / bin_s)) + 8;
    telemetry::SeriesId id_observed = 0, id_processed = 0, id_bits = 0,
                        id_high_bits = 0, id_dvd = 0, id_depth = 0,
                        id_util = 0, id_queue = 0;
    if (ts_on) {
        const auto series = [&](const char *suffix) {
            return telemetry::timeSeries(
                prefix + suffix, bin_s,
                Queue::kHorizonSeries ? horizon_bins
                                      : telemetry::kTimeSeriesDefaultMaxBins);
        };
        id_observed = series(".frames.observed");
        id_processed = series(".frames.processed");
        id_bits = series(".downlink.bits");
        id_high_bits = series(".downlink.high_bits");
        id_dvd = series(".dvd");
        id_depth = series(".queue.depth_bits");
        id_util = series(".contact.utilization");
        id_queue = series(Queue::kSeries);
    }

    const double util_capacity =
        bin_s * static_cast<double>(station_count);
    double depth_bits = 0.0; // running backlog across chunks
    // Per-satellite running backlog for the health plane's per-entity
    // queue signal (the global depth_bits above backs the TimeSeries).
    std::vector<double> sat_depth(health_on ? sat_count : 0, 0.0);
    std::vector<std::uint32_t> ord_before(
        health_on && journal_on ? sat_count : 0, 0);
    MissionResult result;
    std::vector<std::vector<Interval>> closed(sat_count);
    std::vector<Bins> chunk_bins(bins_on ? sat_count : 0);

    // One satellite's pass through [t0, t1): capture, decide, enqueue,
    // drain the closed contact runs, record. It touches only its own
    // state, so shards and threads are scheduling detail.
    const auto simulateSatellite = [&](std::size_t s, std::size_t c,
                                       double t0, double t1) {
        SatState &st = state[s];
        telemetry::JournalScope lane(journal_region.id(), s,
                                     st.journal_ord);
        SatChunk chunk{s, c, t0, t1, closed[s], st.result,
                       bins_on ? &chunk_bins[s] : nullptr};
        Bins *bins = chunk.bins;
        SatelliteResult &res = st.result;
        const double deadline = res.frame_deadline;
        const double processed_fraction =
            filter.frame_time <= deadline ? 1.0
                                          : deadline / filter.frame_time;
        const double frame_bits = ctx.frame_bits;

        // The frame grid of FrameCapture::capture, restarted at t0.
        for (double t = t0; t < t1; t += deadline) {
            const double value = frameValueFraction(
                world, fixed_prevalence,
                world != nullptr ? sats[s].subsatellitePoint(t)
                                 : orbit::Geodetic{},
                t, st.rng);
            const auto ord = static_cast<std::uint64_t>(res.frames_observed);
            ++res.frames_observed;
            ++chunk.frames;
            res.bits_observed += frame_bits;
            res.high_bits_observed += frame_bits * value;
            queue.stamp(s, ord, telemetry::LineageStage::Captured, t);

            const bool processed = processed_fraction >= 1.0 ||
                                   st.rng.bernoulli(processed_fraction);
            if (bins != nullptr) {
                BinAccum &bin = (*bins)[ctx.binOf(t)];
                ++bin.frames;
                if (processed) {
                    ++bin.processed;
                }
            }
            if (!processed) {
                if (filter.send_unprocessed) {
                    // Raw pass-through: no decision stage, enqueued at
                    // capture.
                    queue.enqueue(
                        s, {frame_bits, frame_bits * value, t, t, ord},
                        false);
                    if (bins != nullptr) {
                        (*bins)[ctx.binOf(t)].queued_bits += frame_bits;
                    }
                }
                continue;
            }
            ++res.frames_processed;
            // On-board compute charged to the frame: the filter runs for
            // frame_time, bounded by the capture deadline.
            const double decided_t =
                t + std::min(filter.frame_time, deadline);
            queue.stamp(s, ord, telemetry::LineageStage::Decided,
                        decided_t);
            const bool high = value >= 0.5;
            const double keep_prob =
                high ? filter.keep_high : filter.keep_low;
            if (!st.rng.bernoulli(keep_prob)) {
                continue; // discarded on orbit
            }
            const double bits = frame_bits * filter.product_fraction;
            const double high_bits = filter.product_precision >= 0.0
                                         ? bits * filter.product_precision
                                         : bits * value;
            queue.enqueue(s, {bits, high_bits, t, decided_t, ord}, true);
            if (bins != nullptr) {
                (*bins)[ctx.binOf(decided_t)].queued_bits += bits;
            }
        }

        queue.drain(chunk);
        if (journal_on) {
            st.journal_ord = telemetry::journalScopeOrd();
        }
    };

    // Serial fold of this chunk's bins into the global time series, in
    // satellite index order — the recorded multiset is invariant to
    // threads and shards.
    const auto foldSeries = [&] {
        Bins merged;
        for (const auto &bins : chunk_bins) {
            for (const auto &[bin, accum] : bins) {
                BinAccum &into = merged[bin];
                into.frames += accum.frames;
                into.processed += accum.processed;
                into.queued_bits += accum.queued_bits;
                into.drained_bits += accum.drained_bits;
                into.bits_down += accum.bits_down;
                into.high_bits_down += accum.high_bits_down;
                into.dropped_bits += accum.dropped_bits;
            }
        }
        for (const auto &[bin, accum] : merged) {
            const double t = static_cast<double>(bin) * bin_s;
            telemetry::timeSeriesRecord(id_observed, t,
                                        static_cast<double>(accum.frames));
            telemetry::timeSeriesRecord(
                id_processed, t, static_cast<double>(accum.processed));
            telemetry::timeSeriesRecord(id_bits, t, accum.bits_down);
            telemetry::timeSeriesRecord(id_high_bits, t,
                                        accum.high_bits_down);
            if (accum.bits_down > 0.0) {
                telemetry::timeSeriesRecord(
                    id_dvd, t, accum.high_bits_down / accum.bits_down);
            }
            depth_bits += accum.queued_bits - accum.drained_bits -
                          accum.dropped_bits;
            telemetry::timeSeriesRecord(id_depth, t, depth_bits);
        }
        // Contact utilization: granted station-seconds per bin over the
        // segment's capacity. Runs closed this chunk may reach back into
        // earlier bins; the series sums contributions.
        std::map<std::int64_t, double> granted;
        for (const auto &runs : closed) {
            for (const auto &run : runs) {
                forEachGrantedBin(run, ctx,
                                  [&](std::int64_t bin, double seconds) {
                                      granted[bin] += seconds;
                                  });
            }
        }
        for (const auto &[bin, seconds] : granted) {
            telemetry::timeSeriesRecord(
                id_util, static_cast<double>(bin) * bin_s,
                util_capacity > 0.0 ? seconds / util_capacity : 0.0);
        }
        queue.foldSeries(id_queue, merged);
    };

    // Health-plane fold: per-satellite and per-station observations fed
    // in index order on this serial thread, so detector verdicts, alert
    // ids, and alert bytes are invariant to threads and shards just
    // like the TimeSeries bins. The fold meters its own cost:
    // bench_health asserts the telemetry.self.health.fold_s total stays
    // within budget.
    const auto foldHealth = [&](double t1) {
        KODAN_TIME_SCOPE("telemetry.self.health.fold_s");
        auto plane = telemetry::health::plane().batch();
        using telemetry::health::EntityKind;
        static const std::string sig_queue = "queue.depth_bits";
        static const std::string sig_down = "downlink.bits";
        static const std::string sig_dvd = "dvd";
        static const std::string sig_frames = "frames.observed";
        static const std::string sig_dropped = "storage.dropped_bits";
        static const std::string sig_granted = "contact.granted_s";
        const std::int64_t chunk_last_bin = ctx.binOf(t1) - 1;
        const double chunk_t = static_cast<double>(chunk_last_bin) * bin_s;
        std::int64_t observations = 0;
        for (std::size_t s = 0; s < sat_count; ++s) {
            const auto sat = static_cast<std::int64_t>(s);
            std::int64_t chunk_frames = 0;
            double chunk_dropped = 0.0;
            for (const auto &[bin, accum] : chunk_bins[s]) {
                const double t = static_cast<double>(bin) * bin_s;
                chunk_frames += accum.frames;
                chunk_dropped += accum.dropped_bits;
                sat_depth[s] += accum.queued_bits - accum.drained_bits -
                                accum.dropped_bits;
                plane.observe(EntityKind::Satellite, sat, sig_queue, bin, t,
                              sat_depth[s]);
                ++observations;
                if (accum.bits_down > 0.0) {
                    plane.observe(EntityKind::Satellite, sat, sig_down, bin,
                                  t, accum.bits_down);
                    plane.observe(EntityKind::Satellite, sat, sig_dvd, bin,
                                  t, accum.high_bits_down / accum.bits_down);
                    observations += 2;
                }
            }
            // Chunk-grained signals: one observation per chunk so the
            // storage threshold holds one alert across a sustained shed
            // instead of refiring per bin.
            plane.observe(EntityKind::Satellite, sat, sig_frames,
                          chunk_last_bin, chunk_t,
                          static_cast<double>(chunk_frames));
            plane.observe(EntityKind::Satellite, sat, sig_dropped,
                          chunk_last_bin, chunk_t, chunk_dropped);
            observations += 2;
            if (journal_on) {
                plane.observeLane(EntityKind::Satellite, sat,
                                  journal_region.id(), s + 1, ord_before[s],
                                  state[s].journal_ord);
            }
        }
        // Granted station-seconds per (station, bin), flat over the bins
        // the closed runs touch, observed in (station, bin) order.
        std::int64_t bin_lo = std::numeric_limits<std::int64_t>::max();
        std::int64_t bin_hi = std::numeric_limits<std::int64_t>::min();
        for (const auto &runs : closed) {
            for (const auto &run : runs) {
                bin_lo = std::min(bin_lo, ctx.binOf(run.start));
                bin_hi = std::max(bin_hi, ctx.binOf(run.end));
            }
        }
        if (bin_lo <= bin_hi) {
            const auto span = static_cast<std::size_t>(bin_hi - bin_lo + 1);
            std::vector<double> station_granted(station_count * span, 0.0);
            for (const auto &runs : closed) {
                for (const auto &run : runs) {
                    double *row = &station_granted[run.station * span];
                    forEachGrantedBin(run, ctx,
                                      [&](std::int64_t bin, double seconds) {
                                          row[bin - bin_lo] += seconds;
                                      });
                }
            }
            for (std::size_t g = 0; g < station_count; ++g) {
                for (std::size_t b = 0; b < span; ++b) {
                    const double seconds = station_granted[g * span + b];
                    if (seconds <= 0.0) {
                        continue;
                    }
                    const std::int64_t bin =
                        bin_lo + static_cast<std::int64_t>(b);
                    plane.observe(EntityKind::Station,
                                  static_cast<std::int64_t>(g), sig_granted,
                                  bin, static_cast<double>(bin) * bin_s,
                                  seconds);
                    ++observations;
                }
            }
        }
        plane.advance(chunk_last_bin, chunk_t);
        KODAN_COUNT_ADD("telemetry.health.observations", observations);
    };

    const std::size_t chunk_count =
        static_cast<std::size_t>(std::ceil(mission.duration / chunk_s));
    for (std::size_t c = 0; c < chunk_count; ++c) {
        Queue::chunkScope([&] {
            const double t0 = static_cast<double>(c) * chunk_s;
            const double t1 = std::min(mission.duration, t0 + chunk_s);
            const bool last_chunk = c + 1 == chunk_count;

            // Contact sweep + scheduler advance for this span (serial
            // orchestration; the sweep itself fans out over the pool),
            // then harvest the contact runs the scheduler closed.
            const auto windows =
                finder.findAllParallel(sats, mission.stations, t0, t1);
            Allocation &allocation =
                queue.schedule(windows, t0, t1, last_chunk);
            closed.swap(allocation.intervals_per_satellite);
            for (auto &runs : closed) {
                std::sort(runs.begin(), runs.end(),
                          [](const Interval &a, const Interval &b) {
                              return a.start != b.start
                                         ? a.start < b.start
                                         : a.station < b.station;
                          });
            }
            if (last_chunk) {
                result.idle_station_seconds = allocation.idle_station_seconds;
                result.busy_station_seconds = allocation.busy_station_seconds;
            }
            if (health_on && journal_on) {
                for (std::size_t s = 0; s < sat_count; ++s) {
                    ord_before[s] = state[s].journal_ord;
                }
            }

            util::parallelFor(shard_count, [&](std::size_t shard_idx) {
                const std::size_t begin = shard_idx * shard;
                const std::size_t end = std::min(sat_count, begin + shard);
                for (std::size_t s = begin; s < end; ++s) {
                    simulateSatellite(s, c, t0, t1);
                }
            });

            if (ts_on) {
                foldSeries();
            }
            if (health_on) {
                foldHealth(t1);
            }
            for (auto &bins : chunk_bins) {
                bins.clear();
            }
            for (auto &runs : closed) {
                runs.clear();
            }
        });
    }

    result.per_satellite.resize(sat_count);
    for (std::size_t s = 0; s < sat_count; ++s) {
        result.per_satellite[s] = state[s].result;
    }
    queue.finish(result, journal_region.id(), state);
    return result;
}

} // namespace

double
frameValueFraction(const data::GeoModel *world, double fixed_prevalence,
                   const orbit::Geodetic &center, double time,
                   util::Rng &rng)
{
    if (world == nullptr) {
        return rng.bernoulli(fixed_prevalence) ? 1.0 : 0.0;
    }
    // Sample a 3x3 lattice across the frame footprint.
    const double spread = 50.0e3 / util::kEarthRadius; // ~ frame third
    std::array<double, 3> lats{};
    std::array<double, 3> lons{};
    for (int d = -1; d <= 1; ++d) {
        lats[d + 1] = util::clamp(center.latitude + d * spread,
                                  -util::kPi / 2.0 + 1e-6,
                                  util::kPi / 2.0 - 1e-6);
        lons[d + 1] = center.longitude + d * spread;
    }
    return world->clearCount(lats, lons, time) / 9.0;
}

MissionResult
runMission(const MissionConfig &mission, const FilterBehavior &filter,
           const data::GeoModel *world, double fixed_prevalence,
           double chunk_s, std::size_t shard_size, const ExactQueues &queues)
{
    return drive<ExactQueue>(mission, filter, world, fixed_prevalence, chunk_s,
                             shard_size, queues);
}

MissionResult
runMission(const MissionConfig &mission, const FilterBehavior &filter,
           const data::GeoModel *world, double fixed_prevalence,
           double chunk_s, std::size_t shard_size, const FluidQueues &queues)
{
    return drive<FluidQueue>(mission, filter, world, fixed_prevalence, chunk_s,
                             shard_size, queues);
}

} // namespace kodan::sim
