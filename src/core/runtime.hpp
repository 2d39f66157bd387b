/**
 * @file
 * The deployed runtime (paper Fig. 7, right): per-frame execution of the
 * selection logic on a satellite.
 *
 * Each frame is tiled per the logic; the context engine labels each
 * tile; tiles are then discarded, queued raw for downlink, or filtered
 * by the chosen specialized model. Compute time is charged from the
 * hardware cost model. The runtime is the ground-truth implementation
 * the analytic projection (evaluateLogic) is validated against.
 */

#ifndef KODAN_CORE_RUNTIME_HPP
#define KODAN_CORE_RUNTIME_HPP

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/selection.hpp"
#include "core/specialize.hpp"
#include "data/sample.hpp"
#include "hw/target.hpp"
#include "ml/confusion.hpp"

namespace kodan::core {

/** Outcome of processing one frame on board. */
struct FrameReport
{
    /** Modeled on-board compute time (s), engine + models. */
    double compute_time = 0.0;
    /** Product bits emitted, as a fraction of the raw frame bits. */
    double product_fraction = 0.0;
    /** Truly high-value product bits, as a fraction of raw frame bits. */
    double product_high_fraction = 0.0;
    /** Tiles elided to Discard (64-bit: aggregates span whole missions,
     *  and 121 tiles/frame overflows int within ~18M frames). */
    std::int64_t tiles_discarded = 0;
    /** Tiles elided to Downlink. */
    std::int64_t tiles_downlinked = 0;
    /** Tiles filtered by a model. */
    std::int64_t tiles_modeled = 0;
    /** Cell-level confusion of the frame's keep/drop decisions. */
    ml::ConfusionStats cells;
};

/**
 * Per-frame working state: every buffer a frame needs on its way
 * through the stage entry points (stageTileClassify -> stageInferTile
 * -> stageElide -> stageRecord).
 */
struct FrameWork
{
    /** The frame being processed (non-owning). */
    const data::FrameSample *frame = nullptr;
    /** Tiles (filled by stageTileClassify with statistics only; block
     *  arrays are decimated on demand by stageInferTile). */
    std::vector<data::TileData> tiles;
    /** Context id per tile (filled by stageTileClassify). */
    std::vector<int> contexts;
    /**
     * Keep/drop decision per (tile, block): tiles.size() *
     * data::kBlocksPerTile entries, tile-major (filled by
     * stageInferTile for modeled tiles; entries of elided tiles are
     * unused).
     */
    std::vector<std::uint8_t> keep;
    /** The frame's finished report (filled by stageElide). */
    FrameReport report;
};

/**
 * Executes a selection logic on frames.
 *
 * The per-frame work is factored into stage entry points
 * (stageTileClassify -> stageInferTile -> stageElide -> stageRecord)
 * that processFrame runs in order, so callers that time or trace the
 * stages separately run the exact same implementation.
 */
class Runtime
{
  public:
    /**
     * @param logic Deployed policy.
     * @param engine Context engine (not owned).
     * @param zoo Model zoo (not owned).
     * @param target Hardware the compute time is charged against.
     */
    Runtime(const SelectionLogic &logic, const ContextEngine *engine,
            const SpecializedZoo *zoo, hw::Target target);

    /** The deployed policy. */
    const SelectionLogic &logic() const { return logic_; }

    /** The model zoo the runtime executes (not owned). */
    const SpecializedZoo &zoo() const { return *zoo_; }

    /** Process one captured frame. */
    FrameReport processFrame(const data::FrameSample &frame) const;

    /**
     * Process a batch of frames, fanning the independent per-frame work
     * across the global thread pool (KODAN_THREADS), and return the
     * aggregate. Per-frame reports are merged in frame order, so the
     * result is bit-identical to aggregating serial processFrame() calls
     * for any thread count.
     */
    FrameReport processFrames(
        const std::vector<data::FrameSample> &frames) const;

    /**
     * Aggregate PER-FRAME reports over a frame set (mean time/fractions,
     * summed counts). Do not feed aggregates back into this function —
     * that averages means over unequal chunks; use mergeAggregates().
     */
    static FrameReport aggregate(const std::vector<FrameReport> &reports);

    /**
     * Merge two aggregates produced by aggregate() over @p frames_a and
     * @p frames_b frames respectively, weighting the per-frame means by
     * their frame counts (the mean-of-means-safe chunk merge).
     */
    static FrameReport mergeAggregates(const FrameReport &a,
                                       std::size_t frames_a,
                                       const FrameReport &b,
                                       std::size_t frames_b);

    /* -- Stage entry points -- */

    /**
     * Stage 1, capture -> tile/classify, tiled lazily: compute each
     * tile's statistics (reusing @p work's buffers) and label every
     * tile's context with one batched engine forward pass, but skip
     * block decimation (classification reads only the tile-level
     * mean/stddev), leaving each tile's block arrays empty.
     * stageInferTile decimates exactly the modeled tiles on demand
     * (data::Tiler::decimate), so elided tiles never pay the
     * decimation pass. The output is bit-identical to eager tiling
     * (data::Tiler::tileInto): elide and record read no block data,
     * and on-demand decimation runs the same code as the eager path.
     */
    void stageTileClassify(const data::FrameSample &frame,
                           FrameWork &work) const;

    /**
     * Stage 2, specialize/infer: decimate modeled tile @p t if it has
     * no block arrays yet, run its specialized model over its block
     * batch, and write the keep/drop decisions into work.keep. Only
     * valid for tiles whose action is RunModel.
     */
    void stageInferTile(FrameWork &work, std::size_t t) const;

    /** Keep/drop rule: keep iff the model's cloud probability is below
     *  0.5. */
    static void keepFromProbs(const double *probs, std::size_t count,
                              std::uint8_t *keep);

    /**
     * Stage 3, elide: the per-tile accounting loop — compute time,
     * elision verdicts, product fractions, cell confusion — writing
     * work.report. Reads work.keep for modeled tiles; accumulation
     * order is fixed (tile order, engine then model time), so the
     * report is bit-identical however the keep decisions were batched.
     */
    void stageElide(FrameWork &work) const;

    /**
     * Stage 4, downlink-queue/record: emit the frame's telemetry
     * (counters, gauges, histogram, sim-time series) and flight
     * recorder events. Derived purely from the finished report; no-op
     * when recording is disabled.
     */
    void stageRecord(const FrameWork &work) const;

  private:
    SelectionLogic logic_;
    const ContextEngine *engine_;
    const SpecializedZoo *zoo_;
    hw::Target target_;
};

} // namespace kodan::core

#endif // KODAN_CORE_RUNTIME_HPP
