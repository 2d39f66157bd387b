/**
 * @file
 * runtime_fp64 / runtime_int8: the deployed runtime (paper Fig. 7,
 * right) at the selected configuration. Each run deploys the tier-4
 * application three times, from three seeds derived from the workload
 * seed: every deployment generates its own world and dataset and is
 * transformed and selected for Orin15W in fp64. Runtime::processFrames
 * then runs each deployment's validation frames, replicated to 8x, under
 * the workload's precision. The end-to-end metrics are medians over
 * the three deployments, which keeps the seed-to-seed variation of the
 * selected logic out of them, and setup_s has three samples.
 * Replication is safe because the runtime keeps no state across frames.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/transformer.hpp"
#include "data/tiler.hpp"
#include "ml/kernels.hpp"
#include "ml/quant.hpp"
#include "perfbench.hpp"
#include "sense/capture.hpp"
#include "sim/mission.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace kodan;

constexpr hw::Target kTarget = hw::Target::Orin15W;

/** One deployment of the runtime. Not movable: the runtime points into
 *  the artifacts. */
struct Deployed
{
    core::DataArtifacts shared;
    core::AppArtifacts artifacts;
    core::SweepResult selected;
    std::unique_ptr<core::Runtime> runtime;
    std::vector<data::FrameSample> frames;
    /** Serial-oracle report of the batch (filled by verify()). */
    core::FrameReport reference;
    double prepare_s = 0.0;
    double transform_s = 0.0;
    double select_s = 0.0;
};

using Deployments = std::vector<std::unique_ptr<Deployed>>;

std::unique_ptr<Deployed>
deploy(const RunOptions &options, std::uint64_t instance)
{
    // Transformation and selection run in fp64 for both workloads, so
    // runtime_int8 executes the same logic and zoo as runtime_fp64.
    const ml::PrecisionGuard fp64(ml::Precision::Fp64);
    auto d = std::make_unique<Deployed>();
    data::GeoModelParams geo;
    geo.seed = streamSeed(options.seed, 1 + 2 * instance);
    const data::GeoModel world(geo);
    core::TransformOptions transform;
    transform.train_frames = options.tiny ? 12 : 40;
    transform.val_frames = options.tiny ? 4 : 24;
    transform.specialize.max_train_blocks = options.tiny ? 3000 : 16000;
    if (options.tiny) {
        transform.legacy_frames = 16;
    }
    // Selection sweeps only the 121-tile tiling: over the full sweep the
    // seed flips a quarter of deployments to 36 tiles/frame, which made
    // every runtime metric a two-mode mixture across seeds.
    transform.sweep.tile_counts = {121};
    transform.seed = streamSeed(options.seed, 2 + 2 * instance);
    const core::Transformer transformer(transform);

    double t0 = now();
    d->shared = transformer.prepareData(world);
    double t1 = now();
    d->prepare_s = t1 - t0;
    d->artifacts = transformer.transformApp(core::Application{4}, d->shared);
    t0 = now();
    d->transform_s = t0 - t1;
    const auto profile =
        core::SystemProfile::landsat8(kTarget, d->shared.prevalence);
    d->selected = transformer.select(d->artifacts, profile);
    d->select_s = now() - t0;

    // The runtime reads only the engine, the zoo and the frames.
    d->shared.train = {};
    d->shared.train_tiles = {};
    d->shared.legacy = {};
    d->shared.legacy_tiles = {};
    d->runtime = std::make_unique<core::Runtime>(
        d->selected.logic, d->shared.engine.get(), &d->artifacts.zoo,
        kTarget);
    const int replicas = options.tiny ? 2 : 8;
    for (int r = 0; r < replicas; ++r) {
        d->frames.insert(d->frames.end(), d->shared.val.begin(),
                         d->shared.val.end());
    }
    return d;
}

/** Deploy every instance, each timed from its start to the end of one
 *  warm-up batch under @p precision. */
Deployments
deployAll(const RunOptions &options, ml::Precision precision, Samples &setup)
{
    Deployments all;
    const int count = options.tiny ? 2 : 3;
    for (int i = 0; i < count; ++i) {
        const double t0 = now();
        all.push_back(deploy(options, static_cast<std::uint64_t>(i)));
        const ml::PrecisionGuard guard(precision);
        all.back()->runtime->processFrames(all.back()->frames);
        setup.values.push_back(now() - t0);
    }
    return all;
}

bool
sameReport(const core::FrameReport &a, const core::FrameReport &b)
{
    return a.compute_time == b.compute_time &&
           a.product_fraction == b.product_fraction &&
           a.product_high_fraction == b.product_high_fraction &&
           a.tiles_discarded == b.tiles_discarded &&
           a.tiles_downlinked == b.tiles_downlinked &&
           a.tiles_modeled == b.tiles_modeled &&
           a.cells.tp() == b.cells.tp() && a.cells.fp() == b.cells.fp() &&
           a.cells.tn() == b.cells.tn() && a.cells.fn() == b.cells.fn();
}

void
checkReport(Result &result, const Deployed &d, const core::FrameReport &got,
            const char *what)
{
    const auto frames = static_cast<std::int64_t>(d.frames.size());
    result.attempted += frames;
    if (!sameReport(got, d.reference)) {
        result.fail(frames, what);
    }
}

/**
 * Compute each deployment's oracle report, Runtime::aggregate over
 * serial processFrame calls, and for int8 check the batch against the
 * naive-kernel oracle too. Untimed.
 */
void
verify(Deployments &all, bool int8, Result &result)
{
    for (auto &d : all) {
        std::vector<core::FrameReport> reports;
        reports.reserve(d->frames.size());
        for (const auto &frame : d->frames) {
            reports.push_back(d->runtime->processFrame(frame));
        }
        d->reference = core::Runtime::aggregate(reports);
        if (int8) {
            ml::kernels::setBackend(ml::kernels::Backend::Naive);
            const auto naive = d->runtime->processFrames(d->frames);
            ml::kernels::setBackend(ml::kernels::Backend::Blocked);
            checkReport(result, *d, naive,
                        "int8 batch differs from the naive-kernel oracle");
        }
    }
}

/** The oracle reports of all deployments merged into one. */
core::FrameReport
merged(const Deployments &all, std::size_t &frames)
{
    core::FrameReport total;
    frames = 0;
    for (const auto &d : all) {
        total = core::Runtime::mergeAggregates(total, frames, d->reference,
                                               d->frames.size());
        frames += d->frames.size();
    }
    return total;
}

/** Seconds of Landsat orbit one frame covers: the capture deadline. */
double
frameIntervalS()
{
    const auto config = sim::MissionConfig::landsatConstellation(1);
    const orbit::J2Propagator sat(config.satellites.front());
    const sense::WrsGrid grid;
    return sense::FrameCapture(config.camera, grid).frameDeadline(sat);
}

std::uint64_t
digestInputs(const Deployments &all)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &d : all) {
        for (const auto &frame : d->shared.val) {
            h = digestBytes(h, frame.features.data(),
                            frame.features.size() * sizeof(float));
            h = digestBytes(h, frame.cloudy.data(), frame.cloudy.size());
        }
    }
    return h;
}

Result
endToEnd(const RunOptions &options, bool int8)
{
    const auto precision = int8 ? ml::Precision::Int8 : ml::Precision::Fp64;
    util::setGlobalThreads(kRunThreads);
    Samples setup;
    Deployments all = deployAll(options, precision, setup);

    Result result;
    result.input_digest = digestInputs(all);
    result.threads = util::globalThreadCount();
    const ml::PrecisionGuard guard(precision);
    // One repetition: one batch through every deployment, each timed.
    std::vector<std::vector<core::FrameReport>> timed;
    std::vector<Samples> batch(all.size());
    MeasurePlan plan;
    plan.warmup = 0;
    plan.min_reps = 5;
    plan.budget_s = options.seconds;
    measure(
        [&](int) {
            auto &reports = timed.emplace_back();
            for (std::size_t i = 0; i < all.size(); ++i) {
                const double t0 = now();
                reports.push_back(
                    all[i]->runtime->processFrames(all[i]->frames));
                batch[i].values.push_back(now() - t0);
            }
        },
        plan);

    verify(all, int8, result);
    for (const auto &reports : timed) {
        for (std::size_t i = 0; i < all.size(); ++i) {
            checkReport(result, *all[i], reports[i],
                        "processFrames differs from serial processFrame");
        }
    }

    // Each metric is the median over the deployments: the mean would
    // follow the occasional deployment whose logic models far more tiles.
    Samples fps, dvd, frame_s;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const core::FrameReport &ref = all[i]->reference;
        fps.values.push_back(static_cast<double>(all[i]->frames.size()) /
                             batch[i].median());
        dvd.values.push_back(ref.product_high_fraction / ref.product_fraction);
        frame_s.values.push_back(ref.compute_time);
        result.samples["batch wall, deployment " + std::to_string(i) +
                       ", 2 threads (s)"] = batch[i];
    }
    result.set("frames_per_s", fps.median());
    result.set("frame_dvd", dvd.median());
    result.set("modeled_frame_s", frame_s.median());
    // The runtime's products are its downlink, and each frame covers
    // one capture deadline of Landsat orbit.
    result.set("downlink_dvd", dvd.median());
    result.set("sat_days_per_s",
               fps.median() * frameIntervalS() / util::kSecondsPerDay);
    result.set("setup_s", setup.median());
    result.samples["setup_s"] = setup;
    return result;
}

/** Times (s) of one traced repetition, summed over the deployments. */
struct Pass
{
    /** processFrames wall at 1 thread. */
    double wall = 0.0;
    /** Stage entry points, summed over the frames. */
    double tile_classify = 0.0;
    double infer = 0.0;
    double elide = 0.0;
    double record = 0.0;
    /** The tile/classify row's two library calls, measured apart. */
    double tile = 0.0;
    double classify = 0.0;
};

/** One traced repetition over deployment @p d, added into @p p;
 *  returns the stage loop's aggregate report. */
core::FrameReport
tracePass(const Deployed &d, Pass &p, std::int64_t &tiles)
{
    const core::Runtime &runtime = *d.runtime;
    const auto &logic = d.selected.logic;
    double t0 = now();
    runtime.processFrames(d.frames);
    p.wall += now() - t0;

    std::vector<core::FrameReport> reports;
    reports.reserve(d.frames.size());
    for (const auto &frame : d.frames) {
        core::FrameWork work;
        t0 = now();
        runtime.stageTileClassify(frame, work);
        const double t1 = now();
        for (std::size_t t = 0; t < work.tiles.size(); ++t) {
            if (logic.per_context[work.contexts[t]].kind ==
                core::ActionKind::RunModel) {
                runtime.stageInferTile(work, t);
            }
        }
        const double t2 = now();
        runtime.stageElide(work);
        const double t3 = now();
        runtime.stageRecord(work);
        p.record += now() - t3;
        p.elide += t3 - t2;
        p.infer += t2 - t1;
        p.tile_classify += t1 - t0;
        reports.push_back(work.report);
    }

    const data::Tiler tiler(logic.tiles_per_side);
    std::vector<data::TileData> tile_buf;
    std::vector<int> contexts;
    for (const auto &frame : d.frames) {
        t0 = now();
        tiler.tileInto(frame, tile_buf);
        const double t1 = now();
        d.shared.engine->classifyBatch(tile_buf, contexts);
        p.classify += now() - t1;
        p.tile += t1 - t0;
        tiles += static_cast<std::int64_t>(tile_buf.size());
    }
    return core::Runtime::aggregate(reports);
}

Result
traced(const RunOptions &options, bool int8)
{
    const auto precision = int8 ? ml::Precision::Int8 : ml::Precision::Fp64;
    util::setGlobalThreads(1);
    Samples setup;
    Deployments all = deployAll(options, precision, setup);
    const ml::PrecisionGuard guard(precision);
    Result result;
    result.input_digest = digestInputs(all);
    result.threads = util::globalThreadCount();

    // One repetition per deployment: the 1-thread batch wall, then the
    // stage loop (the public stage entry points timed one by one; it
    // must reproduce the batch report), then the tile/classify row
    // split into its two library calls. Interleaving keeps machine
    // drift out of the difference between the wall and the rows.
    std::vector<Pass> passes;
    std::vector<core::FrameReport> staged(all.size());
    std::int64_t tiles = 0;
    MeasurePlan plan;
    plan.warmup = 1;
    plan.min_reps = 5;
    plan.budget_s = options.seconds * 0.7;
    measure(
        [&](int rep) {
            Pass p;
            tiles = 0;
            for (std::size_t i = 0; i < all.size(); ++i) {
                staged[i] = tracePass(*all[i], p, tiles);
            }
            if (rep >= 0) {
                passes.push_back(p);
            }
        },
        plan);

    util::setGlobalThreads(kRunThreads);
    plan.budget_s = options.seconds * 0.1;
    const Samples wall2 = measure(
        [&](int) {
            for (const auto &d : all) {
                d->runtime->processFrames(d->frames);
            }
        },
        plan);
    util::setGlobalThreads(1);

    verify(all, int8, result);
    for (std::size_t i = 0; i < all.size(); ++i) {
        checkReport(result, *all[i], staged[i],
                    "stage loop differs from serial processFrame");
    }

    std::size_t frame_count = 0;
    const core::FrameReport total = merged(all, frame_count);
    const double frames = static_cast<double>(frame_count);
    const auto perFrameUs = [&](double Pass::*field) {
        Samples s;
        for (const auto &p : passes) {
            s.values.push_back(1e6 * p.*field / frames);
        }
        return s;
    };
    const Samples wall1 = perFrameUs(&Pass::wall);
    const Samples tc = perFrameUs(&Pass::tile_classify);
    const Samples infer = perFrameUs(&Pass::infer);
    const Samples elide = perFrameUs(&Pass::elide);
    const Samples record = perFrameUs(&Pass::record);
    const Samples tile = perFrameUs(&Pass::tile);
    const Samples classify = perFrameUs(&Pass::classify);
    const double rows =
        static_cast<double>(total.tiles_modeled) * data::kBlocksPerTile;
    const double elided =
        static_cast<double>(total.tiles_discarded + total.tiles_downlinked);

    const double unattributed = printShareTable(
        std::string(int8 ? "runtime_int8" : "runtime_fp64") +
            " (processFrames, 1 thread, per frame)",
        "us",
        {{"tile+classify", tc.median()},
         {"infer", infer.median()},
         {"elide", elide.median()},
         {"record", record.median()}},
        wall1.median());
    std::printf("  (tile+classify measured apart: tile %.3f us, classify "
                "%.3f us per frame)\n",
                tile.median(), classify.median());

    Samples prepare, transform, select;
    for (const auto &d : all) {
        prepare.values.push_back(d->prepare_s);
        transform.values.push_back(d->transform_s);
        select.values.push_back(d->select_s);
    }
    result.set("core.runtime.tile_classify_us", tc.median());
    result.set("data.tiler.tile_us", tile.median());
    result.set("core.engine.classify_us", classify.median());
    result.set("data.tiler.tiles", static_cast<double>(tiles));
    result.set("core.runtime.infer_us", infer.median());
    result.set("ml.infer.rows", rows);
    result.set("ml.infer.ns_per_row",
               rows > 0.0 ? 1e3 * infer.median() * frames / rows : 0.0);
    result.set("core.runtime.elide_us", elide.median());
    result.set("core.runtime.record_us", record.median());
    result.set("core.runtime.tiles_modeled",
               static_cast<double>(total.tiles_modeled));
    result.set("core.runtime.tiles_discarded",
               static_cast<double>(total.tiles_discarded));
    result.set("core.runtime.tiles_downlinked",
               static_cast<double>(total.tiles_downlinked));
    result.set("core.runtime.elided_share",
               elided / (elided + static_cast<double>(total.tiles_modeled)));
    result.set("core.runtime.unattributed_us", unattributed);
    result.set("core.runtime.parallel_speedup",
               wall1.median() * frames / 1e6 / wall2.median());
    result.set("core.transformer.prepare_s", prepare.median());
    result.set("core.transformer.transform_s", transform.median());
    result.set("core.selection.select_s", select.median());
    result.samples["processFrames wall, 1 thread (us/frame)"] = wall1;
    result.samples["batch round wall, 2 threads (s)"] = wall2;
    result.samples["core.runtime.tile_classify_us"] = tc;
    result.samples["core.runtime.infer_us"] = infer;
    result.samples["core.runtime.elide_us"] = elide;
    result.samples["core.runtime.record_us"] = record;
    result.samples["core.transformer.prepare_s"] = prepare;
    return result;
}

} // namespace

Result
runRuntime(const RunOptions &options, bool int8)
{
    return options.trace ? traced(options, int8) : endToEnd(options, int8);
}

} // namespace perfbench
