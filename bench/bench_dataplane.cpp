/**
 * @file
 * Deployed-runtime throughput: wall-clock of Runtime::processFrames
 * over the selected tier-4 logic, at KODAN_THREADS=1 so the number is
 * per-core (outer parallelism belongs to bench_parallel_speedup).
 * Wall-clock is the best of three timed tries of three batches each,
 * to keep the number meaningful on noisy shared machines.
 *
 * scripts/check_regressions.sh runs it under KODAN_QUANT=int8 with
 * --telemetry-out: the runtime's deterministic counters and timer call
 * counts are diffed against bench/baselines/dataplane.metrics.json.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace kodan;

core::TransformOptions
sweepOptions()
{
    core::TransformOptions options;
    options.train_frames = 40;
    options.val_frames = 24;
    options.specialize.max_train_blocks = 16000;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    bench::banner("Deployed-runtime throughput (batch scheduler)",
                  "the runtime layer of DESIGN.md; no paper figure");

    util::setGlobalThreads(1);

    // The deployed runtime: tier-4 transform + selection on the
    // standard Landsat profile, as bench_ml_kernels.
    const data::GeoModel world;
    const core::Transformer transformer(sweepOptions());
    const auto shared = transformer.prepareData(world);
    const auto profile = core::SystemProfile::landsat8(
        hw::Target::Orin15W, shared.prevalence);
    const auto artifacts =
        transformer.transformApp(core::Application{4}, shared);
    const auto selected = transformer.select(artifacts, profile);
    const core::Runtime runtime(selected.logic, shared.engine.get(),
                                &artifacts.zoo, hw::Target::Orin15W);

    // Frame set: the validation pool replicated 8x (192 frames).
    std::vector<data::FrameSample> frames;
    for (int rep = 0; rep < 8; ++rep) {
        frames.insert(frames.end(), shared.val.begin(),
                      shared.val.end());
    }
    const int reps = 3;
    const int tries = 3;

    runtime.processFrames(frames); // warm
    double seconds = 0.0;
    for (int attempt = 0; attempt < tries; ++attempt) {
        const double s = bench::timeSeconds([&] {
            for (int r = 0; r < reps; ++r) {
                runtime.processFrames(frames);
            }
        });
        seconds = attempt == 0 ? s : std::min(seconds, s);
    }
    const double fps =
        seconds > 0.0 ? static_cast<double>(frames.size()) * reps / seconds
                      : 0.0;

    util::setGlobalThreads(0);

    // Wall-clock as a timer (diffed with the machine-noise tolerance).
#ifndef KODAN_TELEMETRY_DISABLED
    if (telemetry::enabled()) {
        telemetry::registry()
            .timer("bench.dataplane.time.runtime_batch")
            .record(seconds);
    }
#endif

    util::TablePrinter table({"workload", "seconds", "frames/s"});
    table.addRow({"runtime_batch", util::TablePrinter::fmt(seconds, 3),
                  util::TablePrinter::fmt(fps, 1)});
    table.print(std::cout);
    std::cout << "\n" << frames.size() * reps
              << " frames per try at KODAN_THREADS=1, best of " << tries
              << " tries.\n";
    bench::emitCsv("bench_dataplane", table);
    return 0;
}
