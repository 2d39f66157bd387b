#include "common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace kodan::bench {

namespace {

std::string
cachePath()
{
    if (const char *dir = std::getenv("KODAN_BENCH_CACHE_DIR")) {
        return std::string(dir) + "/kodan_bench_cache.txt";
    }
#ifdef KODAN_BENCH_CACHE_DEFAULT_DIR
    return std::string(KODAN_BENCH_CACHE_DEFAULT_DIR) +
           "/kodan_bench_cache.txt";
#else
    return "kodan_bench_cache.txt";
#endif
}

bool
refreshRequested()
{
    const char *env = std::getenv("KODAN_BENCH_REFRESH");
    return env != nullptr && std::string(env) == "1";
}

core::TransformOptions
benchOptions()
{
    core::TransformOptions options;
    options.train_frames = 100;
    options.val_frames = 44;
    options.specialize.max_train_blocks = 24000;
    return options;
}

core::MeasuredBundle
computeBundle()
{
    std::cerr << "[kodan-bench] computing measured bundle "
                 "(one-time transformation for Apps 1-7, "
              << util::globalThreadCount() << " thread(s))...\n";
    core::MeasuredBundle bundle;
    const double elapsed = timeSeconds([&] {
        const data::GeoModel world;
        const core::Transformer transformer(benchOptions());
        const auto shared = transformer.prepareData(world);
        bundle.prevalence = shared.prevalence;
        bundle.apps.resize(hw::kAppCount);

        // Each application transform is independent and deterministic;
        // fan the seven apps across the shared pool (KODAN_THREADS).
        util::parallelFor(hw::kAppCount, [&](std::size_t i) {
            const int tier = static_cast<int>(i) + 1;
            const auto artifacts =
                transformer.transformApp(core::Application{tier}, shared);
            core::MeasuredApp &measured = bundle.apps[i];
            measured.tier = tier;
            measured.tables = artifacts.tables;
            measured.direct_tables = artifacts.direct_tables;
            measured.direct_tiles_per_frame =
                artifacts.direct_tiles_per_frame;
            std::cerr << "[kodan-bench]   app " << tier << " done\n";
        });
    });
    std::cerr << "[kodan-bench] bundle computed in " << elapsed
              << " s wall clock\n";
    return bundle;
}

} // namespace

void
initHarness(int &argc, char **argv)
{
    telemetry::configureFromArgs(argc, argv);
}

const core::MeasuredBundle &
measuredBundle()
{
    static const core::MeasuredBundle bundle = [] {
        core::MeasuredBundle loaded;
        if (!refreshRequested() && core::tryLoadBundle(cachePath(),
                                                       loaded)) {
            std::cerr << "[kodan-bench] loaded cached bundle from "
                      << cachePath() << "\n";
            return loaded;
        }
        core::MeasuredBundle computed = computeBundle();
        core::storeBundle(cachePath(), computed);
        return computed;
    }();
    return bundle;
}

const core::MeasuredApp &
appMeasurements(int tier)
{
    const auto &bundle = measuredBundle();
    for (const auto &app : bundle.apps) {
        if (app.tier == tier) {
            return app;
        }
    }
    util::fatal("bench: no measurements for tier " + std::to_string(tier));
}

core::SystemProfile
profileFor(hw::Target target)
{
    return core::SystemProfile::landsat8(target,
                                         measuredBundle().prevalence);
}

const core::ContextActionTable &
directTable(const core::MeasuredApp &app)
{
    for (const auto &table : app.direct_tables) {
        if (table.tiles_per_side * table.tiles_per_side ==
            app.direct_tiles_per_frame) {
            return table;
        }
    }
    return app.direct_tables.front();
}

core::DeploymentOutcome
directDeploy(const core::MeasuredApp &app,
             const core::SystemProfile &profile)
{
    const auto &table = directTable(app);
    return core::evaluateLogic(profile, table, {table.actions[0][0]},
                               /*use_context_engine=*/false,
                               /*send_unprocessed_raw=*/true);
}

core::SweepResult
kodanSelect(const core::MeasuredApp &app,
            const core::SystemProfile &profile,
            const core::SweepOptions &options)
{
    const core::SelectionOptimizer optimizer(options);
    return optimizer.optimize(profile, app.tables);
}

void
emitCsv(const std::string &name, const util::TablePrinter &table)
{
    const char *dir = std::getenv("KODAN_BENCH_CSV_DIR");
    if (dir == nullptr) {
        return;
    }
    const std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream file(path);
    if (!file) {
        std::cerr << "[kodan-bench] cannot write " << path << "\n";
        return;
    }
    table.writeCsv(file);
    std::cerr << "[kodan-bench] wrote " << path << "\n";
}

double
timeSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "==================================================\n"
              << title << "\n"
              << "(reproduces " << paper_ref
              << " of Kodan, ASPLOS 2023)\n"
              << "==================================================\n\n";
}

} // namespace kodan::bench
