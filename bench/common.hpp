/**
 * @file
 * Shared machinery of the benchmark harness.
 *
 * Every figure bench needs the measured artifacts of the seven
 * applications. They are computed once (multi-threaded across
 * applications) and cached to a text bundle so re-running the suite is
 * cheap. Set KODAN_BENCH_REFRESH=1 to force recomputation, or
 * KODAN_BENCH_CACHE_DIR=<dir> to move the cache (the default directory
 * is the build tree, never the source tree).
 */

#ifndef KODAN_BENCH_COMMON_HPP
#define KODAN_BENCH_COMMON_HPP

#include <functional>
#include <string>

#include "core/io.hpp"
#include "core/kodan.hpp"
#include "util/table.hpp"

namespace kodan::bench {

/**
 * Standard harness setup for a bench main: consumes harness flags from
 * argv before the bench-specific parsing sees them —
 *   --telemetry-out <path>  enable metrics/tracing, write the snapshot
 *                           JSON (+ Chrome trace) at exit;
 *   --journal-out <path>    enable the flight recorder, write the
 *                           journal JSONL at exit;
 *   --profile-out <path>    enable the CPU profiling plane (sampling
 *                           profiler + per-span counters), write the
 *                           profile JSON (+ folded stacks) at exit.
 * Call as the first statement of main.
 */
void initHarness(int &argc, char **argv);

/**
 * Measured bundle for Apps 1-7 on the standard synthetic dataset;
 * computed on first call and cached on disk.
 */
const core::MeasuredBundle &measuredBundle();

/** The MeasuredApp of tier @p tier from the bundle. */
const core::MeasuredApp &appMeasurements(int tier);

/** Landsat-8 system profile using the bundle's measured prevalence. */
core::SystemProfile profileFor(hw::Target target);

/** The direct-deploy table of a measured app (accuracy-max tiling). */
const core::ContextActionTable &directTable(const core::MeasuredApp &app);

/** Direct-deploy outcome of a measured app on a profile. */
core::DeploymentOutcome directDeploy(const core::MeasuredApp &app,
                                     const core::SystemProfile &profile);

/** Kodan selection (full sweep) over a measured app's tables. */
core::SweepResult kodanSelect(const core::MeasuredApp &app,
                              const core::SystemProfile &profile,
                              const core::SweepOptions &options = {});

/** Wall-clock seconds (steady clock) of one call of @p fn. */
double timeSeconds(const std::function<void()> &fn);

/** Print the standard bench banner. */
void banner(const std::string &title, const std::string &paper_ref);

/**
 * Mirror a result table to <KODAN_BENCH_CSV_DIR>/<name>.csv for
 * plotting; no-op when the environment variable is unset.
 */
void emitCsv(const std::string &name, const util::TablePrinter &table);

} // namespace kodan::bench

#endif // KODAN_BENCH_COMMON_HPP
