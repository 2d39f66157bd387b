/**
 * @file
 * kodan_perfbench: the repository benchmark program.
 *
 *   kodan_perfbench --workload W --seed N --seconds S --trace 0|1 [--tiny]
 *
 * Workloads: runtime_fp64, runtime_int8, fleet_contacts, mission_world
 * (see perfbench/README.md). The untraced run prints the end-to-end
 * metrics; the traced run prints the per-layer metrics and the share
 * table. Every metric of the other kind a workload does not exercise is
 * reported as 0 (layer bypassed). The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit code
 * is 0 only if every output verified.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "ml/kernels.hpp"
#include "ml/quant.hpp"
#include "perfbench.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    return kodan::util::splitMix64(seed ^ (0x9E3779B97F4A7C15ULL * stream));
}

void
recordersOff()
{
    using namespace kodan::telemetry;
    setEnabled(false);
    setJournalEnabled(false);
    setLineageEnabled(false);
    health::setHealthEnabled(false);
}

namespace {

/** Peak resident set of this process so far (MiB). */
double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct MetricSpec
{
    const char *name;
    const char *unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"frames_per_s", "frames/s"}, {"frame_dvd", "ratio"},
    {"modeled_frame_s", "s"},     {"sat_days_per_s", "sat-days/s"},
    {"downlink_dvd", "ratio"},    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.runtime.tile_classify_us", "us"},
    {"data.tiler.tile_us", "us"},
    {"core.engine.classify_us", "us"},
    {"data.tiler.tiles", "count"},
    {"core.runtime.infer_us", "us"},
    {"ml.infer.rows", "count"},
    {"ml.infer.ns_per_row", "ns"},
    {"core.runtime.elide_us", "us"},
    {"core.runtime.record_us", "us"},
    {"core.runtime.tiles_modeled", "count"},
    {"core.runtime.tiles_discarded", "count"},
    {"core.runtime.tiles_downlinked", "count"},
    {"core.runtime.elided_share", "ratio"},
    {"core.runtime.unattributed_us", "us"},
    {"core.runtime.parallel_speedup", "x"},
    {"core.transformer.prepare_s", "s"},
    {"core.transformer.transform_s", "s"},
    {"core.selection.select_s", "s"},
    {"ground.contact.sweep_s", "s"},
    {"ground.contact.windows", "count"},
    {"ground.schedule_s", "s"},
    {"ground.schedule.intervals", "count"},
    {"sense.capture_s", "s"},
    {"sense.frames", "count"},
    {"sim.value_model_s", "s"},
    {"sim.unattributed_s", "s"},
    {"sim.parallel_speedup", "x"},
    {"telemetry.health.fold_share", "ratio"},
    {"telemetry.health.on_off_share", "ratio"},
    {"telemetry.recording_share", "ratio"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "kodan_perfbench: " << why
              << "\nusage: kodan_perfbench --workload "
                 "runtime_fp64|runtime_int8|fleet_contacts|mission_world "
                 "--seed N --seconds S --trace 0|1 [--tiny]\n";
    std::exit(2);
}

/** Shortest text that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    RunOptions options;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage("missing value for " + arg);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                workload = value();
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                have_seconds = options.seconds > 0.0;
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1") {
                    usage("--trace takes 0 or 1");
                }
                options.trace = t == "1";
                have_trace = true;
            } else if (arg == "--tiny") {
                options.tiny = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::exception &) {
            usage("bad value for " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        usage("--seed, --seconds (> 0) and --trace are required");
    }

    // Pin everything the caller's environment could change: recorders
    // off, the blocked kernels, fp64 unless a workload says otherwise,
    // and an explicit thread count (each workload sets its own).
    recordersOff();
    kodan::ml::kernels::setBackend(kodan::ml::kernels::Backend::Blocked);
    const kodan::ml::PrecisionGuard fp64(kodan::ml::Precision::Fp64);
    kodan::util::setGlobalThreads(kRunThreads);

    Result result;
    if (workload == "runtime_fp64") {
        result = runRuntime(options, false);
    } else if (workload == "runtime_int8") {
        result = runRuntime(options, true);
    } else if (workload == "fleet_contacts") {
        result = runFleetContacts(options);
    } else if (workload == "mission_world") {
        result = runMissionWorld(options);
    } else {
        usage("unknown workload '" + workload + "'");
    }
    if (!options.trace) {
        result.set("peak_rss_mb", peakRssMb());
    }

    std::printf("run record: workload=%s seed=%llu seconds=%g trace=%d "
                "tiny=%d threads=%d build=%s native=%d nproc=%u "
                "counters=%s input_digest=%016llx\n",
                workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.tiny ? 1 : 0,
                result.threads, PERFBENCH_BUILD_TYPE,
                PERFBENCH_NATIVE, std::thread::hardware_concurrency(),
                kodan::telemetry::prof::counterSourceName(),
                static_cast<unsigned long long>(result.input_digest));
    for (const auto &[name, s] : result.samples) {
        std::printf("samples: %-40s median %.6g q1 %.6g q3 %.6g n %zu\n",
                    name.c_str(), s.median(), s.q1(), s.q3(), s.n());
    }

    // Every metric of the run's kind is reported; one the workload does
    // not exercise reads 0.
    std::string metrics;
    const auto emit = [&](const MetricSpec &spec) {
        const auto it = result.metrics.find(spec.name);
        double value = it != result.metrics.end() ? it->second : 0.0;
        if (!std::isfinite(value)) {
            result.fail(0, std::string(spec.name) + " is not finite");
            value = 0.0;
        }
        std::printf("metric: %-34s %.10g %s\n", spec.name, value, spec.unit);
        metrics += metrics.empty() ? "" : ", ";
        metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                   number(value) + ", \"unit\": \"" + spec.unit + "\"}";
    };
    if (options.trace) {
        for (const auto &spec : kPerLayer) {
            emit(spec);
        }
    } else {
        for (const auto &spec : kEndToEnd) {
            emit(spec);
        }
    }
    const bool correct = result.correct && result.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return correct ? 0 : 1;
}
