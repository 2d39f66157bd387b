/**
 * @file
 * fleet_contacts / mission_world: sat-days per wall-second through the
 * two mission engines.
 *
 *  - fleet_contacts runs sim::ConstellationEngine over a 100-satellite,
 *    10-plane Walker fleet against the 24-site global ground segment
 *    with a null world (Bernoulli frame values at 1/3): the contact
 *    sweep dominates and no ml, data or capture work runs.
 *  - mission_world runs sim::MissionSim over the seed's GeoModel world
 *    on a 12-satellite Landsat constellation: exact per-item queues,
 *    with the value model as the largest layer.
 *
 * The traced run replays each layer through its public call on the
 * workload's inputs (chunk by chunk where the engine chunks) and
 * attributes the rest of the engine's own 1-thread wall to the
 * unattributed row.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ground/contact.hpp"
#include "ground/downlink.hpp"
#include "perfbench.hpp"
#include "sense/capture.hpp"
#include "sim/constellation.hpp"
#include "sim/mission.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace kodan;

/** bench_constellation's Kodan filter: costly, selective, compact. */
sim::FilterBehavior
kodanFilter()
{
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.1;
    filter.product_fraction = 0.5;
    return filter;
}

/** The scenario of one mission workload plus how to run it. */
struct Scenario
{
    std::string name;
    sim::ConstellationConfig config; // config.mission for MissionSim
    int days = 0;
    /** Null for fleet_contacts. */
    std::unique_ptr<data::GeoModel> world;
    std::function<sim::MissionResult()> run;
};

std::unique_ptr<Scenario>
fleetScenario(const RunOptions &options)
{
    auto sc = std::make_unique<Scenario>();
    sc->name = "fleet_contacts";
    sc->days = options.tiny ? 1 : 2;
    auto &m = sc->config.mission;
    m = sim::MissionConfig::makeConstellation(options.tiny ? 8 : 100,
                                              options.tiny ? 2 : 10, 1);
    m.stations = ground::globalGroundSegment();
    m.duration = sc->days * util::kSecondsPerDay;
    m.scheduler_step = 30.0;
    m.contact_scan_step = 120.0;
    m.seed = streamSeed(options.seed, 3);
    sc->config.shard_size = 16;
    sc->config.chunk_s = util::kSecondsPerDay;
    const Scenario *s = sc.get();
    sc->run = [s] {
        const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
        return engine.run(s->config, kodanFilter());
    };
    return sc;
}

std::unique_ptr<Scenario>
worldScenario(const RunOptions &options)
{
    auto sc = std::make_unique<Scenario>();
    sc->name = "mission_world";
    sc->days = options.tiny ? 1 : 2;
    data::GeoModelParams geo;
    geo.seed = streamSeed(options.seed, 1);
    sc->world = std::make_unique<data::GeoModel>(geo);
    auto &m = sc->config.mission;
    m = sim::MissionConfig::landsatConstellation(options.tiny ? 2 : 12);
    m.duration = sc->days * util::kSecondsPerDay;
    m.seed = streamSeed(options.seed, 3);
    const Scenario *s = sc.get();
    sc->run = [s] {
        const sim::MissionSim sim(s->world.get());
        return sim.run(s->config.mission, kodanFilter());
    };
    return sc;
}

bool
sameSatellite(const sim::SatelliteResult &a, const sim::SatelliteResult &b)
{
    return a.frames_observed == b.frames_observed &&
           a.frames_processed == b.frames_processed &&
           a.frames_downlinked == b.frames_downlinked &&
           a.bits_observed == b.bits_observed &&
           a.high_bits_observed == b.high_bits_observed &&
           a.bits_downlinked == b.bits_downlinked &&
           a.high_bits_downlinked == b.high_bits_downlinked &&
           a.contact_seconds == b.contact_seconds &&
           a.frame_deadline == b.frame_deadline;
}

/** Per-satellite bit-identity of two results. */
bool
sameResult(const sim::MissionResult &a, const sim::MissionResult &b)
{
    if (a.per_satellite.size() != b.per_satellite.size() ||
        a.idle_station_seconds != b.idle_station_seconds ||
        a.busy_station_seconds != b.busy_station_seconds) {
        return false;
    }
    for (std::size_t s = 0; s < a.per_satellite.size(); ++s) {
        if (!sameSatellite(a.per_satellite[s], b.per_satellite[s])) {
            return false;
        }
    }
    return true;
}

double
satDays(const Scenario &sc)
{
    return static_cast<double>(sc.config.mission.satellites.size()) *
           sc.days;
}

void
check(Result &result, const Scenario &sc, const sim::MissionResult &got,
      const sim::MissionResult &reference, const std::string &what)
{
    const auto ops = static_cast<std::int64_t>(satDays(sc));
    result.attempted += ops;
    if (!sameResult(got, reference)) {
        result.fail(ops, sc.name + ": " + what);
    }
}

std::uint64_t
digestResult(const sim::MissionResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &sat : r.per_satellite) {
        h = digestBytes(h, &sat.high_bits_observed, sizeof(double));
        h = digestBytes(h, &sat.high_bits_downlinked, sizeof(double));
        h = digestBytes(h, &sat.frames_processed, sizeof(std::int64_t));
    }
    return h;
}

Result
endToEnd(const RunOptions &options,
         std::unique_ptr<Scenario> (*make)(const RunOptions &))
{
    util::setGlobalThreads(kRunThreads);
    // Set up several times (scenario, world, one warm-up run) and keep
    // the last; the warm-up result is the reference every timed run
    // must reproduce.
    const int setups = options.tiny ? 1 : 3;
    std::unique_ptr<Scenario> sc;
    sim::MissionResult reference;
    Samples setup;
    for (int i = 0; i < setups; ++i) {
        const double t0 = now();
        sc.reset();
        sc = make(options);
        reference = sc->run();
        setup.values.push_back(now() - t0);
    }

    Result result;
    result.input_digest = digestResult(reference);
    result.threads = util::globalThreadCount();
    std::vector<sim::MissionResult> timed;
    MeasurePlan plan;
    plan.warmup = 0;
    plan.min_reps = 5;
    plan.budget_s = options.seconds;
    const Samples wall =
        measure([&](int) { timed.push_back(sc->run()); }, plan);
    for (const auto &got : timed) {
        check(result, *sc, got, reference, "2-thread run not reproducible");
    }
    util::setGlobalThreads(1);
    check(result, *sc, sc->run(), reference,
          "1-thread run differs from the 2-thread run");

    const auto totals = reference.totals();
    const sim::FilterBehavior filter = kodanFilter();
    double onboard_s = 0.0;
    for (const auto &sat : reference.per_satellite) {
        onboard_s += static_cast<double>(sat.frames_processed) *
                     std::min(filter.frame_time, sat.frame_deadline);
    }
    const double frames = static_cast<double>(totals.frames_observed);
    result.set("sat_days_per_s", satDays(*sc) / wall.median());
    result.set("frames_per_s", frames / wall.median());
    result.set("downlink_dvd", totals.dvd());
    // Value density of the captured frames, before the filter.
    result.set("frame_dvd", totals.high_bits_observed / totals.bits_observed);
    // Modeled on-board compute charged per captured frame.
    result.set("modeled_frame_s", onboard_s / frames);
    result.set("setup_s", setup.median());
    result.samples["setup_s"] = setup;
    result.samples["run() wall, 2 threads (s)"] = wall;
    return result;
}

/** Layer busy times (s) of one replay of the engine's public calls. */
struct Replay
{
    double sweep_s = 0.0;
    double schedule_s = 0.0;
    double capture_s = 0.0;
    double value_s = 0.0;
    std::int64_t windows = 0;
    std::int64_t intervals = 0;
    std::int64_t frames = 0;
};

std::vector<orbit::J2Propagator>
propagators(const sim::MissionConfig &m)
{
    std::vector<orbit::J2Propagator> sats;
    for (const auto &elems : m.satellites) {
        sats.emplace_back(elems);
    }
    return sats;
}

std::int64_t
intervalCount(const ground::GroundSegmentScheduler::Allocation &a)
{
    std::int64_t n = 0;
    for (const auto &runs : a.intervals_per_satellite) {
        n += static_cast<std::int64_t>(runs.size());
    }
    return n;
}

/** ConstellationEngine's layers, chunk by chunk. */
Replay
replayFleet(const Scenario &sc)
{
    const sim::MissionConfig &m = sc.config.mission;
    const auto sats = propagators(m);
    const ground::ContactFinder finder(m.contact_scan_step);
    const ground::GroundSegmentScheduler scheduler(m.scheduler_step);
    Replay r;
    auto state = scheduler.beginAllocation(sats.size(), m.stations.size(),
                                           0.0);
    const auto chunks = static_cast<std::size_t>(
        std::ceil(m.duration / sc.config.chunk_s));
    for (std::size_t c = 0; c < chunks; ++c) {
        const double t0c = static_cast<double>(c) * sc.config.chunk_s;
        const double t1c = std::min(m.duration, t0c + sc.config.chunk_s);
        double t0 = now();
        const auto windows = finder.findAllParallel(sats, m.stations, t0c,
                                                    t1c);
        double t1 = now();
        r.sweep_s += t1 - t0;
        r.windows += static_cast<std::int64_t>(windows.size());
        scheduler.allocateSpan(windows, t1c, state);
        if (c + 1 == chunks) {
            const auto allocation =
                scheduler.finishAllocation(std::move(state));
            r.intervals = intervalCount(allocation);
        }
        r.schedule_s += now() - t1;
    }
    return r;
}

/** MissionSim's layers over the whole horizon. */
Replay
replayWorld(const Scenario &sc)
{
    const sim::MissionConfig &m = sc.config.mission;
    const auto sats = propagators(m);
    Replay r;
    double t0 = now();
    const auto windows = ground::ContactFinder(m.contact_scan_step)
                             .findAll(sats, m.stations, 0.0, m.duration);
    double t1 = now();
    r.sweep_s = t1 - t0;
    r.windows = static_cast<std::int64_t>(windows.size());
    const auto allocation =
        ground::GroundSegmentScheduler(m.scheduler_step)
            .allocate(windows, sats.size(), m.stations.size(), 0.0,
                      m.duration);
    r.schedule_s = now() - t1;
    r.intervals = intervalCount(allocation);

    const sense::WrsGrid grid;
    const sense::FrameCapture capture(m.camera, grid);
    util::Rng rng(0); // unused: the world labels every frame
    for (std::size_t s = 0; s < sats.size(); ++s) {
        t0 = now();
        const auto frames = capture.capture(sats[s], s, 0.0, m.duration);
        t1 = now();
        for (const auto &frame : frames) {
            sim::frameValueFraction(sc.world.get(), 1.0 / 3.0, frame.center,
                                    frame.time, rng);
        }
        r.value_s += now() - t1;
        r.capture_s += t1 - t0;
        r.frames += static_cast<std::int64_t>(frames.size());
    }
    return r;
}

Result
traced(const RunOptions &options,
       std::unique_ptr<Scenario> (*make)(const RunOptions &))
{
    util::setGlobalThreads(1);
    const auto sc = make(options);
    const bool fleet = sc->world == nullptr;
    Result result;
    result.threads = util::globalThreadCount();

    // One repetition: the engine's own 1-thread run, the replay of its
    // layers, and the run again with recording on: the health plane
    // (fleet) or journal + time series + lineage (mission). Metrics stay
    // on in the recording run so the health fold's own timer records.
    // Interleaving keeps machine drift out of the differences between
    // the walls and the rows.
    sim::MissionResult reference;
    Replay last;
    Samples wall1, sweep, schedule, capture, value, wall_on, fold;
    MeasurePlan plan;
    plan.warmup = 1;
    plan.min_reps = 7;
    plan.budget_s = options.seconds * 0.8;
    measure(
        [&](int rep) {
            double t0 = now();
            const auto got = sc->run();
            const double wall = now() - t0;
            last = fleet ? replayFleet(*sc) : replayWorld(*sc);
            if (rep < 0) {
                reference = got;
                return;
            }
            check(result, *sc, got, reference,
                  "1-thread run not reproducible");

            telemetry::resetAll();
            telemetry::setEnabled(true);
            if (fleet) {
                telemetry::health::setHealthEnabled(true);
            } else {
                telemetry::setJournalEnabled(true);
                telemetry::setLineageEnabled(true);
            }
            t0 = now();
            const auto recorded = sc->run();
            wall_on.values.push_back(now() - t0);
            const auto metrics = telemetry::registry().snapshot();
            const auto *timer = metrics.find("telemetry.self.health.fold_s");
            fold.values.push_back(timer != nullptr ? timer->sum : 0.0);
            recordersOff();
            telemetry::resetAll();
            check(result, *sc, recorded, reference,
                  "recording changed the result");

            wall1.values.push_back(wall);
            sweep.values.push_back(last.sweep_s);
            schedule.values.push_back(last.schedule_s);
            capture.values.push_back(last.capture_s);
            value.values.push_back(last.value_s);
        },
        plan);
    result.input_digest = digestResult(reference);

    util::setGlobalThreads(kRunThreads);
    std::vector<sim::MissionResult> two;
    plan.warmup = 0;
    plan.min_reps = 5;
    plan.budget_s = options.seconds * 0.1;
    const Samples wall2 =
        measure([&](int) { two.push_back(sc->run()); }, plan);
    util::setGlobalThreads(1);
    for (const auto &got : two) {
        check(result, *sc, got, reference,
              "2-thread run differs from the 1-thread run");
    }

    const double wall = wall1.median();
    const double unattributed = printShareTable(
        sc->name + " (run(), 1 thread)", "s",
        {{"contact sweep", sweep.median()},
         {"schedule", schedule.median()},
         {"capture", capture.median()},
         {"value model", value.median()}},
        wall);
    // Share of the recording-on wall that recording adds.
    const double on_off = (wall_on.median() - wall) / wall_on.median();
    std::printf("  recording on (%s): wall %.6f s vs %.6f s off, "
                "(on-off)/on %+.2f%%\n",
                fleet ? "health plane" : "journal+series+lineage",
                wall_on.median(), wall, 100.0 * on_off);

    result.set("ground.contact.sweep_s", sweep.median());
    result.set("ground.contact.windows", static_cast<double>(last.windows));
    result.set("ground.schedule_s", schedule.median());
    result.set("ground.schedule.intervals",
               static_cast<double>(last.intervals));
    result.set("sense.capture_s", capture.median());
    result.set("sense.frames", static_cast<double>(last.frames));
    result.set("sim.value_model_s", value.median());
    result.set("sim.unattributed_s", unattributed);
    result.set("sim.parallel_speedup", wall / wall2.median());
    if (fleet) {
        Samples share;
        for (std::size_t i = 0; i < fold.n(); ++i) {
            share.values.push_back(fold.values[i] / wall_on.values[i]);
        }
        std::printf("  health fold: %.6f s of %.6f s (%.2f%%)\n",
                    fold.median(), wall_on.median(), 100.0 * share.median());
        result.set("telemetry.health.fold_share", share.median());
        result.set("telemetry.health.on_off_share", on_off);
        result.samples["telemetry.health.fold_share"] = share;
    } else {
        result.set("telemetry.recording_share", on_off);
    }
    result.samples["run() wall, 1 thread (s)"] = wall1;
    result.samples["run() wall, 2 threads (s)"] = wall2;
    result.samples["run() wall, recording on (s)"] = wall_on;
    result.samples["ground.contact.sweep_s"] = sweep;
    result.samples["ground.schedule_s"] = schedule;
    result.samples["sense.capture_s"] = capture;
    result.samples["sim.value_model_s"] = value;
    return result;
}

} // namespace

Result
runFleetContacts(const RunOptions &options)
{
    return options.trace ? traced(options, fleetScenario)
                         : endToEnd(options, fleetScenario);
}

Result
runMissionWorld(const RunOptions &options)
{
    return options.trace ? traced(options, worldScenario)
                         : endToEnd(options, worldScenario);
}

} // namespace perfbench
