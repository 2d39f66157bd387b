/**
 * @file
 * Property tests for the constellation-scale ground segment: the
 * incremental event-queue scheduler against the brute-force rescan
 * oracle over randomized contact patterns, chunked (streaming) span
 * allocation against the one-shot path, and the satellite-major contact
 * sweep against a fixed-grid, plain-bisection oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ground/contact.hpp"
#include "ground/downlink.hpp"
#include "ground/station.hpp"
#include "orbit/earth.hpp"
#include "orbit/elements.hpp"
#include "orbit/propagator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace kodan::ground {
namespace {

/**
 * Random overlapping contact pattern: bursts of visibility with varied
 * durations and frequent multi-satellite contention at each station.
 */
std::vector<ContactWindow>
randomWindows(util::Rng &rng, std::size_t sats, std::size_t stations,
              double horizon)
{
    std::vector<ContactWindow> windows;
    for (std::size_t s = 0; s < sats; ++s) {
        for (std::size_t g = 0; g < stations; ++g) {
            double t = rng.uniform(0.0, 900.0);
            while (t < horizon) {
                const double duration = rng.uniform(30.0, 900.0);
                windows.push_back(
                    {g, s, t, std::min(t + duration, horizon)});
                t += duration + rng.uniform(60.0, 2400.0);
            }
        }
    }
    // Feed the scheduler in a scrambled order: results must not depend
    // on the window list order beyond the documented scan-order
    // tie-break, which both implementations share.
    const auto perm = rng.permutation(windows.size());
    std::vector<ContactWindow> shuffled(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
        shuffled[i] = windows[perm[i]];
    }
    return shuffled;
}

void
expectAllocationsIdentical(const GroundSegmentScheduler::Allocation &a,
                           const GroundSegmentScheduler::Allocation &b)
{
    ASSERT_EQ(a.seconds_per_satellite.size(),
              b.seconds_per_satellite.size());
    for (std::size_t s = 0; s < a.seconds_per_satellite.size(); ++s) {
        EXPECT_EQ(a.seconds_per_satellite[s], b.seconds_per_satellite[s])
            << "seconds diverge for satellite " << s;
        EXPECT_EQ(a.passes_per_satellite[s], b.passes_per_satellite[s])
            << "passes diverge for satellite " << s;
        ASSERT_EQ(a.intervals_per_satellite[s].size(),
                  b.intervals_per_satellite[s].size())
            << "interval count diverges for satellite " << s;
        for (std::size_t i = 0; i < a.intervals_per_satellite[s].size();
             ++i) {
            const auto &ia = a.intervals_per_satellite[s][i];
            const auto &ib = b.intervals_per_satellite[s][i];
            EXPECT_EQ(ia.station, ib.station);
            EXPECT_EQ(ia.start, ib.start);
            EXPECT_EQ(ia.end, ib.end);
        }
    }
    EXPECT_EQ(a.busy_station_seconds, b.busy_station_seconds);
    EXPECT_EQ(a.idle_station_seconds, b.idle_station_seconds);
}

class SchedulerOracleProps : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerOracleProps, IncrementalMatchesRescan)
{
    util::Rng rng(0xC0117AC7ULL + GetParam());
    const std::size_t sats = 1 + rng.uniformInt(0, 11);
    const std::size_t stations = 1 + rng.uniformInt(0, 4);
    const double horizon = rng.uniform(6.0, 48.0) * 3600.0;
    const auto windows = randomWindows(rng, sats, stations, horizon);
    const GroundSegmentScheduler scheduler(10.0,
                                           rng.uniform(0.0, 480.0));
    const auto fast =
        scheduler.allocate(windows, sats, stations, 0.0, horizon);
    const auto oracle =
        scheduler.allocateRescan(windows, sats, stations, 0.0, horizon);
    expectAllocationsIdentical(fast, oracle);
}

TEST_P(SchedulerOracleProps, ChunkedSpansMatchOneShot)
{
    util::Rng seeded(0x5EA7ULL * 131 + GetParam());
    const std::size_t sats = 1 + seeded.uniformInt(0, 7);
    const std::size_t stations = 1 + seeded.uniformInt(0, 3);
    const double horizon = 24.0 * 3600.0;
    const auto windows = randomWindows(seeded, sats, stations, horizon);
    const GroundSegmentScheduler scheduler(10.0, 240.0);
    const auto one_shot =
        scheduler.allocate(windows, sats, stations, 0.0, horizon);

    // Stream the same windows through span chunks on the step grid,
    // passing each chunk only the windows overlapping it (the streaming
    // driver's contract).
    const double chunk = 3600.0;
    auto state = scheduler.beginAllocation(sats, stations, 0.0);
    for (double t = 0.0; t < horizon; t += chunk) {
        const double t_end = std::min(t + chunk, horizon);
        std::vector<ContactWindow> overlap;
        for (const auto &w : windows) {
            if (w.end > t && w.start < t_end) {
                overlap.push_back(w);
            }
        }
        scheduler.allocateSpan(overlap, t_end, state);
    }
    const auto chunked = scheduler.finishAllocation(std::move(state));
    expectAllocationsIdentical(chunked, one_shot);
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, SchedulerOracleProps,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Satellite-major contact sweep vs the fixed-grid bisection oracle.

/** Margin above the mask via the full state (position and velocity). */
double
referenceMargin(const orbit::J2Propagator &sat, const GroundStation &station,
                double t)
{
    const orbit::Vec3 sat_ecef =
        orbit::eciToEcef(sat.stateAt(t).position, t);
    return orbit::elevationAngle(station.ecef(), sat_ecef) -
           station.min_elevation;
}

double
referenceCrossing(const orbit::J2Propagator &sat,
                  const GroundStation &station, double lo, double hi,
                  bool rising)
{
    for (int iter = 0; iter < 40; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if ((referenceMargin(sat, station, mid) >= 0.0) == rising) {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo < 1.0e-3) {
            break;
        }
    }
    return 0.5 * (lo + hi);
}

/** Every grid sample propagated, every crossing bisected 40 steps. */
std::vector<ContactWindow>
referenceFind(const orbit::J2Propagator &sat, const GroundStation &station,
              double step, double t0, double t1)
{
    std::vector<ContactWindow> windows;
    bool in_window = referenceMargin(sat, station, t0) >= 0.0;
    double start = t0;
    for (double t = t0 + step; t < t1 + step; t += step) {
        const double t_clamped = std::min(t, t1);
        const bool above = referenceMargin(sat, station, t_clamped) >= 0.0;
        if (above != in_window) {
            const double edge = referenceCrossing(
                sat, station, t_clamped - step, t_clamped, above);
            if (above) {
                start = edge;
            } else {
                windows.push_back({0, 0, std::max(start, t0),
                                   std::min(edge, t1)});
            }
            in_window = above;
        }
        if (t_clamped >= t1) {
            break;
        }
    }
    if (in_window) {
        windows.push_back({0, 0, std::max(start, t0), t1});
    }
    return windows;
}

std::vector<ContactWindow>
referenceFindAll(const std::vector<orbit::J2Propagator> &sats,
                 const std::vector<GroundStation> &stations, double step,
                 double t0, double t1)
{
    std::vector<ContactWindow> all;
    for (std::size_t s = 0; s < sats.size(); ++s) {
        for (std::size_t g = 0; g < stations.size(); ++g) {
            for (auto w : referenceFind(sats[s], stations[g], step, t0, t1)) {
                w.satellite = s;
                w.station = g;
                all.push_back(w);
            }
        }
    }
    std::sort(all.begin(), all.end(),
              [](const ContactWindow &a, const ContactWindow &b) {
                  return a.start < b.start;
              });
    return all;
}

void
expectWindowsIdentical(const std::vector<ContactWindow> &a,
                       const std::vector<ContactWindow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].satellite, b[i].satellite);
        EXPECT_EQ(a[i].station, b[i].station);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].end, b[i].end);
    }
}

void
expectPairMatchesOracle(const orbit::J2Propagator &sat,
                        const GroundStation &station, double step,
                        double t0, double t1)
{
    const ContactFinder finder(step);
    expectWindowsIdentical(finder.find(sat, station, t0, t1),
                           referenceFind(sat, station, step, t0, t1));
}

GroundStation
siteAt(double lat_deg, double lon_deg, double mask_deg)
{
    GroundStation station;
    station.location = {util::degToRad(lat_deg), util::degToRad(lon_deg),
                        0.0};
    station.min_elevation = util::degToRad(mask_deg);
    return station;
}

orbit::OrbitalElements
leoElements(double eccentricity, double raan, double mean_anomaly)
{
    orbit::OrbitalElements elems;
    elems.semi_major_axis = util::kEarthRadius + 705.0e3;
    elems.eccentricity = eccentricity;
    elems.inclination = orbit::sunSynchronousInclination(705.0e3);
    elems.raan = raan;
    elems.arg_perigee = 0.7;
    elems.mean_anomaly = mean_anomaly;
    return elems;
}

TEST(ContactSweepProps, WalkerSsoMatchesOraclePerPair)
{
    const auto elements = orbit::walkerConstellation(
        6, 3, 1, 705.0e3, orbit::sunSynchronousInclination(705.0e3));
    for (const auto &elems : elements) {
        const orbit::J2Propagator sat(elems);
        for (const auto &station : landsatGroundSegment()) {
            expectPairMatchesOracle(sat, station, 30.0, 0.0,
                                    2.0 * 86400.0);
        }
    }
}

TEST(ContactSweepProps, FleetMatchesOracleAtEveryScanStep)
{
    std::vector<orbit::J2Propagator> sats;
    for (const auto &elems :
         orbit::sunSynchronousConstellation(100, 10, 1, 705.0e3)) {
        sats.emplace_back(elems);
    }
    const auto stations = globalGroundSegment();
    const double horizon = 0.5 * 86400.0;
    for (const double step : {30.0, 60.0, 120.0}) {
        const ContactFinder finder(step);
        const auto oracle =
            referenceFindAll(sats, stations, step, 0.0, horizon);
        expectWindowsIdentical(finder.findAll(sats, stations, 0.0, horizon),
                               oracle);
        util::setGlobalThreads(4);
        expectWindowsIdentical(
            finder.findAllParallel(sats, stations, 0.0, horizon), oracle);
        util::setGlobalThreads(0);
    }
}

TEST(ContactSweepProps, EccentricOrbitsMatchOracle)
{
    for (const double e : {0.001, 0.01, 0.05}) {
        for (int k = 0; k < 3; ++k) {
            const orbit::J2Propagator sat(
                leoElements(e, 0.9 * k, 2.1 * k + 0.3));
            for (const auto &station : landsatGroundSegment()) {
                for (const double step : {30.0, 120.0}) {
                    expectPairMatchesOracle(sat, station, step, 0.0,
                                            86400.0);
                }
            }
        }
    }
}

TEST(ContactSweepProps, MasksAndSiteLatitudesMatchOracle)
{
    const orbit::J2Propagator polar_orbit(leoElements(0.001, 0.4, 1.0));
    orbit::OrbitalElements low = leoElements(0.001, 0.4, 1.0);
    low.inclination = util::degToRad(20.0);
    const orbit::J2Propagator low_orbit(low);
    for (const double mask : {0.0, 5.0, 10.0, 30.0}) {
        for (const auto &station :
             {siteAt(89.0, 40.0, mask), siteAt(0.0, -60.0, mask)}) {
            for (const auto *sat : {&polar_orbit, &low_orbit}) {
                for (const double step : {30.0, 60.0, 120.0}) {
                    expectPairMatchesOracle(*sat, station, step, 0.0,
                                            2.0 * 86400.0);
                }
            }
        }
    }
}

TEST(ContactSweepProps, ChunkEdgesInsideWindowsMatchOracle)
{
    const orbit::J2Propagator sat(leoElements(0.001, 0.2, 0.5));
    const auto station = landsatGroundSegment()[2];
    const auto windows = referenceFind(sat, station, 30.0, 0.0, 86400.0);
    ASSERT_GE(windows.size(), 4u);
    for (std::size_t i = 0; i + 2 < windows.size(); ++i) {
        // Cut through the middle of one window and near the tail of a
        // later one, off the coarse grid.
        const double t0 = windows[i].start + 0.37 * windows[i].duration();
        const double t1 =
            windows[i + 2].start + 0.91 * windows[i + 2].duration();
        for (const double step : {30.0, 60.0, 120.0}) {
            expectPairMatchesOracle(sat, station, step, t0, t1);
        }
    }
    // Zero-length chunk inside a window.
    const double mid = windows[1].start + 0.5 * windows[1].duration();
    expectPairMatchesOracle(sat, station, 30.0, mid, mid);
}

TEST(ContactSweepProps, GrazingPassesMatchOracle)
{
    const orbit::J2Propagator sat(leoElements(0.001, 1.3, 2.0));
    GroundStation station = landsatGroundSegment()[0];
    const auto windows = referenceFind(sat, station, 30.0, 0.0, 86400.0);
    ASSERT_GE(windows.size(), 3u);
    const double mask = station.min_elevation;
    for (const auto &w : windows) {
        // Peak of the pass by golden-section search.
        const double phi = 0.5 * (std::sqrt(5.0) - 1.0);
        double a = w.start;
        double b = w.end;
        for (int iter = 0; iter < 80; ++iter) {
            const double c = b - phi * (b - a);
            const double d = a + phi * (b - a);
            if (referenceMargin(sat, station, c) >
                referenceMargin(sat, station, d)) {
                b = d;
            } else {
                a = c;
            }
        }
        const double t_peak = 0.5 * (a + b);
        for (const double step : {30.0, 120.0}) {
            // Put a grid sample on the peak, then raise the mask to just
            // below that sample's elevation.
            const double t0 = t_peak - 7.0 * step;
            double t_sample = t0;
            for (int k = 0; k < 7; ++k) {
                t_sample += step;
            }
            for (const double clearance : {1.0e-7, 1.0e-9}) {
                station.min_elevation = mask;
                const double elevation =
                    referenceMargin(sat, station, t_sample) + mask;
                station.min_elevation = elevation - clearance;
                ASSERT_LE(referenceMargin(sat, station, t_peak), 1.0e-6);
                const auto oracle = referenceFind(sat, station, step, t0,
                                                  t0 + 14.0 * step);
                ASSERT_EQ(oracle.size(), 1u);
                expectPairMatchesOracle(sat, station, step, t0,
                                        t0 + 14.0 * step);
            }
        }
    }
}

TEST(ContactSweepProps, ParallelSweepMatchesSerialAtAnyThreadCount)
{
    const auto stations = sparseGroundSegment();
    std::vector<orbit::J2Propagator> sats;
    for (const auto &elems : orbit::walkerConstellation(
             8, 2, 1, 705.0e3,
             orbit::sunSynchronousInclination(705.0e3))) {
        sats.emplace_back(elems);
    }
    const ContactFinder finder(30.0);
    const auto serial = finder.findAll(sats, stations, 0.0, 86400.0);
    for (const int threads : {1, 4, 16}) {
        util::setGlobalThreads(threads);
        const auto parallel =
            finder.findAllParallel(sats, stations, 0.0, 86400.0);
        expectWindowsIdentical(parallel, serial);
    }
    util::setGlobalThreads(0);
}

} // namespace
} // namespace kodan::ground
