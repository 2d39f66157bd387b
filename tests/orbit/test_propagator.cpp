/** @file Unit tests for the J2 propagator. */

#include <gtest/gtest.h>

#include <cmath>

#include "orbit/earth.hpp"
#include "orbit/elements.hpp"
#include "orbit/propagator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace kodan::orbit {
namespace {

using util::degToRad;
using util::kEarthMu;
using util::kEarthRadius;

TEST(J2Propagator, CircularOrbitKeepsRadius)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    const double expected = kEarthRadius + 705.0e3;
    for (double t = 0.0; t < 6000.0; t += 500.0) {
        EXPECT_NEAR(sat.stateAt(t).position.norm(), expected, 1.0);
    }
}

TEST(J2Propagator, VelocityMatchesVisViva)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    const auto state = sat.stateAt(1000.0);
    const double r = state.position.norm();
    const double v_expected = std::sqrt(kEarthMu / r);
    EXPECT_NEAR(state.velocity.norm(), v_expected, v_expected * 0.01);
}

TEST(J2Propagator, VelocityIsTangential)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    const auto state = sat.stateAt(2500.0);
    const double radial =
        state.position.normalized().dot(state.velocity);
    EXPECT_NEAR(radial, 0.0, 1.0); // m/s, tiny for a circular orbit
}

TEST(J2Propagator, ReturnsNearStartAfterOnePeriod)
{
    const auto elems = OrbitalElements::circularLeo(705.0e3, degToRad(98.2));
    const J2Propagator sat(elems);
    const double period = util::kTwoPi / sat.meanMotion();
    const auto p0 = sat.stateAt(0.0).position;
    const auto p1 = sat.stateAt(period).position;
    // J2 precession moves the plane slightly; tolerance is a few km.
    EXPECT_NEAR((p1 - p0).norm(), 0.0, 50.0e3);
}

TEST(J2Propagator, SunSyncRaanRateIsOneDegreePerDay)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    const double deg_per_day =
        util::radToDeg(sat.raanRate()) * util::kSecondsPerDay;
    EXPECT_NEAR(deg_per_day, 0.9856, 0.02);
}

TEST(J2Propagator, ProgradeOrbitRegresses)
{
    // A 51.6-degree ISS-like orbit must have westward (negative) RAAN
    // drift.
    const J2Propagator sat(
        OrbitalElements::circularLeo(420.0e3, degToRad(51.6)));
    EXPECT_LT(sat.raanRate(), 0.0);
}

TEST(J2Propagator, GroundTrackSpeedNearSevenKmPerSecond)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    EXPECT_NEAR(sat.groundTrackSpeed(), 6760.0, 100.0);
}

TEST(J2Propagator, SubsatellitePointReachesHighLatitudes)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    double max_lat = 0.0;
    for (double t = 0.0; t < 6000.0; t += 30.0) {
        max_lat = std::max(max_lat,
                           std::fabs(sat.subsatellitePoint(t).latitude));
    }
    // Near-polar orbit: |lat| reaches ~81.8 deg (180 - 98.2).
    EXPECT_GT(util::radToDeg(max_lat), 80.0);
    EXPECT_LT(util::radToDeg(max_lat), 83.0);
}

TEST(J2Propagator, PhasedSatellitesAreSeparated)
{
    const J2Propagator a(OrbitalElements::landsat8(0.0, 0.0));
    const J2Propagator b(OrbitalElements::landsat8(0.0, util::kPi));
    const auto pa = a.stateAt(0.0).position;
    const auto pb = b.stateAt(0.0).position;
    // Opposite sides of the orbit: separation ~ 2 * (Re + h).
    EXPECT_NEAR((pa - pb).norm(), 2.0 * (kEarthRadius + 705.0e3), 50.0e3);
}

TEST(J2Propagator, NodalPeriodCloseToKeplerian)
{
    const J2Propagator sat(OrbitalElements::landsat8());
    const double keplerian = OrbitalElements::landsat8().period();
    EXPECT_NEAR(sat.nodalPeriod(), keplerian, keplerian * 0.01);
}

TEST(J2Propagator, EccentricOrbitRadiusVaries)
{
    OrbitalElements elems =
        OrbitalElements::circularLeo(705.0e3, degToRad(98.2));
    elems.eccentricity = 0.01;
    const J2Propagator sat(elems);
    const double a = elems.semi_major_axis;
    double min_r = 1e12;
    double max_r = 0.0;
    const double period = util::kTwoPi / sat.meanMotion();
    for (double t = 0.0; t < period; t += period / 64.0) {
        const double r = sat.stateAt(t).position.norm();
        min_r = std::min(min_r, r);
        max_r = std::max(max_r, r);
    }
    EXPECT_NEAR(min_r, a * 0.99, a * 1e-3);
    EXPECT_NEAR(max_r, a * 1.01, a * 1e-3);
}

/**
 * Position from epoch elements and secular rates, written out as one
 * expression chain: pins the propagator's floating-point operations
 * and their order.
 */
Vec3
referencePositionEcef(const J2Propagator &sat, double t)
{
    const OrbitalElements &el = sat.elements();
    const double a = el.semi_major_axis;
    const double e = el.eccentricity;
    const double mean_anom =
        util::wrapTwoPi(el.mean_anomaly + sat.meanMotion() * t);
    const double raan = util::wrapTwoPi(el.raan + sat.raanRate() * t);
    const double argp =
        util::wrapTwoPi(el.arg_perigee + sat.argPerigeeRate() * t);
    const double e_anom = solveKepler(mean_anom, e);
    const double x_pf = a * (std::cos(e_anom) - e);
    const double y_pf = a * std::sqrt(1.0 - e * e) * std::sin(e_anom);
    const double cr = std::cos(raan);
    const double sr = std::sin(raan);
    const double ci = std::cos(el.inclination);
    const double si = std::sin(el.inclination);
    const double ca = std::cos(argp);
    const double sa = std::sin(argp);
    const Vec3 eci{(cr * ca - sr * sa * ci) * x_pf +
                       (-cr * sa - sr * ca * ci) * y_pf,
                   (sr * ca + cr * sa * ci) * x_pf +
                       (-sr * sa + cr * ca * ci) * y_pf,
                   (sa * si) * x_pf + (ca * si) * y_pf};
    return eciToEcef(eci, t);
}

TEST(J2Propagator, PositionEcefIsBitEqualToFullState)
{
    // The position-only path must round exactly like the full state,
    // and both like the reference expression chain.
    util::Rng rng(0x0E11A5EDULL);
    for (int orbit = 0; orbit < 64; ++orbit) {
        OrbitalElements elems;
        elems.semi_major_axis =
            kEarthRadius + rng.uniform(300.0e3, 36000.0e3);
        elems.eccentricity = rng.uniform(0.0, 0.3);
        elems.inclination = rng.uniform(0.0, util::kPi);
        elems.raan = rng.uniform(0.0, util::kTwoPi);
        elems.arg_perigee = rng.uniform(0.0, util::kTwoPi);
        elems.mean_anomaly = rng.uniform(0.0, util::kTwoPi);
        if (elems.semi_major_axis * (1.0 - elems.eccentricity) <=
            kEarthRadius) {
            elems.eccentricity = 0.0;
        }
        const J2Propagator sat(elems);
        for (int i = 0; i < 64; ++i) {
            // Times up to ten years, plus the epoch and negative times.
            const double t = i == 0 ? 0.0
                             : i == 1
                                 ? -rng.uniform(0.0, 1.0e6)
                                 : rng.uniform(0.0, 1.0) *
                                       std::pow(10.0, rng.uniform(0.0, 8.5));
            const Vec3 fast = sat.positionEcef(t);
            const Vec3 full = eciToEcef(sat.stateAt(t).position, t);
            const Vec3 ref = referencePositionEcef(sat, t);
            EXPECT_EQ(fast.x, full.x) << "orbit " << orbit << " t " << t;
            EXPECT_EQ(fast.y, full.y) << "orbit " << orbit << " t " << t;
            EXPECT_EQ(fast.z, full.z) << "orbit " << orbit << " t " << t;
            EXPECT_EQ(fast.x, ref.x) << "orbit " << orbit << " t " << t;
            EXPECT_EQ(fast.y, ref.y) << "orbit " << orbit << " t " << t;
            EXPECT_EQ(fast.z, ref.z) << "orbit " << orbit << " t " << t;
        }
    }
}

} // namespace
} // namespace kodan::orbit
