/** @file Unit tests for Earth rotation and frame conversions. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "orbit/earth.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace kodan::orbit {
namespace {

using util::degToRad;
using util::kEarthRadius;

TEST(Gmst, ZeroAtEpoch)
{
    EXPECT_DOUBLE_EQ(gmst(0.0), 0.0);
}

TEST(Gmst, FullTurnPerSiderealDay)
{
    // One sidereal day later the rotation angle is back near 0 (mod 2pi).
    EXPECT_NEAR(util::wrapPi(gmst(util::kSiderealDay)), 0.0, 1e-4);
    EXPECT_NEAR(gmst(util::kSiderealDay / 2.0), util::kPi, 1e-4);
}

TEST(Frames, EciEcefRoundTrip)
{
    const Vec3 eci{7.0e6, -1.0e6, 2.0e6};
    for (double t : {0.0, 1234.5, 86400.0}) {
        const Vec3 back = ecefToEci(eciToEcef(eci, t), t);
        EXPECT_NEAR(back.x, eci.x, 1e-3);
        EXPECT_NEAR(back.y, eci.y, 1e-3);
        EXPECT_NEAR(back.z, eci.z, 1e-3);
    }
}

TEST(Frames, RotationPreservesNorm)
{
    const Vec3 eci{6.8e6, 1.2e6, -0.4e6};
    const Vec3 ecef = eciToEcef(eci, 5000.0);
    EXPECT_NEAR(ecef.norm(), eci.norm(), 1e-6);
}

TEST(Frames, ZAxisInvariant)
{
    const Vec3 pole{0.0, 0.0, 7.0e6};
    const Vec3 rotated = eciToEcef(pole, 12345.0);
    EXPECT_DOUBLE_EQ(rotated.z, pole.z);
    EXPECT_DOUBLE_EQ(rotated.x, 0.0);
}

TEST(Geodetic, RoundTripAtVariousLatitudes)
{
    for (double lat_deg : {-80.0, -45.0, 0.0, 30.0, 60.0, 89.0}) {
        for (double alt : {0.0, 500.0e3, 705.0e3}) {
            const Geodetic geo{degToRad(lat_deg), degToRad(17.0), alt};
            const Geodetic back = ecefToGeodetic(geodeticToEcef(geo));
            EXPECT_NEAR(back.latitude, geo.latitude, 1e-9);
            EXPECT_NEAR(back.longitude, geo.longitude, 1e-9);
            EXPECT_NEAR(back.altitude, geo.altitude, 1e-3);
        }
    }
}

/**
 * The fixed 8-step latitude iteration ecefToGeodetic's early exit must
 * reproduce bit for bit. @p lats receives the 9 latitude iterates.
 */
Geodetic
referenceGeodetic(const Vec3 &ecef, std::vector<double> *lats = nullptr)
{
    const double a = kEarthRadius;
    const double e2 = kWgs84Flattening * (2.0 - kWgs84Flattening);
    const double lon = std::atan2(ecef.y, ecef.x);
    const double p = std::sqrt(ecef.x * ecef.x + ecef.y * ecef.y);
    double lat = std::atan2(ecef.z, p * (1.0 - e2));
    double alt = 0.0;
    if (lats != nullptr) {
        lats->assign(1, lat);
    }
    for (int iter = 0; iter < 8; ++iter) {
        const double sin_lat = std::sin(lat);
        const double n = a / std::sqrt(1.0 - e2 * sin_lat * sin_lat);
        alt = p / std::cos(lat) - n;
        lat = std::atan2(ecef.z, p * (1.0 - e2 * n / (n + alt)));
        if (lats != nullptr) {
            lats->push_back(lat);
        }
    }
    return {lat, util::wrapPi(lon), alt};
}

void
expectBitEqual(const Geodetic &got, const Geodetic &want)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.latitude),
              std::bit_cast<std::uint64_t>(want.latitude));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.longitude),
              std::bit_cast<std::uint64_t>(want.longitude));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.altitude),
              std::bit_cast<std::uint64_t>(want.altitude));
}

TEST(Geodetic, EarlyExitMatchesFixedIterationBitForBit)
{
    util::Rng rng(21);
    for (int i = 0; i < 20000; ++i) {
        // Alternate ground/low-altitude points and LEO shells.
        const double radius = (i % 2 == 0)
                                  ? rng.uniform(6.35e6, 6.40e6)
                                  : rng.uniform(6.7e6, 7.3e6);
        const double lat = rng.uniform(-util::kPi / 2.0, util::kPi / 2.0);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        const Vec3 ecef{radius * std::cos(lat) * std::cos(lon),
                        radius * std::cos(lat) * std::sin(lon),
                        radius * std::sin(lat)};
        expectBitEqual(ecefToGeodetic(ecef), referenceGeodetic(ecef));
    }
    // Equator (z = +0 and -0) and the sub-satellite grid's edge cases.
    for (const Vec3 &ecef :
         {Vec3{kEarthRadius, 0.0, 0.0}, Vec3{7.0e6, 1.0e5, -0.0},
          Vec3{-6.9e6, -2.0e6, 0.0}, Vec3{1.0, 1.0, 6.4e6}}) {
        expectBitEqual(ecefToGeodetic(ecef), referenceGeodetic(ecef));
    }
}

TEST(Geodetic, TwoCycleInputRunsAllSteps)
{
    // A LEO position whose latitude iteration alternates between two
    // values instead of reaching a fixed point, so the early exit must
    // never trigger and all 8 steps run.
    const Vec3 ecef{-0x1.513a54c49a1b9p+19, -0x1.99f4ee0d9f4b9p+18,
                    -0x1.b1f46578a05c4p+22};
    std::vector<double> lats;
    const Geodetic want = referenceGeodetic(ecef, &lats);
    ASSERT_EQ(lats.size(), 9U);
    ASSERT_NE(lats[8], lats[7]) << "input no longer ends in a 2-cycle";
    ASSERT_EQ(lats[8], lats[6]) << "input no longer ends in a 2-cycle";
    expectBitEqual(ecefToGeodetic(ecef), want);
}

TEST(Geodetic, EquatorialPointOnXAxis)
{
    const Vec3 ecef = geodeticToEcef({0.0, 0.0, 0.0});
    EXPECT_NEAR(ecef.x, kEarthRadius, 1.0);
    EXPECT_NEAR(ecef.y, 0.0, 1e-6);
    EXPECT_NEAR(ecef.z, 0.0, 1e-6);
}

TEST(Geodetic, PolarRadiusIsSmaller)
{
    const Vec3 pole = geodeticToEcef({degToRad(90.0), 0.0, 0.0});
    // WGS-84 polar radius ~6356.75 km.
    EXPECT_NEAR(pole.norm() / 1.0e3, 6356.75, 1.0);
}

TEST(GreatCircle, KnownAngles)
{
    const Geodetic a{0.0, 0.0, 0.0};
    const Geodetic b{0.0, degToRad(90.0), 0.0};
    EXPECT_NEAR(greatCircleAngle(a, b), util::kPi / 2.0, 1e-12);
    EXPECT_NEAR(greatCircleAngle(a, a), 0.0, 1e-6);
    const Geodetic antipode{0.0, degToRad(180.0), 0.0};
    EXPECT_NEAR(greatCircleAngle(a, antipode), util::kPi, 1e-6);
}

TEST(Elevation, ZenithIsNinetyDegrees)
{
    const Vec3 site = geodeticToEcef({degToRad(40.0), degToRad(-100.0), 0.0});
    const Vec3 overhead = site * ((site.norm() + 500.0e3) / site.norm());
    EXPECT_NEAR(util::radToDeg(elevationAngle(site, overhead)), 90.0, 0.5);
}

TEST(Elevation, OppositeSideIsBelowHorizon)
{
    const Vec3 site = geodeticToEcef({0.0, 0.0, 0.0});
    const Vec3 opposite =
        geodeticToEcef({0.0, degToRad(180.0), 705.0e3});
    EXPECT_LT(elevationAngle(site, opposite), 0.0);
}

TEST(Elevation, HorizonGeometry)
{
    // A satellite at 705 km is above the 10-degree mask only within
    // ~2000 km ground distance; check the sign flips with distance.
    const Vec3 site = geodeticToEcef({0.0, 0.0, 0.0});
    const Vec3 near_sat = geodeticToEcef({0.0, degToRad(5.0), 705.0e3});
    const Vec3 far_sat = geodeticToEcef({0.0, degToRad(40.0), 705.0e3});
    EXPECT_GT(elevationAngle(site, near_sat), degToRad(10.0));
    EXPECT_LT(elevationAngle(site, far_sat), 0.0);
}

} // namespace
} // namespace kodan::orbit
