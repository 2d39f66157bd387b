/** @file Unit tests for the noise fields. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/noise.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace kodan::util {
namespace {

TEST(ValueNoise, Deterministic)
{
    ValueNoise a(99);
    ValueNoise b(99);
    EXPECT_DOUBLE_EQ(a.at(1.5, 2.5, 0.5), b.at(1.5, 2.5, 0.5));
}

TEST(ValueNoise, SeedChangesField)
{
    ValueNoise a(1);
    ValueNoise b(2);
    EXPECT_NE(a.at(1.5, 2.5), b.at(1.5, 2.5));
}

TEST(ValueNoise, StaysInUnitInterval)
{
    ValueNoise noise(3);
    for (double x = -5.0; x < 5.0; x += 0.37) {
        for (double y = -5.0; y < 5.0; y += 0.41) {
            const double v = noise.at(x, y, 0.1 * x);
            ASSERT_GE(v, 0.0);
            ASSERT_LE(v, 1.0);
        }
    }
}

TEST(ValueNoise, IsContinuous)
{
    ValueNoise noise(4);
    const double eps = 1.0e-4;
    for (double x = 0.0; x < 3.0; x += 0.21) {
        const double v0 = noise.at(x, 1.3);
        const double v1 = noise.at(x + eps, 1.3);
        ASSERT_NEAR(v0, v1, 1.0e-2);
    }
}

TEST(ValueNoise, InterpolatesLatticeValues)
{
    ValueNoise noise(5);
    // At integer lattice points the value equals the cell hash.
    EXPECT_NEAR(noise.at(2.0, 3.0, 4.0), noise.cellValue(2, 3, 4), 1e-12);
}

/**
 * ValueNoise::at written out from its definition: a trilinear blend of
 * the 8 surrounding cellValue corners with quintic-smoothstep weights.
 */
double
referenceValueNoise(const ValueNoise &noise, double x, double y, double z)
{
    const auto smooth = [](double t) {
        return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
    };
    const auto lerp = [](double a, double b, double t) {
        return a + (b - a) * t;
    };
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const double fz = std::floor(z);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const auto iz = static_cast<std::int64_t>(fz);
    const double tx = smooth(x - fx);
    const double ty = smooth(y - fy);
    const double tz = smooth(z - fz);
    const auto c = [&](int dx, int dy, int dz) {
        return noise.cellValue(ix + dx, iy + dy, iz + dz);
    };
    const double x00 = lerp(c(0, 0, 0), c(1, 0, 0), tx);
    const double x10 = lerp(c(0, 1, 0), c(1, 1, 0), tx);
    const double x01 = lerp(c(0, 0, 1), c(1, 0, 1), tx);
    const double x11 = lerp(c(0, 1, 1), c(1, 1, 1), tx);
    return lerp(lerp(x00, x10, ty), lerp(x01, x11, ty), tz);
}

TEST(ValueNoise, SharedCornerHashesMatchCellValueLerp)
{
    ValueNoise noise(0x5eed);
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        // Negative, small, and large coordinates (lattice indices far
        // from zero exercise the full 64-bit hash multiply).
        const double scale = (i % 3 == 0) ? 1.0e9 : (i % 3 == 1) ? 50.0 : 2.0;
        const double x = rng.uniform(-scale, scale);
        const double y = rng.uniform(-scale, scale);
        const double z = rng.uniform(-scale, scale);
        ASSERT_EQ(noise.at(x, y, z), referenceValueNoise(noise, x, y, z))
            << x << ", " << y << ", " << z;
    }
    EXPECT_EQ(noise.at(-0.5, -1.0e6 + 0.25, -3.75),
              referenceValueNoise(noise, -0.5, -1.0e6 + 0.25, -3.75));
}

TEST(ValueNoise, GoldenValues)
{
    // Pinned outputs of the seed's field; any bit drift in the hash or
    // the interpolation fails here rather than only in the figure
    // baselines.
    ValueNoise noise(5);
    EXPECT_EQ(noise.at(-3.7, -1e6 + 0.25, 7.5), 0x1.1b901e733dfb5p-1);
    EXPECT_EQ(noise.at(1e9 + 0.5, -2.25, -0.125), 0x1.bda334a832688p-3);
    EXPECT_EQ(noise.at(0.5, 0.5, 0.5), 0x1.70a98eccf7a54p-2);
}

// --- kValueNoisePad: the rounded range of ValueNoise::at ----------------
//
// Exactly, the quintic weight lies in [0, 1] and ValueNoise::at in the
// hull of its corners. Rounded, the weight exceeds 1 just below t = 1, so
// a lerp can overshoot a corner; early exits that bound an octave by
// [0, 1] would be wrong. The padded range bounds every rounded value.

/** Where ValueNoise::smooth overshoots 1 the most in a scan below 1. */
double
mostOvershootingWeight()
{
    double best_t = std::nextafter(1.0, 0.0);
    Rng rng(20);
    for (int i = 0; i < 200000; ++i) {
        const double t = 1.0 - 4.0e-6 * rng.uniform();
        if (t < 1.0 && ValueNoise::smooth(t) > ValueNoise::smooth(best_t)) {
            best_t = t;
        }
    }
    return best_t;
}

TEST(ValueNoise, SmoothExceedsOneJustBelowOne)
{
    EXPECT_GT(ValueNoise::smooth(std::nextafter(1.0, 0.0)), 1.0);
    EXPECT_EQ(ValueNoise::smooth(0.0), 0.0);
    EXPECT_EQ(ValueNoise::smooth(1.0), 1.0);
    // The worst overshoot a dense scan below 1 finds is a few ulp, far
    // inside the padding.
    const double worst = ValueNoise::smooth(mostOvershootingWeight());
    EXPECT_GT(worst, 1.0);
    EXPECT_LT(worst - 1.0, kValueNoisePad / 64.0);
}

TEST(ValueNoise, RoundedValuesStayInsidePaddedRange)
{
    const double lo = -kValueNoisePad;
    const double hi = 1.0 + kValueNoisePad;
    // Random coordinates at every scale the fields use.
    ValueNoise noise(0x5eed);
    Rng rng(21);
    for (int i = 0; i < 1000000; ++i) {
        const double scale = (i % 3 == 0) ? 1.0e3 : (i % 3 == 1) ? 50.0 : 2.0;
        const double v = noise.at(rng.uniform(-scale, scale),
                                  rng.uniform(-scale, scale),
                                  rng.uniform(-scale, scale));
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
    }
    // Adversarial: the cells whose corners spread the most along x,
    // sampled where the weight overshoots 1 the most, so the lerps
    // extrapolate past a corner on every axis.
    const double t = mostOvershootingWeight();
    int past_corner = 0;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        const ValueNoise field(seed);
        for (std::int64_t ix = -8; ix < 8; ++ix) {
            const double a = field.cellValue(ix, 0, 0);
            const double b = field.cellValue(ix + 1, 0, 0);
            if (std::fabs(b - a) < 0.9) {
                continue;
            }
            const double x = static_cast<double>(ix) + t;
            for (const double yz : {0.0, t}) {
                const double v = field.at(x, yz, yz);
                ASSERT_GE(v, lo);
                ASSERT_LE(v, hi);
            }
            // On the lattice edge (y = z = 0) the value is lerp(a, b,
            // smooth(t)): past b, by the overshoot of the weight.
            const double edge = field.at(x, 0.0, 0.0);
            past_corner += (b > a ? edge > b : edge < b) ? 1 : 0;
        }
    }
    EXPECT_GT(past_corner, 0);
    // The worst corners the hash can produce, through at()'s three lerp
    // levels at that weight: 0 and the largest value below 1 alternating
    // along every axis. This is the bound's derivation in numbers.
    const double w = ValueNoise::smooth(t);
    const auto lerp = [](double p, double q, double s) {
        return p + (q - p) * s;
    };
    const double top = std::nextafter(1.0, 0.0);
    for (const double c0 : {0.0, top}) {
        const double c1 = top - c0;
        const double x0 = lerp(c0, c1, w);
        const double x1 = lerp(c1, c0, w);
        const double y0 = lerp(x0, x1, w);
        const double y1 = lerp(x1, x0, w);
        const double v = lerp(y0, y1, w);
        EXPECT_GE(v, lo);
        EXPECT_LE(v, hi);
        EXPECT_TRUE(v < 0.0 || v > top) << "extrapolates past the hull";
    }
}

TEST(ValueNoise, VariesAcrossSpace)
{
    ValueNoise noise(6);
    double min_v = 1.0;
    double max_v = 0.0;
    for (double x = 0.0; x < 20.0; x += 0.5) {
        const double v = noise.at(x, 0.7 * x);
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
    }
    EXPECT_GT(max_v - min_v, 0.3);
}

TEST(FbmNoise, StaysInUnitInterval)
{
    FbmNoise fbm(7, 5);
    for (double x = -3.0; x < 3.0; x += 0.29) {
        const double v = fbm.at(x, -x, 0.0);
        ASSERT_GE(v, 0.0);
        ASSERT_LE(v, 1.0);
    }
}

TEST(FbmNoise, OctaveTermsSumToAtBitForBit)
{
    for (const FbmNoise &fbm : {FbmNoise(11, 1), FbmNoise(12, 4),
                                FbmNoise(13, 5, 2.1, 0.45)}) {
        Rng rng(22);
        for (int i = 0; i < 2000; ++i) {
            const double x = rng.uniform(-700.0, 700.0);
            const double y = rng.uniform(-700.0, 700.0);
            const double z = rng.uniform(-700.0, 700.0);
            double sum = 0.0;
            for (int k = 0; k < fbm.octaves(); ++k) {
                sum += fbm.amplitude(k) * fbm.octave(k, x, y, z);
            }
            ASSERT_EQ(sum * fbm.norm(), fbm.at(x, y, z));
            // The padded range bounds every continuation of a partial
            // sum: after octave 0, the remaining octaves land between
            // the two extensions.
            const double first = fbm.amplitude(0) * fbm.octave(0, x, y, z);
            ASSERT_GE(sum, fbm.extendSum(first, 1, -kValueNoisePad));
            ASSERT_LE(sum, fbm.extendSum(first, 1, 1.0 + kValueNoisePad));
        }
    }
}

TEST(FbmNoise, MoreOctavesAddDetail)
{
    FbmNoise coarse(8, 1);
    FbmNoise fine(8, 6);
    // Fine field must differ from the single-octave base field.
    double diff = 0.0;
    for (double x = 0.0; x < 5.0; x += 0.11) {
        diff += std::fabs(coarse.at(x, 1.0) - fine.at(x, 1.0));
    }
    EXPECT_GT(diff, 0.1);
}

TEST(SphericalFbm, ContinuousAcrossAntimeridian)
{
    SphericalFbm field(9, 4, 10.0);
    const double lat = degToRad(25.0);
    const double west = field.at(lat, degToRad(179.999));
    const double east = field.at(lat, degToRad(-179.999));
    EXPECT_NEAR(west, east, 1.0e-3);
}

TEST(SphericalFbm, WellDefinedAtPoles)
{
    SphericalFbm field(10, 4, 10.0);
    const double north1 = field.at(degToRad(89.9999), 0.0);
    const double north2 = field.at(degToRad(89.9999), degToRad(120.0));
    EXPECT_NEAR(north1, north2, 1.0e-2);
}

TEST(SphericalFbm, GoldenValues)
{
    SphericalFbm field(9, 4, 10.0);
    EXPECT_EQ(field.at(0.3, 0.4, 0.0), 0x1.39af5973e87e4p-1);
    EXPECT_EQ(field.at(-1.2, 2.9, 5.0), 0x1.7707b864553aap-2);
    EXPECT_EQ(field.at(1.5707953, -3.1415, 123.4), 0x1.65c3823882303p-2);
    EXPECT_EQ(field.at(0.0, 0.0, 0.0), 0x1.3b15844837492p-1);
    EXPECT_EQ(field.at(-0.7, -1.9, 1e4), 0x1.11fcd93a18a27p-1);
}

TEST(SphericalFbm, TrigEntryPointMatchesAnglesBitForBit)
{
    SphericalFbm field(13, 4, 650.0);
    Rng rng(18);
    for (int i = 0; i < 2000; ++i) {
        const double lat = rng.uniform(-kPi / 2.0, kPi / 2.0);
        const double lon = rng.uniform(-7.0, 7.0);
        const double time = rng.uniform(0.0, 100.0);
        const SphereTrig dir = SphereTrig::of(lat, lon);
        ASSERT_EQ(field.at(dir, time), field.at(lat, lon, time));
        ASSERT_EQ(field.at(dir.withLat(lat * 0.5), time),
                  field.at(lat * 0.5, lon, time));
        ASSERT_EQ(field.at(dir.withLon(lon + 0.1), time),
                  field.at(lat, lon + 0.1, time));
    }
}

TEST(SphericalFbm, TimeEvolvesField)
{
    SphericalFbm field(11, 4, 10.0);
    const double now = field.at(0.3, 0.4, 0.0);
    const double later = field.at(0.3, 0.4, 5.0);
    EXPECT_NE(now, later);
}

TEST(SphericalFbm, FrequencyControlsFeatureScale)
{
    // Higher frequency -> nearby points decorrelate faster.
    SphericalFbm low(12, 4, 2.0);
    SphericalFbm high(12, 4, 200.0);
    const double d = 0.01;
    const double low_delta = std::fabs(low.at(0.5, 0.5) - low.at(0.5 + d, 0.5));
    double high_delta = 0.0;
    for (int i = 0; i < 20; ++i) {
        high_delta = std::max(
            high_delta, std::fabs(high.at(0.5 + i * d, 0.5) -
                                  high.at(0.5 + (i + 1) * d, 0.5)));
    }
    EXPECT_GT(high_delta, low_delta);
}

} // namespace
} // namespace kodan::util
