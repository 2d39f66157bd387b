/** @file Unit tests for the procedural geospatial world. */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "data/geomodel.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace kodan::data {
namespace {

using util::degToRad;

double
measuredCloudFraction(const GeoModel &geo, double time = 0.0)
{
    util::Rng rng(123);
    int cloudy = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const double lat = std::asin(2.0 * rng.uniform() - 1.0);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        if (geo.cloudyAt(lat, lon, time)) {
            ++cloudy;
        }
    }
    return static_cast<double>(cloudy) / n;
}

TEST(GeoModel, CloudFractionCalibrated)
{
    GeoModel geo;
    EXPECT_NEAR(measuredCloudFraction(geo), 0.52, 0.04);
}

TEST(GeoModel, CloudFractionParameterized)
{
    GeoModelParams params;
    params.cloud_fraction = 0.67; // MODIS global average
    GeoModel geo(params);
    EXPECT_NEAR(measuredCloudFraction(geo), 0.67, 0.04);
}

TEST(GeoModel, CloudCalibrationHoldsAtLaterTimes)
{
    GeoModel geo;
    EXPECT_NEAR(measuredCloudFraction(geo, 43200.0), 0.52, 0.06);
}

TEST(GeoModel, TerrainIsDeterministic)
{
    GeoModel a;
    GeoModel b;
    for (double lat = -1.4; lat < 1.4; lat += 0.17) {
        for (double lon = -3.0; lon < 3.0; lon += 0.37) {
            EXPECT_EQ(a.terrainAt(lat, lon), b.terrainAt(lat, lon));
        }
    }
}

TEST(GeoModel, PolesAreIce)
{
    GeoModel geo;
    EXPECT_EQ(geo.terrainAt(degToRad(85.0), 0.3), Terrain::Ice);
    EXPECT_EQ(geo.terrainAt(degToRad(-85.0), 2.1), Terrain::Ice);
}

TEST(GeoModel, OceanDominatesSurface)
{
    GeoModel geo;
    util::Rng rng(7);
    int ocean = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const double lat = std::asin(2.0 * rng.uniform() - 1.0);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        if (geo.terrainAt(lat, lon) == Terrain::Ocean) {
            ++ocean;
        }
    }
    const double fraction = static_cast<double>(ocean) / n;
    EXPECT_GT(fraction, 0.40);
    EXPECT_LT(fraction, 0.70);
}

TEST(GeoModel, AllTerrainClassesOccur)
{
    GeoModel geo;
    util::Rng rng(8);
    std::array<int, kTerrainCount> counts{};
    for (int i = 0; i < 20000; ++i) {
        const double lat = std::asin(2.0 * rng.uniform() - 1.0);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        ++counts[static_cast<int>(geo.terrainAt(lat, lon))];
    }
    for (int k = 0; k < kTerrainCount; ++k) {
        EXPECT_GT(counts[k], 0) << terrainName(static_cast<Terrain>(k));
    }
}

TEST(GeoModel, CloudFieldEvolvesOverTime)
{
    GeoModel geo;
    int changed = 0;
    util::Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        const double lat = rng.uniform(-1.0, 1.0);
        const double lon = rng.uniform(-3.0, 3.0);
        if (geo.cloudyAt(lat, lon, 0.0) !=
            geo.cloudyAt(lat, lon, 24.0 * 3600.0)) {
            ++changed;
        }
    }
    EXPECT_GT(changed, 50);
}

TEST(GeoModel, OpacityBoundsRespected)
{
    GeoModel geo;
    util::Rng rng(10);
    for (int i = 0; i < 1000; ++i) {
        const double lat = rng.uniform(-1.5, 1.5);
        const double lon = rng.uniform(-3.1, 3.1);
        const double op = geo.cloudOpacityAt(lat, lon, 0.0);
        ASSERT_GE(op, 0.0);
        ASSERT_LE(op, 1.0);
    }
}

TEST(GeoModel, CloudBrightensDarkTerrain)
{
    GeoModel geo;
    util::Rng noise_free(11);
    GeoModelParams quiet;
    quiet.sensor_noise = 0.0;
    GeoModel geo_quiet(quiet);
    // Find an ocean point that is cloudy and one that is clear; the
    // cloudy one must be brighter in band 0.
    double clear_b0 = -1.0;
    double cloudy_b0 = -1.0;
    util::Rng rng(12);
    for (int i = 0; i < 20000 && (clear_b0 < 0.0 || cloudy_b0 < 0.0);
         ++i) {
        const double lat = rng.uniform(-0.9, 0.9);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        if (geo_quiet.terrainAt(lat, lon) != Terrain::Ocean) {
            continue;
        }
        const double op = geo_quiet.cloudOpacityAt(lat, lon, 0.0);
        const auto f = geo_quiet.featuresAt(lat, lon, 0.0, noise_free);
        if (op <= 0.0 && clear_b0 < 0.0) {
            clear_b0 = f[0];
        } else if (op >= 1.0 && cloudy_b0 < 0.0) {
            cloudy_b0 = f[0];
        }
    }
    ASSERT_GE(clear_b0, 0.0);
    ASSERT_GE(cloudy_b0, 0.0);
    EXPECT_GT(cloudy_b0, clear_b0 + 0.3);
}

TEST(GeoModel, SignaturesDiffer)
{
    const auto ocean = GeoModel::terrainSignature(Terrain::Ocean);
    const auto ice = GeoModel::terrainSignature(Terrain::Ice);
    const auto cloud = GeoModel::cloudSignature(Terrain::Ocean);
    EXPECT_GT(ice[0], ocean[0] + 0.5);
    EXPECT_GT(cloud[0], 0.7);
    // Ice and cloud-over-ice are both bright but differ in texture and
    // thermal channels (the hard snow/cloud confusion).
    const auto cloud_ice = GeoModel::cloudSignature(Terrain::Ice);
    EXPECT_LT(std::fabs(cloud_ice[0] - ice[0]), 0.15);
    EXPECT_NE(cloud_ice[6], ice[6]);
}

TEST(GeoModel, LegacyDomainIsDifferentWorld)
{
    const GeoModelParams legacy = GeoModelParams::legacyDomain();
    const GeoModelParams standard;
    EXPECT_NE(legacy.seed, standard.seed);
    EXPECT_GT(legacy.cloud_fraction, standard.cloud_fraction);
    EXPECT_NE(legacy.band_gain, standard.band_gain);

    // Different terrain layout and calibrated cloud climate.
    const GeoModel legacy_world(legacy);
    EXPECT_NEAR(measuredCloudFraction(legacy_world),
                legacy.cloud_fraction, 0.05);
}

TEST(GeoModel, BandGainShiftsVisualChannelsOnly)
{
    GeoModelParams shifted;
    shifted.sensor_noise = 0.0;
    shifted.band_gain = 1.2;
    shifted.band_offset = 0.1;
    GeoModelParams plain = shifted;
    plain.band_gain = 1.0;
    plain.band_offset = 0.0;

    const GeoModel a(shifted);
    const GeoModel b(plain);
    util::Rng rng_a(1);
    util::Rng rng_b(1);
    const auto fa = a.featuresAt(0.4, 0.8, 0.0, rng_a);
    const auto fb = b.featuresAt(0.4, 0.8, 0.0, rng_b);
    for (int c = 0; c < 7; ++c) {
        EXPECT_NEAR(fa[c], 1.2 * fb[c] + 0.1, 1e-12) << "channel " << c;
    }
    // Ancillary priors (7, 8) are calibration-independent.
    EXPECT_NEAR(fa[7], fb[7], 1e-12);
    EXPECT_NEAR(fa[8], fb[8], 1e-12);
}

TEST(GeoModel, SensorNoiseAppliedPerChannel)
{
    GeoModel geo;
    util::Rng rng_a(13);
    util::Rng rng_b(14);
    const auto fa = geo.featuresAt(0.3, 0.4, 0.0, rng_a);
    const auto fb = geo.featuresAt(0.3, 0.4, 0.0, rng_b);
    int differing = 0;
    for (int c = 0; c < kFeatureDim; ++c) {
        if (fa[c] != fb[c]) {
            ++differing;
        }
    }
    EXPECT_EQ(differing, kFeatureDim);
}

// --- Bit-identity contract of the one-pass queries ----------------------
//
// cellAt and clearCount share trig and field evaluations between points
// and fields; they must equal the per-point queries bit for bit, and the
// per-point queries must equal the seed's pinned outputs.

struct GoldenPoint
{
    double lat;
    double lon;
    double time;
    bool cloudy;
    double opacity;
    Terrain terrain;
    Features features; // featuresAt with util::Rng(42)
};

const std::array<GoldenPoint, 3> kGolden = {{
    {0.3, 0.4, 0.0, false, 0x1.4714d62a9268p-2, Terrain::Ocean,
     {0x1.860e490b73f78p-2, 0x1.8a3bf88fb884ap-3, 0x1.872424688575ep-2,
      0x1.7ffe961dadf1dp-3, -0x1.a8786a7fdc299p-4, -0x1.2847dda0a8303p-3,
      0x1.a6ae8df09d16cp-2, 0x1.07dc0287172b2p-1, 0x1.c02e360fff45p-1,
      -0x1.edf20a1e6976p-8}},
    {0.61, -2.2, 3600.0, true, 0x1.ee17d44d880a8p-1, Terrain::Mountain,
     {0x1.59d4fd1e9cf19p-1, 0x1.ee614c8d383cfp-2, 0x1.560789e0bbbfcp-1,
      0x1.f22b8120b06aap-2, 0x1.48a3bff2b129ap-4, 0x1.bf40b96d73a88p-5,
      0x1.2eb6fa3d6c022p-2, 0x1.bed20967a3e0ep-1, 0x1.caaa0e3797a5p-1,
      0x1.a5b742bf5b8a9p-3}},
    {1.2, 0.1, 100.0, true, 0x1.b285a36f1eb08p-1, Terrain::Ice,
     {0x1.8a8c01f187b49p-1, 0x1.2d8fe9d9c2ccap-1, 0x1.92d5642b53cd3p-1,
      0x1.11ebcf5953bbbp-1, -0x1.dc9e4c3ba2edp-5, -0x1.549b283cc8dcap-5,
      0x1.3343693f8fdd5p-3, 0x1.8aab798af4d09p-1, 0x1.705a2d582cefap-1,
      0x1.c12bd099cb668p-4}},
}};

TEST(GeoModel, GoldenValues)
{
    const GeoModel geo;
    for (const GoldenPoint &g : kGolden) {
        EXPECT_EQ(geo.cloudyAt(g.lat, g.lon, g.time), g.cloudy);
        EXPECT_EQ(geo.cloudOpacityAt(g.lat, g.lon, g.time), g.opacity);
        EXPECT_EQ(geo.terrainAt(g.lat, g.lon), g.terrain);
        util::Rng rng(42);
        const Features f = geo.featuresAt(g.lat, g.lon, g.time, rng);
        for (int c = 0; c < kFeatureDim; ++c) {
            EXPECT_EQ(f[c], g.features[c]) << "channel " << c;
        }
    }
}

/**
 * featuresAt written out from per-point queries, the way the world
 * defines it: terrain/cloud signature blend at the point's opacity,
 * the elevation and moisture fields (rebuilt from GeoModel's seed
 * derivation), the opacity gradient from four cloudOpacityAt calls,
 * then one sensor-noise deviate per channel.
 */
Features
referenceFeatures(const GeoModel &geo, double lat, double lon, double time,
                  util::Rng &rng)
{
    const GeoModelParams &params = geo.params();
    const util::SphericalFbm elevation(util::splitMix64(params.seed ^ 0x01),
                                       5, params.terrain_frequency);
    const util::SphericalFbm moisture(util::splitMix64(params.seed ^ 0x02),
                                      4, params.terrain_frequency * 1.3);
    const Terrain terrain = geo.terrainAt(lat, lon);
    const double opacity = geo.cloudOpacityAt(lat, lon, time);
    const Features sig = GeoModel::terrainSignature(terrain);
    const Features cloud_sig = GeoModel::cloudSignature(terrain);
    Features f{};
    for (int c = 0; c < 7; ++c) {
        f[c] = params.band_gain *
                   (sig[c] * (1.0 - opacity) + cloud_sig[c] * opacity) +
               params.band_offset;
    }
    f[7] = elevation.at(lat, lon, 0.0);
    f[8] = moisture.at(lat, lon, 0.0);
    const double eps = 1.0e3 / util::kEarthRadius;
    const double d_lat = geo.cloudOpacityAt(lat + eps, lon, time) -
                         geo.cloudOpacityAt(lat - eps, lon, time);
    const double d_lon = geo.cloudOpacityAt(lat, lon + eps, time) -
                         geo.cloudOpacityAt(lat, lon - eps, time);
    f[9] = util::clamp(std::sqrt(d_lat * d_lat + d_lon * d_lon), 0.0, 1.0);
    for (auto &channel : f) {
        channel += rng.normal(0.0, params.sensor_noise);
    }
    return f;
}

TEST(GeoModel, CellAtMatchesPerPointQueries)
{
    GeoModelParams params;
    params.band_gain = 1.1; // exercise the calibration terms too
    params.band_offset = 0.04;
    for (const GeoModel &geo : {GeoModel(), GeoModel(params)}) {
        util::Rng points(31);
        for (int i = 0; i < 500; ++i) {
            const double lat = points.uniform(-1.5707, 1.5707);
            const double lon = points.uniform(-7.0, 7.0);
            const double time = points.uniform(0.0, 1.0e6);
            // Leave a cached Box-Muller spare in half the cases so the
            // deviate sequence is checked from both generator states.
            util::Rng rng_cell(1000 + i);
            util::Rng rng_features(1000 + i);
            util::Rng rng_ref(1000 + i);
            if (i % 2 == 1) {
                rng_cell.normal();
                rng_features.normal();
                rng_ref.normal();
            }
            const GeoCell cell = geo.cellAt(lat, lon, time, rng_cell);
            const Features f = geo.featuresAt(lat, lon, time, rng_features);
            const Features ref =
                referenceFeatures(geo, lat, lon, time, rng_ref);
            for (int c = 0; c < kFeatureDim; ++c) {
                ASSERT_EQ(cell.features[c], ref[c]) << "channel " << c;
                ASSERT_EQ(f[c], ref[c]) << "channel " << c;
            }
            ASSERT_EQ(cell.cloudy, geo.cloudyAt(lat, lon, time));
            ASSERT_EQ(cell.terrain, geo.terrainAt(lat, lon));
            const double next = rng_ref.normal();
            ASSERT_EQ(rng_cell.normal(), next);
            ASSERT_EQ(rng_features.normal(), next);
        }
    }
}

/** Clear points of the lattice, one cloudyAt per point. */
int
referenceClearCount(const GeoModel &geo, const std::vector<double> &lats,
                    const std::vector<double> &lons, double time)
{
    int clear = 0;
    for (const double lat : lats) {
        for (const double lon : lons) {
            clear += geo.cloudyAt(lat, lon, time) ? 0 : 1;
        }
    }
    return clear;
}

TEST(GeoModel, ClearCountMatchesPerPointQueries)
{
    GeoModelParams params;
    params.cloud_fraction = 0.5; // most lattices mix clear and cloudy
    params.cloud_frequency = 60.0;
    const GeoModel geo(params);
    const double pole = util::kPi / 2.0 - 1e-6;
    const double spread = 50.0e3 / util::kEarthRadius;
    // Pole-clamped rows, the antimeridian, and unwrapped longitudes.
    const std::vector<std::vector<double>> lat_sets = {
        {pole - spread, pole, pole},
        {-pole, -pole, -pole + spread},
        {-0.1, 0.0, 0.1},
        {0.7},
    };
    const std::vector<std::vector<double>> lon_sets = {
        {util::kPi - spread, util::kPi, util::kPi + spread},
        {-util::kPi - spread, -util::kPi, -util::kPi + spread},
        {-0.3, 0.0, 0.3},
        {5.9, 6.3, 12.0},
    };
    for (const auto &lats : lat_sets) {
        for (const auto &lons : lon_sets) {
            for (const double time : {0.0, 7200.0, 1.0e6}) {
                EXPECT_EQ(geo.clearCount(lats, lons, time),
                          referenceClearCount(geo, lats, lons, time));
            }
        }
    }
    // Random 3x3 frame lattices, and lattices wider than one cached block
    // of longitudes.
    util::Rng rng(32);
    int mixed = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::size_t width = (i % 10 == 0) ? 19 : 3;
        std::vector<double> lats(3);
        std::vector<double> lons(width);
        const double lat0 = rng.uniform(-1.5, 1.5);
        const double lon0 = rng.uniform(-4.0, 4.0);
        for (std::size_t k = 0; k < lats.size(); ++k) {
            lats[k] = lat0 + static_cast<double>(k) * spread;
        }
        for (std::size_t k = 0; k < lons.size(); ++k) {
            lons[k] = lon0 + static_cast<double>(k) * spread;
        }
        const double time = rng.uniform(0.0, 1.0e6);
        const int want = referenceClearCount(geo, lats, lons, time);
        ASSERT_EQ(geo.clearCount(lats, lons, time), want);
        if (want > 0 && want < static_cast<int>(lats.size() * width)) {
            ++mixed;
        }
    }
    EXPECT_GT(mixed, 100);
    EXPECT_EQ(geo.clearCount({}, std::vector<double>{0.0}, 0.0), 0);
}

// --- The early-exit verdicts of clearCount ------------------------------
//
// clearCount stops each point's fBm at the first octave that settles its
// verdict. These tests hold it to the full evaluation (cloudyAt) on the
// default world: at random, and at points whose full octave sum is within
// one ulp of the smallest sum that reads cloudy.

TEST(GeoModel, ClearCountMatchesFullEvaluationOnDefaultWorld)
{
    const GeoModel geo;
    util::Rng rng(33);
    std::vector<double> lats(3);
    std::vector<double> lons(3);
    int points = 0;
    int mixed = 0;
    while (points < 1000000) {
        // Frame-sized lattices (as sim::frameValueFraction samples) and
        // lattices an order of magnitude wider and narrower.
        const double spread = (50.0e3 / util::kEarthRadius) *
                              ((points % 3 == 0)   ? 1.0
                               : (points % 3 == 1) ? 10.0
                                                   : 0.1);
        const double lat0 = std::asin(2.0 * rng.uniform() - 1.0);
        const double lon0 = rng.uniform(-util::kPi, util::kPi);
        for (std::size_t k = 0; k < 3; ++k) {
            lats[k] = lat0 + (static_cast<double>(k) - 1.0) * spread;
            lons[k] = lon0 + (static_cast<double>(k) - 1.0) * spread;
        }
        const double time = rng.uniform(0.0, 30.0 * 86400.0);
        const int want = referenceClearCount(geo, lats, lons, time);
        ASSERT_EQ(geo.clearCount(lats, lons, time), want)
            << lat0 << ", " << lon0 << ", " << time;
        if (want > 0 && want < 9) {
            ++mixed;
        }
        points += 9;
    }
    EXPECT_GT(mixed, 1000);
}

TEST(GeoModel, CloudySumIsTheSmallestCloudySum)
{
    for (const GeoModel &geo :
         {GeoModel(), GeoModel(GeoModelParams::legacyDomain())}) {
        const double threshold = geo.cloudySum();
        const double below = std::nextafter(
            threshold, -std::numeric_limits<double>::infinity());
        EXPECT_TRUE(geo.cloudyFromSum(threshold));
        EXPECT_FALSE(geo.cloudyFromSum(below));
        EXPECT_TRUE(geo.cloudyFromSum(std::nextafter(threshold, 2.0)));
        EXPECT_FALSE(geo.cloudyFromSum(0.0));
    }
}

/**
 * The cloud field's full octave sum at a point, from GeoModel's seed
 * derivation; its norm-scaled value is the field's at() bit for bit.
 */
double
fullCloudSum(const GeoModel &geo, double lat, double lon, double time)
{
    const GeoModelParams &params = geo.params();
    const util::SphericalFbm cloud(util::splitMix64(params.seed ^ 0x04), 4,
                                   params.cloud_frequency);
    const double cloud_time = time / (6.0 * 3600.0);
    const util::SphereTrig dir = util::SphereTrig::of(lat, lon);
    const util::NoisePoint p = cloud.embed(dir, cloud_time);
    const util::FbmNoise &fbm = cloud.fbm();
    double sum = 0.0;
    for (int k = 0; k < fbm.octaves(); ++k) {
        sum += fbm.amplitude(k) * fbm.octave(k, p.x, p.y, p.z);
    }
    EXPECT_EQ(sum * fbm.norm(), cloud.at(dir, cloud_time));
    return sum;
}

TEST(GeoModel, ClearCountAtSumsWithinOneUlpOfThreshold)
{
    const GeoModel geo;
    const double threshold = geo.cloudySum();
    const double ulp = std::nextafter(threshold, 2.0) - threshold;
    const auto cloudySumAt = [&](double lat, double lon, double time) {
        return fullCloudSum(geo, lat, lon, time) >= threshold;
    };
    // Bisect time over the doubles between a clear and a cloudy instant
    // at a fixed point; the two adjacent instants it ends on straddle the
    // threshold, and about one bisection in seventy lands within an ulp.
    util::Rng rng(34);
    int found = 0;
    int exact = 0;
    for (int tries = 0; tries < 20000 && found < 24; ++tries) {
        const double lat = rng.uniform(-1.5, 1.5);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        const double t0 = rng.uniform(0.0, 1.0e5);
        const double t1 = t0 + 3600.0;
        const bool cloudy0 = cloudySumAt(lat, lon, t0);
        if (cloudy0 == cloudySumAt(lat, lon, t1)) {
            continue;
        }
        auto lo = std::bit_cast<std::uint64_t>(t0);
        auto hi = std::bit_cast<std::uint64_t>(t1);
        while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (cloudySumAt(lat, lon, std::bit_cast<double>(mid)) ==
                cloudy0) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        for (const std::uint64_t key : {lo, hi}) {
            const double time = std::bit_cast<double>(key);
            const double sum = fullCloudSum(geo, lat, lon, time);
            if (std::fabs(sum - threshold) > ulp) {
                continue;
            }
            ++found;
            exact += sum == threshold ? 1 : 0;
            const bool cloudy = geo.cloudyAt(lat, lon, time);
            ASSERT_EQ(cloudy, sum >= threshold) << lat << ", " << lon;
            ASSERT_EQ(geo.cloudyFromSum(sum), cloudy);
            const std::vector<double> one_lat = {lat};
            const std::vector<double> one_lon = {lon};
            ASSERT_EQ(geo.clearCount(one_lat, one_lon, time),
                      cloudy ? 0 : 1);
            // The same point inside a frame lattice.
            const double spread = 50.0e3 / util::kEarthRadius;
            const std::vector<double> lats = {lat - spread, lat,
                                              lat + spread};
            const std::vector<double> lons = {lon - spread, lon,
                                              lon + spread};
            ASSERT_EQ(geo.clearCount(lats, lons, time),
                      referenceClearCount(geo, lats, lons, time));
        }
    }
    EXPECT_GE(found, 24);
    EXPECT_GE(exact, 1);
}

} // namespace
} // namespace kodan::data
