#include "data/geomodel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace kodan::data {

using util::clamp;

const char *
terrainName(Terrain terrain)
{
    switch (terrain) {
      case Terrain::Ocean:
        return "ocean";
      case Terrain::Forest:
        return "forest";
      case Terrain::Desert:
        return "desert";
      case Terrain::Ice:
        return "ice";
      case Terrain::Urban:
        return "urban";
      case Terrain::Mountain:
        return "mountain";
    }
    return "?";
}

namespace {

/** Channel layout: b0..b3 reflectance, texture, ndvi, thermal, elev,
 *  moisture, cloud-edge. */
constexpr double kTerrainSig[kTerrainCount][7] = {
    // b0     b1     b2     b3     tex    ndvi   thermal
    {0.04, 0.05, 0.06, 0.03, 0.05, -0.20, 0.55},  // Ocean
    {0.08, 0.12, 0.10, 0.45, 0.55, 0.65, 0.50},   // Forest
    {0.45, 0.42, 0.40, 0.50, 0.25, 0.05, 0.75},   // Desert
    {0.70, 0.72, 0.75, 0.60, 0.12, -0.05, 0.15},  // Ice
    {0.30, 0.28, 0.27, 0.30, 0.80, 0.05, 0.65},   // Urban
    {0.32, 0.30, 0.28, 0.35, 0.70, 0.15, 0.35},   // Mountain
};

/**
 * Cloud appearance depends on the underlying terrain (viewing geometry,
 * haze mixing, and snow/cloud confusion): over dark ocean clouds are an
 * unmistakable bright anomaly, while over ice they are nearly the same
 * brightness and differ only subtly in texture and thermal response.
 * This terrain-conditioned ambiguity is what makes *context-specialized*
 * models meaningfully better than one global filter.
 */
constexpr double kCloudSigByTerrain[kTerrainCount][7] = {
    // b0     b1     b2     b3     tex    ndvi   thermal
    {0.78, 0.80, 0.82, 0.70, 0.18, 0.00, 0.20},  // over Ocean (easy)
    {0.72, 0.74, 0.75, 0.66, 0.20, 0.05, 0.22},  // over Forest
    {0.50, 0.48, 0.46, 0.53, 0.22, 0.04, 0.50},  // over Desert (harder)
    {0.66, 0.68, 0.70, 0.59, 0.14, -0.03, 0.18}, // over Ice (hardest)
    {0.66, 0.68, 0.70, 0.60, 0.25, 0.02, 0.28},  // over Urban
    {0.58, 0.59, 0.60, 0.55, 0.26, 0.06, 0.32},  // over Mountain
};

/** Fraction of the surface that is ocean. */
constexpr double kOceanFraction = 0.62;
/** Fraction of the surface that is mountainous (highest elevations). */
constexpr double kMountainFraction = 0.045;
/** Urban-field threshold; keeps cities rare. */
constexpr double kUrbanThreshold = 0.86;
/** Latitude (rad) beyond which land/ocean freezes over. */
const double kIceLatitude = util::degToRad(62.0);
/** Width of the cloud opacity ramp around the threshold. */
constexpr double kCloudRamp = 0.24;
/** Time scale (s) over which the cloud field decorrelates. */
constexpr double kCloudTimeScale = 6.0 * 3600.0;

/**
 * Percentile of a noise field estimated from a deterministic sample of
 * sphere-uniform points.
 */
double
fieldPercentile(const util::SphericalFbm &field, double pct,
                std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> samples;
    samples.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
        const double lat = std::asin(2.0 * rng.uniform() - 1.0);
        const double lon = rng.uniform(-util::kPi, util::kPi);
        samples.push_back(field.at(lat, lon, 0.0));
    }
    return util::percentile(std::move(samples), pct);
}

/** Order-preserving map of a non-NaN double onto the unsigned integers. */
std::uint64_t
orderKey(double d)
{
    const auto bits = std::bit_cast<std::uint64_t>(d);
    return (bits >> 63) != 0 ? ~bits : bits | (1ULL << 63);
}

double
fromOrderKey(std::uint64_t key)
{
    return std::bit_cast<double>((key >> 63) != 0 ? key & ~(1ULL << 63)
                                                  : ~key);
}

/**
 * The smallest double at which @p holds becomes true, for a predicate
 * monotone in its argument, false at -inf and true at +inf: a bisection
 * over the doubles in order.
 */
template <class Predicate>
double
smallestWhere(Predicate holds)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::uint64_t lo = orderKey(-kInf); // holds is false here
    std::uint64_t hi = orderKey(kInf);  // and true here
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (holds(fromOrderKey(mid))) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return fromOrderKey(hi);
}

} // namespace

GeoModelParams
GeoModelParams::legacyDomain()
{
    GeoModelParams params;
    params.seed = util::splitMix64(params.seed ^ 0xbeef);
    params.cloud_fraction = 0.58;
    params.band_gain = 1.10;
    params.band_offset = 0.04;
    return params;
}

GeoModel::GeoModel(const GeoModelParams &params)
    : params_(params),
      elevation_(util::splitMix64(params.seed ^ 0x01), 5,
                 params.terrain_frequency),
      moisture_(util::splitMix64(params.seed ^ 0x02), 4,
                params.terrain_frequency * 1.3),
      urban_(util::splitMix64(params.seed ^ 0x03), 3,
             params.terrain_frequency * 4.0),
      cloud_(util::splitMix64(params.seed ^ 0x04), 4,
             params.cloud_frequency)
{
    assert(params.cloud_fraction > 0.0 && params.cloud_fraction < 1.0);
    sea_level_ =
        fieldPercentile(elevation_, 100.0 * kOceanFraction, params.seed);
    mountain_level_ = fieldPercentile(
        elevation_, 100.0 * (1.0 - kMountainFraction), params.seed);
    cloud_threshold_ = fieldPercentile(
        cloud_, 100.0 * (1.0 - params.cloud_fraction), params.seed ^ 0x10);

    // After octave k, the rest of the sum can only add, in at()'s order,
    // terms between amplitude * -kValueNoisePad and
    // amplitude * (1 + kValueNoisePad); every rounded step is monotone.
    const util::FbmNoise &fbm = cloud_.fbm();
    for (int k = 0; k < fbm.octaves(); ++k) {
        cloudy_from_.push_back(smallestWhere([&](double sum) {
            return cloudyFromSum(
                fbm.extendSum(sum, k + 1, -util::kValueNoisePad));
        }));
        clear_below_.push_back(smallestWhere([&](double sum) {
            return cloudyFromSum(
                fbm.extendSum(sum, k + 1, 1.0 + util::kValueNoisePad));
        }));
    }
}

Terrain
GeoModel::terrainAt(double lat_rad, double lon_rad) const
{
    const util::SphereTrig dir = util::SphereTrig::of(lat_rad, lon_rad);
    return terrainOf(lat_rad, dir, elevation_.at(dir), moisture_.at(dir));
}

Terrain
GeoModel::terrainOf(double lat_rad, const util::SphereTrig &dir,
                    double elev, double moist) const
{
    // Polar caps freeze regardless of elevation.
    if (std::fabs(lat_rad) > kIceLatitude) {
        return Terrain::Ice;
    }
    if (elev < sea_level_) {
        return Terrain::Ocean;
    }
    // Land: mountains at the highest elevations (calibrated percentile).
    if (elev > mountain_level_) {
        return Terrain::Mountain;
    }
    if (urban_.at(dir) > kUrbanThreshold) {
        return Terrain::Urban;
    }
    return moist > 0.5 ? Terrain::Forest : Terrain::Desert;
}

double
GeoModel::opacityFromRaw(double raw) const
{
    return clamp((raw - cloud_threshold_) / kCloudRamp + 0.5, 0.0, 1.0);
}

double
GeoModel::cloudOpacityAt(double lat_rad, double lon_rad, double time) const
{
    return opacityFromRaw(
        cloud_.at(lat_rad, lon_rad, time / kCloudTimeScale));
}

bool
GeoModel::cloudyAt(double lat_rad, double lon_rad, double time) const
{
    return isCloudy(cloudOpacityAt(lat_rad, lon_rad, time));
}

bool
GeoModel::cloudyFromSum(double octave_sum) const
{
    return isCloudy(opacityFromRaw(octave_sum * cloud_.fbm().norm()));
}

int
GeoModel::clearCount(std::span<const double> lats,
                     std::span<const double> lons, double time) const
{
    const double cloud_time = time / kCloudTimeScale;
    const util::FbmNoise &fbm = cloud_.fbm();
    // Longitude trig is cached for a block of columns, and points are
    // decided a block at a time, so any lattice width works without
    // allocating.
    constexpr std::size_t kLonBlock = 8;
    constexpr std::size_t kPoints = 32;
    static_assert(kLonBlock <= kPoints);
    std::array<double, kLonBlock> cos_lon{};
    std::array<double, kLonBlock> sin_lon{};
    std::array<util::NoisePoint, kPoints> points{};
    std::array<double, kPoints> sums{};
    std::array<std::uint8_t, kPoints> open{}; // undecided point indices
    std::size_t count = 0;
    int clear = 0;

    const auto decide = [&] {
        for (std::size_t p = 0; p < count; ++p) {
            sums[p] = 0.0;
            open[p] = static_cast<std::uint8_t>(p);
        }
        std::size_t live = count;
        for (int k = 0; k < fbm.octaves() && live > 0; ++k) {
            // One octave across every undecided point: the points are
            // independent, so their evaluations overlap.
            const double amplitude = fbm.amplitude(k);
            for (std::size_t i = 0; i < live; ++i) {
                const util::NoisePoint &pt = points[open[i]];
                sums[open[i]] += amplitude * fbm.octave(k, pt.x, pt.y, pt.z);
            }
            // Settle what the octave decided; keep the rest, branch-free.
            const double cloudy_from = cloudy_from_[k];
            const double clear_below = clear_below_[k];
            std::size_t kept = 0;
            for (std::size_t i = 0; i < live; ++i) {
                const std::uint8_t p = open[i];
                const bool is_clear = sums[p] < clear_below;
                clear += is_clear ? 1 : 0;
                open[kept] = p;
                kept += (!is_clear && sums[p] < cloudy_from) ? 1 : 0;
            }
            live = kept;
        }
        assert(live == 0); // the last octave's two thresholds coincide
        count = 0;
    };

    for (std::size_t j0 = 0; j0 < lons.size(); j0 += kLonBlock) {
        const std::size_t width = std::min(kLonBlock, lons.size() - j0);
        for (std::size_t j = 0; j < width; ++j) {
            cos_lon[j] = std::cos(lons[j0 + j]);
            sin_lon[j] = std::sin(lons[j0 + j]);
        }
        for (const double lat : lats) {
            if (count + width > kPoints) {
                decide();
            }
            const double cos_lat = std::cos(lat);
            const double sin_lat = std::sin(lat);
            for (std::size_t j = 0; j < width; ++j) {
                points[count++] = cloud_.embed(
                    {cos_lat, sin_lat, cos_lon[j], sin_lon[j]}, cloud_time);
            }
        }
    }
    decide();
    return clear;
}

GeoCell
GeoModel::cellAt(double lat_rad, double lon_rad, double time,
                 util::Rng &rng) const
{
    const util::SphereTrig dir = util::SphereTrig::of(lat_rad, lon_rad);
    const double cloud_time = time / kCloudTimeScale;
    const auto opacityAt = [&](const util::SphereTrig &at) {
        return opacityFromRaw(cloud_.at(at, cloud_time));
    };
    const double elev = elevation_.at(dir);
    const double moist = moisture_.at(dir);
    const double opacity = opacityAt(dir);

    GeoCell cell;
    cell.terrain = terrainOf(lat_rad, dir, elev, moist);
    cell.cloudy = isCloudy(opacity);

    Features &f = cell.features;
    const auto &sig = kTerrainSig[static_cast<int>(cell.terrain)];
    const auto &cloud_sig =
        kCloudSigByTerrain[static_cast<int>(cell.terrain)];
    for (int c = 0; c < 7; ++c) {
        f[c] = params_.band_gain *
                   (sig[c] * (1.0 - opacity) + cloud_sig[c] * opacity) +
               params_.band_offset;
    }
    // Channels 7/8: ancillary map priors (elevation, moisture) known
    // regardless of cloud cover — pure context signals, never cloud cues.
    f[7] = elev;
    f[8] = moist;
    // Channel 9: cloud-boundary indicator (gradient magnitude of opacity),
    // estimated by finite differences ~1 km apart.
    const double eps = 1.0e3 / util::kEarthRadius;
    const double d_lat = opacityAt(dir.withLat(lat_rad + eps)) -
                         opacityAt(dir.withLat(lat_rad - eps));
    const double d_lon = opacityAt(dir.withLon(lon_rad + eps)) -
                         opacityAt(dir.withLon(lon_rad - eps));
    f[9] = clamp(std::sqrt(d_lat * d_lat + d_lon * d_lon), 0.0, 1.0);

    for (auto &channel : f) {
        channel += rng.normal(0.0, params_.sensor_noise);
    }
    return cell;
}

Features
GeoModel::featuresAt(double lat_rad, double lon_rad, double time,
                     util::Rng &rng) const
{
    return cellAt(lat_rad, lon_rad, time, rng).features;
}

Features
GeoModel::terrainSignature(Terrain terrain)
{
    Features f{};
    const auto &sig = kTerrainSig[static_cast<int>(terrain)];
    for (int c = 0; c < 7; ++c) {
        f[c] = sig[c];
    }
    return f;
}

Features
GeoModel::cloudSignature(Terrain terrain)
{
    Features f{};
    const auto &sig = kCloudSigByTerrain[static_cast<int>(terrain)];
    for (int c = 0; c < 7; ++c) {
        f[c] = sig[c];
    }
    return f;
}

} // namespace kodan::data
