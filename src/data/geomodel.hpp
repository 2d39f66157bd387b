/**
 * @file
 * Procedural geospatial world model.
 *
 * Substitute for the Sentinel-2 Cloud Mask Catalogue used by the paper:
 * a deterministic, infinitely-sampleable Earth with terrain classes, a
 * time-varying cloud field, and per-location pseudo-spectral features.
 * The statistical structure matters, not the radiometry: terrain patches
 * are spatially coherent (so tiles have recognizable *contexts*), clouds
 * are bright in every band (so they confuse naive thresholds over bright
 * terrain like ice and desert), and every channel carries sensor noise.
 */

#ifndef KODAN_DATA_GEOMODEL_HPP
#define KODAN_DATA_GEOMODEL_HPP

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/noise.hpp"
#include "util/rng.hpp"

namespace kodan::data {

/** Terrain classes of the synthetic Earth. */
enum class Terrain : std::uint8_t
{
    Ocean = 0,
    Forest,
    Desert,
    Ice,
    Urban,
    Mountain,
};

/** Number of terrain classes. */
inline constexpr int kTerrainCount = 6;

/** Human-readable terrain name. */
const char *terrainName(Terrain terrain);

/** Number of feature channels observed per ground cell. */
inline constexpr int kFeatureDim = 10;

/** Feature vector of one ground cell. */
using Features = std::array<double, kFeatureDim>;

/** Tunable parameters of the procedural world. */
struct GeoModelParams
{
    /** Seed for all fields. */
    std::uint64_t seed = 20230325;
    /**
     * Target fraction of ground cells obscured by cloud. The Sentinel-2
     * catalogue the paper uses is 52% cloudy; the motivation figures use
     * the MODIS global average of 67%.
     */
    double cloud_fraction = 0.52;
    /** Terrain patch frequency (features around the equator). */
    double terrain_frequency = 180.0;
    /** Cloud mass frequency (features around the equator). */
    double cloud_frequency = 650.0;
    /** Per-channel Gaussian sensor noise sigma. */
    double sensor_noise = 0.10;
    /**
     * Multiplicative radiometric calibration applied to the visual
     * channels (0-6). Legacy training corpora come from different
     * sensors; a gain/offset shift models that domain gap.
     */
    double band_gain = 1.0;
    /** Additive radiometric offset for the visual channels (0-6). */
    double band_offset = 0.0;

    /**
     * The domain the paper's *reference applications* were built for: a
     * different region of the procedural world observed by a different
     * sensor calibration and cloud climate. Models trained here and
     * deployed on the default world behave like the legacy datacenter
     * networks the paper starts from.
     */
    static GeoModelParams legacyDomain();
};

/** Everything the world says about one observed ground cell. */
struct GeoCell
{
    /** Observed features (terrain blended with cloud, plus noise). */
    Features features{};
    /** The cell is cloud-obscured (opacity > 0.5). */
    bool cloudy = false;
    /** Terrain class under the cell. */
    Terrain terrain = Terrain::Ocean;
};

/**
 * The procedural Earth.
 *
 * All queries are pure functions of (seed, lat, lon, time); the model is
 * thread-compatible after construction.
 */
class GeoModel
{
  public:
    explicit GeoModel(const GeoModelParams &params = {});

    /** Parameters this model was built with. */
    const GeoModelParams &params() const { return params_; }

    /** Terrain class at a geodetic point. */
    Terrain terrainAt(double lat_rad, double lon_rad) const;

    /**
     * Cloud opacity in [0, 1] at a point and time.
     *
     * Thresholded and renormalized so that the global mean *cloudy cell*
     * fraction matches @c params().cloud_fraction.
     *
     * @param time Seconds since epoch; the field evolves over hours.
     */
    double cloudOpacityAt(double lat_rad, double lon_rad, double time) const;

    /** True when the point is cloud-obscured (opacity > 0.5). */
    bool cloudyAt(double lat_rad, double lon_rad, double time) const;

    /**
     * Number of clear (not cloud-obscured) points on the product lattice
     * @p lats × @p lons at @p time. Equals counting !cloudyAt over every
     * (lat, lon) pair bit for bit, but computes each latitude's and each
     * longitude's cos/sin once, scales @p time once, and stops each
     * point's fBm at the first octave that settles its verdict.
     *
     * The lattice is evaluated octave-major: each octave's term is added
     * to every still-undecided point, in FbmNoise::at's order, and a
     * point is settled once its partial sum, continued through the
     * remaining octaves at the low or the high end of an octave's range,
     * reads cloudy or clear either way. That range is padded to
     * [-kValueNoisePad, 1 + kValueNoisePad] because rounding lets a
     * ValueNoise sample leave [0, 1] (DESIGN.md "World-model queries");
     * with the exact [0, 1] the bound would be wrong, not just loose.
     */
    int clearCount(std::span<const double> lats,
                   std::span<const double> lons, double time) const;

    /**
     * The cloudy verdict of a cloud fBm octave sum: the verdict cloudyAt
     * reaches when the field's octaves sum to @p octave_sum. Monotone in
     * the sum. Exposed for tests.
     */
    bool cloudyFromSum(double octave_sum) const;

    /**
     * The smallest octave sum that reads cloudy: cloudyFromSum(s) is
     * s >= cloudySum(). Exposed for tests.
     */
    double cloudySum() const { return cloudy_from_.back(); }

    /**
     * One observed ground cell: features, cloudy, and terrain together.
     * Equals featuresAt, cloudyAt, and terrainAt at the same point bit
     * for bit and draws the same deviates from @p rng, but evaluates
     * each field once and shares the point's trig between them.
     *
     * @param lat_rad Latitude (rad).
     * @param lon_rad Longitude (rad).
     * @param time Observation time (s).
     * @param rng Noise source (one deviate per channel).
     */
    GeoCell cellAt(double lat_rad, double lon_rad, double time,
                   util::Rng &rng) const;

    /**
     * Observed features of a ground cell: terrain signature blended with
     * cloud, plus sensor noise drawn from @p rng (cellAt's features).
     */
    Features featuresAt(double lat_rad, double lon_rad, double time,
                        util::Rng &rng) const;

    /** Noise-free feature signature of a terrain class (for tests). */
    static Features terrainSignature(Terrain terrain);

    /**
     * Noise-free feature signature of full cloud cover over a given
     * terrain (cloud appearance is terrain-conditioned; see the data
     * model notes in DESIGN.md).
     */
    static Features cloudSignature(Terrain terrain = Terrain::Ocean);

  private:
    GeoModelParams params_;
    util::SphericalFbm elevation_;
    util::SphericalFbm moisture_;
    util::SphericalFbm urban_;
    util::SphericalFbm cloud_;
    double sea_level_;       // elevation threshold for ocean
    double mountain_level_;  // elevation threshold for mountains
    double cloud_threshold_; // raw-noise threshold for "cloudy"
    // Octave-sum thresholds of the cloud verdict, one per octave k: a
    // partial sum of octaves [0, k] at or above cloudy_from_[k] reads
    // cloudy, and one below clear_below_[k] reads clear, whatever the
    // remaining octaves add. Both end at cloudySum().
    std::vector<double> cloudy_from_;
    std::vector<double> clear_below_;

    /** Opacity in [0, 1] of a raw (un-thresholded) cloud field value. */
    double opacityFromRaw(double raw) const;

    /** The cloudy verdict of an opacity; every query thresholds here. */
    static bool isCloudy(double opacity) { return opacity > 0.5; }

    /** Terrain class from a point's elevation and moisture fields. */
    Terrain terrainOf(double lat_rad, const util::SphereTrig &dir,
                      double elev, double moist) const;
};

} // namespace kodan::data

#endif // KODAN_DATA_GEOMODEL_HPP
