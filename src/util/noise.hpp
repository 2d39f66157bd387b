/**
 * @file
 * Deterministic lattice value-noise and fractal Brownian motion fields.
 *
 * The procedural geospatial model (kodan::data::GeoModel) builds terrain
 * classes and cloud cover from these fields. They are stateless functions
 * of (seed, coordinates), so any tile of the synthetic Earth can be
 * evaluated independently and reproducibly.
 */

#ifndef KODAN_UTIL_NOISE_HPP
#define KODAN_UTIL_NOISE_HPP

#include <cstdint>
#include <vector>

namespace kodan::util {

/**
 * Rounding padding of ValueNoise::at's range. The exact interpolant lies
 * in [0, 1], but the rounded quintic weight can exceed 1 (smooth of the
 * double just below 1 is 1 + 6 ulp), so a lerp can overshoot a corner
 * value. Every rounded ValueNoise::at value lies in
 * [-kValueNoisePad, 1 + kValueNoisePad]; the bound is derived in
 * DESIGN.md ("World-model queries") with a wide margin.
 */
inline constexpr double kValueNoisePad = 0x1.0p-40;

/** A point in a noise field's own coordinates. */
struct NoisePoint
{
    double x;
    double y;
    double z;
};

/**
 * Smooth lattice value noise in up to three dimensions.
 *
 * Values at integer lattice points are uniform in [0, 1] from a hash of
 * (seed, cell); between lattice points values are interpolated with a
 * quintic smoothstep, giving a C2-continuous field.
 */
class ValueNoise
{
  public:
    /** @param seed Seed defining the entire infinite field. */
    explicit ValueNoise(std::uint64_t seed);

    /**
     * Evaluate the noise field.
     *
     * @param x First coordinate (arbitrary units; features ~1 unit wide).
     * @param y Second coordinate.
     * @param z Third coordinate (use for time evolution); default 0.
     * @return Smooth value in [0, 1], up to kValueNoisePad of rounding.
     */
    double at(double x, double y, double z = 0.0) const;

    /**
     * The quintic smoothstep weight at() interpolates with. Exposed for
     * the tests of kValueNoisePad: smooth(t) exceeds 1 just below t = 1.
     */
    static double smooth(double t);

    /**
     * Hash an integer lattice cell to a uniform double in [0, 1].
     *
     * Exposed for tests and for callers needing per-cell categorical
     * draws (e.g. terrain class votes).
     */
    double cellValue(std::int64_t ix, std::int64_t iy, std::int64_t iz) const;

  private:
    std::uint64_t seed_;
};

/**
 * Fractal Brownian motion: a weighted sum of ValueNoise octaves.
 *
 * Each octave doubles spatial frequency and halves amplitude (scaled by
 * @c gain), producing natural-looking multi-scale structure for
 * continents, biome boundaries, and cloud masses.
 */
class FbmNoise
{
  public:
    /**
     * @param seed Field seed.
     * @param octaves Number of octaves to sum; must be >= 1.
     * @param lacunarity Frequency multiplier per octave (typically 2).
     * @param gain Amplitude multiplier per octave (typically 0.5).
     */
    FbmNoise(std::uint64_t seed, int octaves, double lacunarity = 2.0,
             double gain = 0.5);

    /**
     * Evaluate the fBm field, normalized back into [0, 1].
     *
     * @param x First coordinate.
     * @param y Second coordinate.
     * @param z Third coordinate (e.g. time); default 0.
     */
    double at(double x, double y, double z = 0.0) const;

    /*
     * Per-octave API. at() is the sum, from 0.0 in octave order, of
     * amplitude(k) * octave(k, x, y, z), times norm(); a caller that
     * adds the same terms in the same order gets the same bits.
     */

    /** Number of octaves summed. */
    int octaves() const { return static_cast<int>(amplitude_.size()); }

    /** Weight of octave @p k: gain^k, as at()'s running product. */
    double amplitude(int k) const { return amplitude_[k]; }

    /** The factor from the octave sum to at()'s value. */
    double norm() const { return norm_; }

    /**
     * Octave @p k's unweighted value at (x, y, z): a ValueNoise sample
     * at the octave's frequency and offset, in
     * [-kValueNoisePad, 1 + kValueNoisePad].
     */
    double octave(int k, double x, double y, double z) const;

    /**
     * The octave sum @p partial of octaves [0, from) continued through
     * octaves [from, octaves()) with every octave reading @p value, in
     * at()'s order of operations. Each rounded step is monotone, so
     * with @p value at an end of octave()'s range this bounds every
     * sum that can follow @p partial.
     */
    double extendSum(double partial, int from, double value) const;

  private:
    ValueNoise base_;
    std::vector<double> amplitude_; // gain^k, running product
    std::vector<double> frequency_; // lacunarity^k, running product
    std::vector<double> offset_;    // per-octave decorrelating shift
    double norm_;                   // 1 / sum of octave amplitudes
};

/**
 * Cosine and sine of a direction's latitude and longitude: everything
 * SphericalFbm needs to embed the direction on the sphere. Queries that
 * share a latitude or a longitude (a lattice of points, finite
 * differences around a point) compute each pair once and reuse it.
 */
struct SphereTrig
{
    double cos_lat;
    double sin_lat;
    double cos_lon;
    double sin_lon;

    /** The cos/sin pairs of @p lat_rad and @p lon_rad. */
    static SphereTrig of(double lat_rad, double lon_rad);

    /** This direction moved to latitude @p lat_rad (longitude kept). */
    SphereTrig withLat(double lat_rad) const;

    /** This direction moved to longitude @p lon_rad (latitude kept). */
    SphereTrig withLon(double lon_rad) const;
};

/**
 * Noise evaluated on the sphere via 3-D embedding.
 *
 * Evaluating lattice noise directly on (lat, lon) seams at the antimeridian
 * and pinches at the poles; embedding the point on the unit sphere and
 * sampling 3-D fBm avoids both artifacts.
 */
class SphericalFbm
{
  public:
    /**
     * @param seed Field seed.
     * @param octaves fBm octave count.
     * @param frequency Feature frequency; ~n features around the equator.
     */
    SphericalFbm(std::uint64_t seed, int octaves, double frequency);

    /**
     * Evaluate at a geodetic direction.
     *
     * @param lat_rad Geodetic latitude in radians, [-pi/2, pi/2].
     * @param lon_rad Longitude in radians (any wrap).
     * @param time Optional third axis for temporal evolution (e.g. cloud
     *             advection), in arbitrary units.
     * @return Smooth value in [0, 1], continuous across the antimeridian.
     */
    double at(double lat_rad, double lon_rad, double time = 0.0) const;

    /**
     * Evaluate at a direction given by its precomputed trig; the one
     * embedding path. at(lat, lon, time) equals
     * at(SphereTrig::of(lat, lon), time) bit for bit.
     */
    double at(const SphereTrig &dir, double time = 0.0) const;

    /**
     * The fBm coordinates of a direction at @p time: the one embedding.
     * at(dir, time) is fbm().at() at this point.
     */
    NoisePoint embed(const SphereTrig &dir, double time) const;

    /** The fBm field sampled at embedded points. */
    const FbmNoise &fbm() const { return fbm_; }

  private:
    FbmNoise fbm_;
    double frequency_;
};

} // namespace kodan::util

#endif // KODAN_UTIL_NOISE_HPP
