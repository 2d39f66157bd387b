#include "util/noise.hpp"

#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace kodan::util {

namespace {

double
lerp(double a, double b, double t)
{
    return a + (b - a) * t;
}

/** Per-axis multipliers of the lattice hash chain. */
constexpr std::uint64_t kHashX = 0x8da6b343ULL;
constexpr std::uint64_t kHashY = 0xd8163841ULL;
constexpr std::uint64_t kHashZ = 0xcb1ab31fULL;

/** Fold one lattice coordinate into the hash chain. */
std::uint64_t
hashAxis(std::uint64_t h, std::int64_t i, std::uint64_t multiplier)
{
    return splitMix64(h ^ static_cast<std::uint64_t>(i) * multiplier);
}

/** 53 high bits of a hash -> double in [0, 1). */
double
unitInterval(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

ValueNoise::ValueNoise(std::uint64_t seed)
    : seed_(seed)
{
}

/** Quintic smoothstep: C2-continuous interpolation weight. */
double
ValueNoise::smooth(double t)
{
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
}

double
ValueNoise::cellValue(std::int64_t ix, std::int64_t iy, std::int64_t iz) const
{
    return unitInterval(hashAxis(
        hashAxis(hashAxis(seed_, ix, kHashX), iy, kHashY), iz, kHashZ));
}

double
ValueNoise::at(double x, double y, double z) const
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const double fz = std::floor(z);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const auto iz = static_cast<std::int64_t>(fz);
    const double tx = smooth(x - fx);
    const double ty = smooth(y - fy);
    const double tz = smooth(z - fz);

    // cellValue chains one hash per axis, so the 8 corners share their
    // x and (x, y) prefixes: 2 + 4 + 8 hashes give the same corner
    // values as 8 full cellValue chains (24 hashes).
    double corner[2][2][2];
    for (int dx = 0; dx < 2; ++dx) {
        const std::uint64_t hx = hashAxis(seed_, ix + dx, kHashX);
        for (int dy = 0; dy < 2; ++dy) {
            const std::uint64_t hxy = hashAxis(hx, iy + dy, kHashY);
            for (int dz = 0; dz < 2; ++dz) {
                corner[dx][dy][dz] =
                    unitInterval(hashAxis(hxy, iz + dz, kHashZ));
            }
        }
    }
    const double x00 = lerp(corner[0][0][0], corner[1][0][0], tx);
    const double x10 = lerp(corner[0][1][0], corner[1][1][0], tx);
    const double x01 = lerp(corner[0][0][1], corner[1][0][1], tx);
    const double x11 = lerp(corner[0][1][1], corner[1][1][1], tx);
    const double y0 = lerp(x00, x10, ty);
    const double y1 = lerp(x01, x11, ty);
    return lerp(y0, y1, tz);
}

FbmNoise::FbmNoise(std::uint64_t seed, int octaves, double lacunarity,
                   double gain)
    : base_(seed)
{
    assert(octaves >= 1);
    double amplitude = 1.0;
    double frequency = 1.0;
    double total = 0.0;
    for (int i = 0; i < octaves; ++i) {
        amplitude_.push_back(amplitude);
        frequency_.push_back(frequency);
        // Offset each octave so features of different scales decorrelate.
        offset_.push_back(31.416 * i);
        total += amplitude;
        amplitude *= gain;
        frequency *= lacunarity;
    }
    norm_ = 1.0 / total;
}

double
FbmNoise::octave(int k, double x, double y, double z) const
{
    return base_.at(x * frequency_[k] + offset_[k],
                    y * frequency_[k] + offset_[k], z * frequency_[k]);
}

double
FbmNoise::at(double x, double y, double z) const
{
    double sum = 0.0;
    for (int k = 0; k < octaves(); ++k) {
        sum += amplitude_[k] * octave(k, x, y, z);
    }
    return sum * norm_;
}

double
FbmNoise::extendSum(double partial, int from, double value) const
{
    double sum = partial;
    for (int k = from; k < octaves(); ++k) {
        sum += amplitude_[k] * value;
    }
    return sum;
}

SphericalFbm::SphericalFbm(std::uint64_t seed, int octaves, double frequency)
    : fbm_(seed, octaves), frequency_(frequency)
{
}

SphereTrig
SphereTrig::of(double lat_rad, double lon_rad)
{
    return {std::cos(lat_rad), std::sin(lat_rad), std::cos(lon_rad),
            std::sin(lon_rad)};
}

SphereTrig
SphereTrig::withLat(double lat_rad) const
{
    return {std::cos(lat_rad), std::sin(lat_rad), cos_lon, sin_lon};
}

SphereTrig
SphereTrig::withLon(double lon_rad) const
{
    return {cos_lat, sin_lat, std::cos(lon_rad), std::sin(lon_rad)};
}

double
SphericalFbm::at(double lat_rad, double lon_rad, double time) const
{
    return at(SphereTrig::of(lat_rad, lon_rad), time);
}

double
SphericalFbm::at(const SphereTrig &dir, double time) const
{
    const NoisePoint p = embed(dir, time);
    return fbm_.at(p.x, p.y, p.z);
}

NoisePoint
SphericalFbm::embed(const SphereTrig &dir, double time) const
{
    const double x = dir.cos_lat * dir.cos_lon;
    const double y = dir.cos_lat * dir.sin_lon;
    const double z = dir.sin_lat;
    // Embed on the sphere of radius `frequency_` and fold time into all
    // three axes so the field genuinely evolves rather than translating.
    return {x * frequency_ + 0.31 * time, y * frequency_ + 0.47 * time,
            z * frequency_ + 0.59 * time};
}

} // namespace kodan::util
