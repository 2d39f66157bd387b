#include "data/generator.hpp"

#include <cassert>
#include <cmath>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace kodan::data {

DatasetGenerator::DatasetGenerator(const GeoModel &geo,
                                   const DatasetParams &params)
    : geo_(geo), params_(params), rng_(params.seed)
{
    assert(params.grid >= 1);
    assert(params.frame_size_m > 0.0);
}

FrameSample
DatasetGenerator::makeFrame(double lat_rad, double lon_rad, double time)
{
    FrameSample frame;
    frame.center_lat = lat_rad;
    frame.center_lon = lon_rad;
    frame.time = time;
    frame.size_m = params_.frame_size_m;
    frame.grid = params_.grid;

    const int grid = params_.grid;
    const auto cells = static_cast<std::size_t>(grid) * grid;
    frame.features.resize(cells * kFeatureDim);
    frame.cloudy.resize(cells);
    frame.terrain.resize(cells);

    // Cell angular extent. Longitude step shrinks with latitude so cells
    // stay approximately square on the ground; clamp the cosine away from
    // zero so polar frames remain well-defined.
    const double cell_m = params_.frame_size_m / grid;
    const double d_lat = cell_m / util::kEarthRadius;
    const double cos_lat = std::max(0.05, std::cos(lat_rad));
    const double d_lon = d_lat / cos_lat;
    const double half = (grid - 1) / 2.0;

    for (int r = 0; r < grid; ++r) {
        for (int c = 0; c < grid; ++c) {
            const double lat =
                util::clamp(lat_rad + (r - half) * d_lat,
                            -util::kPi / 2.0 + 1e-6,
                            util::kPi / 2.0 - 1e-6);
            const double lon = lon_rad + (c - half) * d_lon;
            const std::size_t cell =
                static_cast<std::size_t>(r) * grid + c;
            const GeoCell sample = geo_.cellAt(lat, lon, time, rng_);
            for (int ch = 0; ch < kFeatureDim; ++ch) {
                frame.features[cell * kFeatureDim + ch] =
                    static_cast<float>(sample.features[ch]);
            }
            frame.cloudy[cell] = sample.cloudy ? 1 : 0;
            frame.terrain[cell] = static_cast<std::uint8_t>(sample.terrain);
        }
    }
    return frame;
}

std::vector<FrameSample>
DatasetGenerator::generateGlobal(int count, double t0)
{
    std::vector<FrameSample> frames;
    frames.reserve(count);
    for (int i = 0; i < count; ++i) {
        const double lat = std::asin(2.0 * rng_.uniform() - 1.0);
        const double lon = rng_.uniform(-util::kPi, util::kPi);
        frames.push_back(
            makeFrame(lat, lon, t0 + i * params_.frame_interval_s));
    }
    return frames;
}

std::vector<FrameSample>
DatasetGenerator::generateAlongTrack(const orbit::J2Propagator &sat,
                                     double frame_period, int count,
                                     double t0)
{
    assert(frame_period > 0.0);
    std::vector<FrameSample> frames;
    frames.reserve(count);
    for (int i = 0; i < count; ++i) {
        const double t = t0 + i * frame_period;
        const orbit::Geodetic point = sat.subsatellitePoint(t);
        frames.push_back(makeFrame(point.latitude, point.longitude, t));
    }
    return frames;
}

} // namespace kodan::data
