#include "sim/mission.hpp"

#include <cassert>
#include <limits>

#include "sim/engine.hpp"

namespace kodan::sim {

MissionConfig
MissionConfig::landsatConstellation(int satellite_count)
{
    return makeConstellation(satellite_count, 1, 0);
}

MissionConfig
MissionConfig::makeConstellation(int satellite_count, int planes,
                                 int phasing)
{
    assert(satellite_count >= 1);
    assert(planes >= 1 && satellite_count % planes == 0);
    MissionConfig config;
    config.satellites = orbit::sunSynchronousConstellation(
        satellite_count, planes, phasing, 705.0e3);
    config.stations = ground::landsatGroundSegment();
    config.camera = sense::CameraModel::landsat8Multispectral();
    return config;
}

FilterBehavior
FilterBehavior::bentPipe()
{
    FilterBehavior filter;
    // Modeled as "no processing at all": every frame stays raw and is
    // queued for downlink in capture order (indiscriminate).
    filter.frame_time = std::numeric_limits<double>::infinity();
    filter.send_unprocessed = true;
    return filter;
}

FilterBehavior
FilterBehavior::idealFilter()
{
    FilterBehavior filter;
    filter.frame_time = 0.0;
    filter.keep_high = 1.0;
    filter.keep_low = 0.0;
    filter.send_unprocessed = false;
    return filter;
}

MissionSim::MissionSim(const data::GeoModel *world, double fixed_prevalence)
    : world_(world), fixed_prevalence_(fixed_prevalence)
{
    assert(fixed_prevalence >= 0.0 && fixed_prevalence <= 1.0);
}

SatelliteResult
MissionResult::totals() const
{
    SatelliteResult sum;
    for (const auto &sat : per_satellite) {
        sum.frames_observed += sat.frames_observed;
        sum.frames_processed += sat.frames_processed;
        sum.frames_downlinked += sat.frames_downlinked;
        sum.bits_observed += sat.bits_observed;
        sum.high_bits_observed += sat.high_bits_observed;
        sum.bits_downlinked += sat.bits_downlinked;
        sum.high_bits_downlinked += sat.high_bits_downlinked;
        sum.contact_seconds += sat.contact_seconds;
        sum.frame_deadline = sat.frame_deadline;
    }
    return sum;
}

MissionResult
MissionSim::run(const MissionConfig &config,
                const FilterBehavior &filter) const
{
    // One chunk over the whole horizon, one satellite per work item,
    // exact per-item queues with unbounded storage.
    return runMission(config, filter, world_, fixed_prevalence_,
                      config.duration, 1, ExactQueues{});
}

} // namespace kodan::sim
