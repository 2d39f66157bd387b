#include "sim/constellation.hpp"

#include <cassert>
#include <cmath>

#include "sim/engine.hpp"

namespace kodan::sim {

ConstellationEngine::ConstellationEngine(const data::GeoModel *world,
                                         double fixed_prevalence)
    : world_(world), fixed_prevalence_(fixed_prevalence)
{
    assert(fixed_prevalence >= 0.0 && fixed_prevalence <= 1.0);
}

MissionResult
ConstellationEngine::run(const ConstellationConfig &config,
                         const FilterBehavior &filter) const
{
    // Chunk edges must land on the scheduler's step grid and close whole
    // telemetry bins, or chunked results would diverge from one-shot
    // stepping (see GroundSegmentScheduler::State).
    assert(std::fmod(config.chunk_s, config.mission.scheduler_step) == 0.0);
    assert(std::fmod(config.chunk_s, config.mission.telemetry_bin_s) ==
           0.0);
    return runMission(config.mission, filter, world_, fixed_prevalence_,
                      config.chunk_s, config.shard_size,
                      FluidQueues{config.storage_bits, config.degrade});
}

} // namespace kodan::sim
