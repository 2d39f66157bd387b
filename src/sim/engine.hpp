/**
 * @file
 * The mission engine: the one driver behind MissionSim and
 * ConstellationEngine (DESIGN.md "Mission engine").
 *
 * Per time chunk it runs the satellite-major contact sweep, advances
 * the ground-segment scheduler, then a sharded pass in which every
 * satellite captures, decides, enqueues and drains; serial index-order
 * folds feed the chunk's bins to the time series and the health plane.
 * The downlink queue model, picked at compile time by the entry point,
 * is the one modelling choice:
 *
 *  - ExactQueues (MissionSim): per-item queues drained against one
 *    radio budget for the whole allocation, timed along the granted
 *    runs; owns the per-item recorders (lineage, latency, per-satellite
 *    queue/summary/bin events, sim.frames and ground.downlink metrics).
 *  - FluidQueues (ConstellationEngine): two value pools under a storage
 *    cap, drained run by run; owns the per-chunk events, the
 *    dropped-bits series and the constellation metrics.
 */

#ifndef KODAN_SIM_ENGINE_HPP
#define KODAN_SIM_ENGINE_HPP

#include <cstddef>

#include "data/geomodel.hpp"
#include "sim/constellation.hpp"
#include "sim/mission.hpp"

namespace kodan::sim {

/** The exact per-item queue model; it has no parameters. */
struct ExactQueues
{
};

/** The fluid two-pool queue model. */
struct FluidQueues
{
    /** On-board storage per satellite (bits). */
    double storage_bits = 0.0;
    /** Injected dead downlink (see ConstellationConfig). */
    ConstellationConfig::Degradation degrade;
};

/**
 * Run @p mission under @p filter in chunks of @p chunk_s seconds (the
 * last one ends at the horizon), @p shard_size satellites per parallel
 * work item (0 is taken as 1). Frame values come from @p world, or are
 * Bernoulli draws at @p fixed_prevalence when it is null. Results,
 * journal bytes, time series and health alerts are bit-identical at
 * any KODAN_THREADS and any shard size.
 */
MissionResult runMission(const MissionConfig &mission,
                         const FilterBehavior &filter,
                         const data::GeoModel *world, double fixed_prevalence,
                         double chunk_s, std::size_t shard_size,
                         const ExactQueues &queues);
MissionResult runMission(const MissionConfig &mission,
                         const FilterBehavior &filter,
                         const data::GeoModel *world, double fixed_prevalence,
                         double chunk_s, std::size_t shard_size,
                         const FluidQueues &queues);

} // namespace kodan::sim

#endif // KODAN_SIM_ENGINE_HPP
