/**
 * @file
 * Workload entry points of the repository benchmark and the settings
 * they share. Each workload builds its inputs from the seed, times the
 * library only from outside its public calls, verifies the outputs, and
 * fills a Result with either the end-to-end metrics (untraced run) or
 * the per-layer metrics and share table (traced run).
 */

#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

/** Threads of every end-to-end run (leaves headroom on a 4-core host). */
inline constexpr int kRunThreads = 2;

/** Arguments of one run. */
struct RunOptions
{
    std::uint64_t seed = 1;
    /** Wall budget of the timed section (s). */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Shrunk inputs for the self-tests. */
    bool tiny = false;
};

/** Seed of one input stream, derived from the workload seed. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/** Turn every recorder (metrics, journal, lineage, health) off. */
void recordersOff();

Result runRuntime(const RunOptions &options, bool int8);
Result runFleetContacts(const RunOptions &options);
Result runMissionWorld(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
