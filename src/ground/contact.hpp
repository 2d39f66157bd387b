/**
 * @file
 * Contact-window computation between satellites and ground stations.
 */

#ifndef KODAN_GROUND_CONTACT_HPP
#define KODAN_GROUND_CONTACT_HPP

#include <cstddef>
#include <vector>

#include "ground/station.hpp"
#include "orbit/propagator.hpp"

namespace kodan::ground {

/** One interval during which a satellite is visible from a station. */
struct ContactWindow
{
    /** Index into the ground segment's station list. */
    std::size_t station = 0;
    /** Index into the constellation's satellite list. */
    std::size_t satellite = 0;
    /** Window start (s since epoch). */
    double start = 0.0;
    /** Window end (s since epoch). */
    double end = 0.0;

    /** Window length in seconds. */
    double duration() const { return end - start; }
};

/**
 * Finds elevation-mask contact windows with a satellite-major sweep.
 *
 * Each satellite is propagated once per coarse grid step, on the
 * accumulated t0 + k*step grid (clamped to t1), and every station's scan
 * reads that shared trajectory. A station's scan strides over grid cells
 * while the satellite is provably outside its visibility cone: with the
 * geocentric separation at theta and the cone's safe half-angle at
 * lambda, an upper bound r on the angular rate keeps the satellite out
 * of view for (theta - lambda) / r seconds. A rise or set seen between
 * two samples is refined to ~1 ms by predict-then-verify bisection,
 * which returns the same instant, bit for bit, as plain bisection of
 * the coarse bracket.
 *
 * find(), findAll() and findAllParallel() run the same per-satellite
 * scan, so their windows are bit-identical to one another.
 */
class ContactFinder
{
  public:
    /**
     * @param coarse_step Sampling interval for the visibility scan (s).
     *        Must be well below the shortest pass (~60 s is safe for LEO).
     */
    explicit ContactFinder(double coarse_step = 30.0);

    /**
     * All contact windows of one satellite with one station in [t0, t1]
     * (the one-station case of the sweep).
     *
     * @param sat Propagator of the satellite.
     * @param station Ground station (elevation mask applied).
     * @param t0 Search interval start (s).
     * @param t1 Search interval end (s); must be >= t0.
     */
    std::vector<ContactWindow> find(const orbit::J2Propagator &sat,
                                    const GroundStation &station,
                                    double t0, double t1) const;

    /**
     * All windows of a constellation against a ground segment, with
     * station/satellite indices filled in, sorted by start time. Serial:
     * satellites are scanned in index order on the caller's thread.
     */
    std::vector<ContactWindow>
    findAll(const std::vector<orbit::J2Propagator> &sats,
            const std::vector<GroundStation> &stations, double t0,
            double t1) const;

    /**
     * findAll() with the satellites fanned out over the global thread
     * pool. Per-satellite results are concatenated in satellite index
     * order before the same start-time sort, so the output — windows,
     * counters, and journal events — is bit-identical to findAll() at
     * any KODAN_THREADS.
     */
    std::vector<ContactWindow>
    findAllParallel(const std::vector<orbit::J2Propagator> &sats,
                    const std::vector<GroundStation> &stations, double t0,
                    double t1) const;

  private:
    double coarse_step_;

    std::vector<ContactWindow>
    sweep(const std::vector<orbit::J2Propagator> &sats,
          const std::vector<GroundStation> &stations, double t0, double t1,
          bool parallel) const;
};

/** Total seconds of contact in a window list. */
double totalContactSeconds(const std::vector<ContactWindow> &windows);

} // namespace kodan::ground

#endif // KODAN_GROUND_CONTACT_HPP
