#include "ground/contact.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace kodan::ground {

namespace {

/** Grid samples per trajectory block: memory stays flat in the horizon. */
constexpr std::size_t kBlockSamples = 256;

/** Refinement stops once the bracket is narrower than this (s). */
constexpr double kRefineWidth = 1.0e-3;
/** Bisection step cap (never reached at LEO coarse steps). */
constexpr int kRefineSteps = 40;
/** Secant steps spent predicting a crossing, and the secant step (s)
 *  below which the prediction is taken as converged: the next secant
 *  error is about the product of the last two steps times the margin's
 *  curvature-to-slope ratio, far inside kReplayMargin. */
constexpr int kSecantSteps = 8;
constexpr double kSecantTolerance = 1.0e-2;
/** The replay stops at the first midpoint this close to the predicted
 *  crossing (s): its side is too uncertain to predict. */
constexpr double kReplayMargin = 1.0e-4;
/** A replayed bracket end is accepted only if its margin clears zero
 *  by more than this (rad). */
constexpr double kVerifyGuard = 1.0e-12;

/** Elevation above the station mask (rad); >= 0 means visible. */
double
margin(const orbit::Vec3 &site, double mask, const orbit::Vec3 &sat_ecef)
{
    return orbit::elevationAngle(site, sat_ecef) - mask;
}

double
margin(const orbit::J2Propagator &sat, const orbit::Vec3 &site,
       double mask, double t)
{
    // The station is fixed in ECEF; compare in ECEF at time t.
    return margin(site, mask, sat.positionEcef(t));
}

/**
 * Refines a mask crossing inside the coarse bracket [lo, hi] to the
 * instant plain bisection returns (halve until hi - lo < 1 ms, keeping
 * the half whose upper end is past the crossing), bit for bit, with
 * fewer propagations:
 *
 *  1. Predict the crossing r by secant steps, starting from two true
 *     samples of the margin on either side of it: (t_before, f_before)
 *     and (hi, f_hi). A prediction only chooses where to look; a wrong
 *     one costs propagations, never a different result.
 *  2. Replay the bisection's midpoint arithmetic, choosing each side by
 *     comparing the midpoint with r, until a midpoint falls within
 *     kReplayMargin of r.
 *  3. Evaluate the margin at the replayed bracket's moved ends. Each must
 *     lie on its predicted side by more than kVerifyGuard; otherwise the
 *     replay is discarded and bisection restarts from [lo, hi].
 *  4. Finish with real bisection.
 *
 * Premise: the margin crosses zero once inside one coarse bracket (a
 * LEO pass lasts many coarse steps). Then the sign of the margin changes
 * once on [lo, hi], every replayed midpoint at or below the verified low
 * end is before the crossing and every one at or above the verified high
 * end is after it, so real bisection would have made the same choices.
 */
double
refineCrossing(const orbit::J2Propagator &sat, const orbit::Vec3 &site,
               double mask, double lo, double hi, bool rising,
               double t_before, double f_before, double f_hi)
{
    // Predict the crossing: secant steps on the last two samples,
    // falling back to a regula falsi step on the sign bracket [a, b]
    // whenever the secant would leave it.
    double predicted = std::numeric_limits<double>::quiet_NaN();
    double a = t_before;
    double fa = f_before;
    double b = hi;
    double fb = f_hi;
    double x0 = a;
    double f0 = fa;
    double x1 = b;
    double f1 = fb;
    for (int step = 0; step < kSecantSteps; ++step) {
        double x = x1 - f1 * (x1 - x0) / (f1 - f0);
        const bool secant = x > a && x < b;
        if (!secant) {
            x = b - fb * (b - a) / (fb - fa);
        }
        if (!std::isfinite(x)) {
            break;
        }
        predicted = x;
        if (secant && std::fabs(x - x1) < kSecantTolerance) {
            break;
        }
        const double fx = margin(sat, site, mask, x);
        if ((fx >= 0.0) == (fb >= 0.0)) {
            b = x;
            fb = fx;
        } else {
            a = x;
            fa = fx;
        }
        x0 = x1;
        f0 = f1;
        x1 = x;
        f1 = fx;
    }

    // Replay bisection from the prediction, then verify the moved ends.
    const double lo0 = lo;
    const double hi0 = hi;
    int steps = 0;
    if (!std::isnan(predicted)) {
        bool lo_moved = false;
        bool hi_moved = false;
        while (steps < kRefineSteps && hi - lo >= kRefineWidth) {
            const double mid = 0.5 * (lo + hi);
            if (std::fabs(mid - predicted) < kReplayMargin) {
                break;
            }
            if (mid < predicted) {
                lo = mid;
                lo_moved = true;
            } else {
                hi = mid;
                hi_moved = true;
            }
            ++steps;
        }
        // Before the crossing the margin is negative when rising and
        // positive when setting; after it, the other way round.
        const double before_sign = rising ? -1.0 : 1.0;
        const bool verified =
            (!lo_moved ||
             before_sign * margin(sat, site, mask, lo) > kVerifyGuard) &&
            (!hi_moved ||
             -before_sign * margin(sat, site, mask, hi) > kVerifyGuard);
        if (!verified) {
            lo = lo0;
            hi = hi0;
            steps = 0;
        }
    }

    // Real bisection. Invariant: sign changes across [lo, hi]; rising
    // means below -> above. The width stop applies after each step, as
    // in plain bisection, so a replay that already reached it is done.
    for (; steps < kRefineSteps && !(steps > 0 && hi - lo < kRefineWidth);
         ++steps) {
        const double mid = 0.5 * (lo + hi);
        const bool above = margin(sat, site, mask, mid) >= 0.0;
        if (above == rising) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return 0.5 * (lo + hi);
}

/**
 * The coarse scan's sample grid: t_k = t_{k-1} + step accumulated from
 * t_0 = t0, each sample taken at min(t_k, t1). Index `last` is the final
 * sample: the first t_k >= t1, or the last t_k < t1 + step when rounding
 * reaches that bound first.
 */
struct ScanGrid
{
    ScanGrid(double t0_, double t1_, double step_)
        : t0(t0_), t1(t1_), step(step_)
    {
        double t = t0;
        while (t + step < t1 + step) {
            t += step;
            ++last;
            if (std::min(t, t1) >= t1) {
                break;
            }
        }
    }

    double t0;
    double t1;
    double step;
    std::size_t last = 0;
};

/** One station's invariants and scan state within a satellite's sweep. */
struct StationScan
{
    std::size_t index = 0;
    orbit::Vec3 site;
    double site_r = 0.0;
    double mask = 0.0;
    /** Safe half-angle of the visibility cone for this satellite. */
    double lambda_safe = 0.0;
    /** Next grid index to sample. */
    std::size_t next = 0;
    bool in_window = false;
    double window_start = 0.0;
};

/**
 * Scans one satellite against a station list. Buffers are reused
 * across satellites, so a task scanning many satellites allocates once.
 */
class SatelliteScan
{
  public:
    SatelliteScan(const ScanGrid &grid, const GroundStation *stations,
                  std::size_t station_count)
        : grid_(grid), scans_(station_count)
    {
        for (std::size_t g = 0; g < station_count; ++g) {
            scans_[g].index = g;
            scans_[g].site = stations[g].ecef();
            scans_[g].site_r = scans_[g].site.norm();
            scans_[g].mask = stations[g].min_elevation;
        }
        times_.reserve(kBlockSamples + 1);
        positions_.reserve(kBlockSamples + 1);
    }

    /** Append satellite @p s's windows to @p out in station order. */
    void run(const orbit::J2Propagator &sat, std::size_t s,
             std::vector<ContactWindow> &out);

  private:
    void scanBlock(const orbit::J2Propagator &sat, std::size_t s,
                   StationScan &scan, std::size_t end,
                   std::vector<ContactWindow> &windows) const;

    double time(std::size_t k) const { return times_[k - base_]; }
    const orbit::Vec3 &position(std::size_t k) const
    {
        return positions_[k - base_];
    }

    const ScanGrid &grid_;
    std::vector<StationScan> scans_;
    /** Upper bound on the satellite-site angular rate times the step. */
    double stride_rate_ = 0.0;
    /** Current trajectory block: samples base_, base_ + 1, ... (the
     *  first is the previous block's last sample, kept for refinement). */
    std::size_t base_ = 0;
    std::vector<double> times_;
    std::vector<orbit::Vec3> positions_;
    std::vector<std::vector<ContactWindow>> per_station_;
};

void
SatelliteScan::run(const orbit::J2Propagator &sat, std::size_t s,
                   std::vector<ContactWindow> &out)
{
    if (scans_.empty()) {
        return;
    }
    const auto &elems = sat.elements();
    // Visibility-cone half-angle (geocentric separation between site and
    // satellite directions) at the mask elevation, evaluated at apogee
    // radius: the cone only shrinks at lower radii, so theta beyond this
    // angle proves the satellite is below the mask. Exact for the
    // geocentric-up elevation model; a small margin absorbs float slop.
    const double r_apogee =
        elems.semi_major_axis * (1.0 + elems.eccentricity);
    for (StationScan &scan : scans_) {
        const double cos_arg = std::clamp(
            (scan.site_r / r_apogee) * std::cos(scan.mask), -1.0, 1.0);
        scan.lambda_safe = std::acos(cos_arg) - scan.mask + 0.01;
        scan.next = 0;
        scan.in_window = false;
        scan.window_start = 0.0;
    }
    // Upper bound on d(theta)/dt: fastest in-plane sweep (true-anomaly
    // rate at perigee) plus apsidal/nodal precession plus Earth spin.
    const double e = elems.eccentricity;
    const double rate =
        1.05 * (sat.meanMotion() * std::sqrt(1.0 + e) /
                    std::pow(1.0 - e, 1.5) +
                std::abs(sat.argPerigeeRate()) + std::abs(sat.raanRate()) +
                util::kEarthOmega);
    stride_rate_ = rate * grid_.step;
    per_station_.resize(scans_.size());
    for (auto &windows : per_station_) {
        windows.clear();
    }

    double t = grid_.t0;
    for (std::size_t begin = 0; begin <= grid_.last;
         begin += kBlockSamples) {
        const std::size_t end =
            std::min(grid_.last + 1, begin + kBlockSamples);
        // Carry the previous block's last sample into slot 0.
        if (begin > 0) {
            times_.front() = times_.back();
            positions_.front() = positions_.back();
            times_.resize(1);
            positions_.resize(1);
            base_ = begin - 1;
        } else {
            times_.clear();
            positions_.clear();
            base_ = 0;
        }
        for (std::size_t k = begin; k < end; ++k) {
            if (k > 0) {
                t += grid_.step;
            }
            const double t_clamped = std::min(t, grid_.t1);
            times_.push_back(t_clamped);
            positions_.push_back(sat.positionEcef(t_clamped));
        }
        for (std::size_t g = 0; g < scans_.size(); ++g) {
            scanBlock(sat, s, scans_[g], end, per_station_[g]);
        }
    }
    for (std::size_t g = 0; g < scans_.size(); ++g) {
        const StationScan &scan = scans_[g];
        if (scan.in_window) {
            per_station_[g].push_back(
                {scan.index, s, std::max(scan.window_start, grid_.t0),
                 grid_.t1});
        }
        out.insert(out.end(), per_station_[g].begin(),
                   per_station_[g].end());
    }
}

void
SatelliteScan::scanBlock(const orbit::J2Propagator &sat, std::size_t s,
                         StationScan &scan, std::size_t end,
                         std::vector<ContactWindow> &windows) const
{
    while (scan.next < end) {
        const std::size_t k = scan.next;
        const orbit::Vec3 &sat_ecef = position(k);
        const double f = margin(scan.site, scan.mask, sat_ecef);
        const bool above = f >= 0.0;
        if (k == 0) {
            scan.in_window = above;
            scan.window_start = above ? grid_.t0 : 0.0;
            scan.next = 1;
            continue;
        }
        if (above != scan.in_window) {
            // The previous grid sample is a true margin sample on the
            // before side of the crossing (skipped samples are provably
            // below the mask), so it anchors the crossing prediction.
            const double t_k = time(k);
            const double edge = refineCrossing(
                sat, scan.site, scan.mask, t_k - grid_.step, t_k, above,
                time(k - 1), margin(scan.site, scan.mask, position(k - 1)),
                f);
            if (above) {
                scan.window_start = edge;
            } else {
                windows.push_back({scan.index, s,
                                   std::max(scan.window_start, grid_.t0),
                                   std::min(edge, grid_.t1)});
            }
            scan.in_window = above;
        }
        scan.next = k + 1;
        if (!above) {
            // Stride over provably-out-of-view grid cells; surviving
            // samples stay on the accumulated grid.
            const double sat_r = sat_ecef.norm();
            const double cos_theta = std::clamp(
                scan.site.dot(sat_ecef) / (scan.site_r * sat_r), -1.0, 1.0);
            const double slack = std::acos(cos_theta) - scan.lambda_safe;
            if (slack > 0.0) {
                const double cells = std::min(
                    std::floor(slack / stride_rate_),
                    static_cast<double>(grid_.last));
                // One grid cell is consumed by the regular advance. A
                // stride past `last` ends the scan: the skipped final
                // sample is provably below the mask too.
                if (cells > 1.0) {
                    scan.next = k + static_cast<std::size_t>(cells);
                }
            }
        }
    }
}

} // namespace

ContactFinder::ContactFinder(double coarse_step)
    : coarse_step_(coarse_step)
{
    assert(coarse_step > 0.0);
}

std::vector<ContactWindow>
ContactFinder::find(const orbit::J2Propagator &sat,
                    const GroundStation &station, double t0, double t1) const
{
    assert(t1 >= t0);
    const ScanGrid grid(t0, t1, coarse_step_);
    std::vector<ContactWindow> windows;
    SatelliteScan(grid, &station, 1).run(sat, 0, windows);
    return windows;
}

std::vector<ContactWindow>
ContactFinder::findAll(const std::vector<orbit::J2Propagator> &sats,
                       const std::vector<GroundStation> &stations, double t0,
                       double t1) const
{
    return sweep(sats, stations, t0, t1, /*parallel=*/false);
}

std::vector<ContactWindow>
ContactFinder::findAllParallel(
    const std::vector<orbit::J2Propagator> &sats,
    const std::vector<GroundStation> &stations, double t0, double t1) const
{
    return sweep(sats, stations, t0, t1, /*parallel=*/true);
}

std::vector<ContactWindow>
ContactFinder::sweep(const std::vector<orbit::J2Propagator> &sats,
                     const std::vector<GroundStation> &stations, double t0,
                     double t1, bool parallel) const
{
    KODAN_TRACE_SCOPE("ground.contact.scan");
    assert(t1 >= t0);
    const ScanGrid grid(t0, t1, coarse_step_);
    std::vector<std::vector<ContactWindow>> per_sat(sats.size());
    const auto scanRange = [&](std::size_t begin, std::size_t end) {
        SatelliteScan scan(grid, stations.data(), stations.size());
        for (std::size_t s = begin; s < end; ++s) {
            scan.run(sats[s], s, per_sat[s]);
        }
    };
    if (parallel) {
        util::parallelForChunks(sats.size(), scanRange);
    } else {
        scanRange(0, sats.size());
    }
    std::size_t total = 0;
    for (const auto &windows : per_sat) {
        total += windows.size();
    }
    std::vector<ContactWindow> all;
    all.reserve(total);
    // Concatenate in (satellite, station) index order so the unstable
    // start-time sort sees the same input at any thread count.
    for (const auto &windows : per_sat) {
        all.insert(all.end(), windows.begin(), windows.end());
    }
    std::sort(all.begin(), all.end(),
              [](const ContactWindow &a, const ContactWindow &b) {
                  return a.start < b.start;
              });
    KODAN_COUNT_ADD("ground.contact.windows.scanned", all.size());
    if (telemetry::journalEnabled()) {
        // Flight recorder: one begin/end pair per window, in the sorted
        // (deterministic) window order on the caller's journal lane.
        for (const auto &w : all) {
            telemetry::JournalEventBuilder("ground.contact.begin")
                .i64("satellite", static_cast<std::int64_t>(w.satellite))
                .i64("station", static_cast<std::int64_t>(w.station))
                .f64("t_s", w.start);
            telemetry::JournalEventBuilder("ground.contact.end")
                .i64("satellite", static_cast<std::int64_t>(w.satellite))
                .i64("station", static_cast<std::int64_t>(w.station))
                .f64("t_s", w.end)
                .f64("duration_s", w.duration());
        }
    }
    return all;
}

double
totalContactSeconds(const std::vector<ContactWindow> &windows)
{
    double total = 0.0;
    for (const auto &w : windows) {
        total += w.duration();
    }
    return total;
}

} // namespace kodan::ground
