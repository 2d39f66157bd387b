#include "orbit/propagator.hpp"

#include <cassert>
#include <cmath>

#include "util/units.hpp"

namespace kodan::orbit {

using util::kEarthJ2;
using util::kEarthRadius;
using util::kTwoPi;

J2Propagator::J2Propagator(const OrbitalElements &elements)
    : elements_(elements)
{
    const double a = elements_.semi_major_axis;
    const double e = elements_.eccentricity;
    const double i = elements_.inclination;
    assert(a > kEarthRadius);
    assert(e >= 0.0 && e < 1.0);

    const double n0 = elements_.meanMotion();
    const double p = a * (1.0 - e * e); // semi-latus rectum
    const double re_p = kEarthRadius / p;
    const double j2_term = 1.5 * kEarthJ2 * re_p * re_p;
    cos_i_ = std::cos(i);
    sin_i_ = std::sin(i);

    // Standard secular J2 rates (Vallado, ch. 9).
    raan_rate_ = -j2_term * n0 * cos_i_;
    argp_rate_ = j2_term * n0 * (2.0 - 2.5 * sin_i_ * sin_i_);
    const double eta = std::sqrt(1.0 - e * e);
    mean_motion_ =
        n0 * (1.0 + j2_term * eta * (1.0 - 1.5 * sin_i_ * sin_i_));
    a_eta_ = a * eta;
}

double
J2Propagator::nodalPeriod() const
{
    // Time between successive ascending nodes: the argument of latitude
    // advances at (M + argp) rate for near-circular orbits.
    return kTwoPi / (mean_motion_ + argp_rate_);
}

J2Propagator::Orientation
J2Propagator::orientationAt(double t) const
{
    const double mean_anom =
        util::wrapTwoPi(elements_.mean_anomaly + mean_motion_ * t);
    const double raan = util::wrapTwoPi(elements_.raan + raan_rate_ * t);
    const double argp =
        util::wrapTwoPi(elements_.arg_perigee + argp_rate_ * t);

    const double e_anom = solveKepler(mean_anom, elements_.eccentricity);

    // Rotate perifocal -> ECI: Rz(raan) * Rx(i) * Rz(argp).
    const double cr = std::cos(raan);
    const double sr = std::sin(raan);
    const double ca = std::cos(argp);
    const double sa = std::sin(argp);

    Orientation o;
    o.cos_e = std::cos(e_anom);
    o.sin_e = std::sin(e_anom);
    o.r11 = cr * ca - sr * sa * cos_i_;
    o.r12 = -cr * sa - sr * ca * cos_i_;
    o.r21 = sr * ca + cr * sa * cos_i_;
    o.r22 = -sr * sa + cr * ca * cos_i_;
    o.r31 = sa * sin_i_;
    o.r32 = ca * sin_i_;
    return o;
}

Vec3
J2Propagator::positionEci(const Orientation &o) const
{
    // Perifocal coordinates.
    const double x_pf =
        elements_.semi_major_axis * (o.cos_e - elements_.eccentricity);
    const double y_pf = a_eta_ * o.sin_e;
    return {o.r11 * x_pf + o.r12 * y_pf, o.r21 * x_pf + o.r22 * y_pf,
            o.r31 * x_pf + o.r32 * y_pf};
}

StateEci
J2Propagator::stateAt(double t) const
{
    const Orientation o = orientationAt(t);
    const double e_anom_rate =
        mean_motion_ / (1.0 - elements_.eccentricity * o.cos_e);
    const double vx_pf = -elements_.semi_major_axis * o.sin_e * e_anom_rate;
    const double vy_pf = a_eta_ * o.cos_e * e_anom_rate;

    StateEci state;
    state.position = positionEci(o);
    state.velocity = {o.r11 * vx_pf + o.r12 * vy_pf,
                      o.r21 * vx_pf + o.r22 * vy_pf,
                      o.r31 * vx_pf + o.r32 * vy_pf};
    return state;
}

Vec3
J2Propagator::positionEcef(double t) const
{
    return eciToEcef(positionEci(orientationAt(t)), t);
}

Geodetic
J2Propagator::subsatellitePoint(double t) const
{
    return ecefToGeodetic(positionEcef(t));
}

double
J2Propagator::groundTrackSpeed() const
{
    // Arc traced on the spherical Earth per nodal period, ignoring the
    // small along-track contribution of Earth rotation (it is mostly
    // cross-track for near-polar orbits).
    return kTwoPi * kEarthRadius / nodalPeriod();
}

} // namespace kodan::orbit
