#include "telemetry/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/exact_sum.hpp"

namespace kodan::telemetry::health {

double
detectorQuantize(double value)
{
    // From 2^-12 up to 2^63 every double is a whole multiple of 2^-64
    // and inside the fixed-point range, so the round trip is exact.
    const double magnitude = std::fabs(value);
    if (magnitude >= 0x1p-12 && magnitude < 0x1p63) {
        return value;
    }
    return detail::fromFixed(detail::toFixed(value));
}

RobustZScore::RobustZScore(const RobustZConfig &config) : config_(config)
{
    if (config_.window == 0) {
        config_.window = 1;
    }
    window_.assign(config_.window, 0.0);
    sorted_.reserve(config_.window);
}

namespace {

/** Median of an ascending range. */
double
sortedMedian(const std::vector<double> &sorted)
{
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/**
 * Median of |x - med| over an ascending range. The deviations ascend
 * leftward below med and rightward above it, so merging the two runs
 * outward from med reaches the middle order statistics in n/2 steps.
 */
double
sortedMedianDeviation(const std::vector<double> &sorted, double med)
{
    const std::size_t n = sorted.size();
    std::size_t left = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), med) -
        sorted.begin());
    std::size_t right = left;
    double prev = 0.0;
    double current = 0.0;
    for (std::size_t rank = 0; rank <= n / 2; ++rank) {
        prev = current;
        const double down =
            left > 0 ? std::fabs(sorted[left - 1] - med)
                     : std::numeric_limits<double>::infinity();
        const double up = right < n
                              ? std::fabs(sorted[right] - med)
                              : std::numeric_limits<double>::infinity();
        if (down <= up) {
            current = down;
            --left;
        } else {
            current = up;
            ++right;
        }
    }
    return n % 2 == 1 ? current : 0.5 * (prev + current);
}

} // namespace

Verdict
RobustZScore::step(double value)
{
    const double v = detectorQuantize(value);
    Verdict verdict;
    if (filled_ >= std::max<std::size_t>(config_.min_points, 2)) {
        const double med = sortedMedian(sorted_);
        // 1.4826 rescales MAD to the stddev of a normal distribution.
        const double mad = sortedMedianDeviation(sorted_, med);
        const double scale = std::max(
            1.4826 * mad,
            config_.min_scale + config_.rel_scale * std::fabs(med));
        if (scale > 0.0) {
            verdict.score = std::fabs(v - med) / (config_.k * scale);
            verdict.anomalous = verdict.score > 1.0;
        }
    }
    if (filled_ == config_.window) {
        sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(),
                                       window_[next_]));
    }
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), v), v);
    window_[next_] = v;
    next_ = (next_ + 1) % config_.window;
    filled_ = std::min(filled_ + 1, config_.window);
    return verdict;
}

void
RobustZScore::reset()
{
    std::fill(window_.begin(), window_.end(), 0.0);
    sorted_.clear();
    next_ = 0;
    filled_ = 0;
}

Flatline::Flatline(const FlatlineConfig &config) : config_(config)
{
    if (config_.window < 2) {
        config_.window = 2;
    }
}

Verdict
Flatline::step(double value)
{
    // toFixed() keeps at most 53 significant bits (or saturates), so two
    // values share a fixed-point pattern iff their quantized doubles are
    // equal: comparing quantized doubles is exact fixed-point equality.
    const double v = detectorQuantize(value);
    if (run_ > 0 && v == last_) {
        ++run_;
    } else {
        run_ = 1;
        last_ = v;
    }
    Verdict verdict;
    if (config_.ignore_zero && v == 0.0) {
        return verdict;
    }
    verdict.score = static_cast<double>(run_) /
                    static_cast<double>(config_.window);
    verdict.anomalous = run_ >= config_.window;
    return verdict;
}

void
Flatline::reset()
{
    last_ = 0.0;
    run_ = 0;
}

} // namespace kodan::telemetry::health
