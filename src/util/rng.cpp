#include "util/rng.hpp"

#include <cassert>
#include <cmath>

#include "util/units.hpp"

namespace kodan::util {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : spareNormal_(0.0), hasSpareNormal_(false)
{
    std::uint64_t s = seed;
    for (auto &word : state_) {
        s = splitMix64(s);
        word = s;
    }
    // xoshiro must not start in the all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
        state_[0] = 0x9e3779b97f4a7c15ULL;
    }
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    assert(hi >= lo);
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    assert(hi >= lo);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) { // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    }
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t draw;
    do {
        draw = nextU64();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = radius * std::sin(kTwoPi * u2);
    hasSpareNormal_ = true;
    return radius * std::cos(kTwoPi * u2);
}

double
Rng::normal(double mean, double stddev)
{
    assert(stddev >= 0.0);
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        assert(w >= 0.0);
        total += w;
    }
    assert(total > 0.0);
    double draw = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0) {
            return i;
        }
    }
    return weights.size() - 1; // numeric fallback
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) {
        perm[i] = i;
    }
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

Rng
Rng::split(std::uint64_t stream_id)
{
    return Rng(splitMix64(nextU64() ^ splitMix64(stream_id)));
}

} // namespace kodan::util
