#include "measure.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

namespace perfbench {

namespace {

std::vector<double>
sorted(const std::vector<double> &values)
{
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    return v;
}

/** Quartile i (1 or 3) of sorted data, Python's "exclusive" method. */
double
quartile(const std::vector<double> &v, int i)
{
    const auto n = static_cast<long>(v.size());
    if (n == 0) {
        return 0.0;
    }
    if (n == 1) {
        return v[0];
    }
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
}

} // namespace

double
Samples::median() const
{
    if (values.empty()) {
        return 0.0;
    }
    const auto v = sorted(values);
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double
Samples::q1() const
{
    return quartile(sorted(values), 1);
}

double
Samples::q3() const
{
    return quartile(sorted(values), 3);
}

Samples
measure(const std::function<void(int)> &fn, const MeasurePlan &plan)
{
    for (int w = 0; w < plan.warmup; ++w) {
        fn(-1 - w);
    }
    Samples samples;
    const double start = now();
    for (int rep = 0; rep < plan.max_reps; ++rep) {
        if (rep >= plan.min_reps && now() - start >= plan.budget_s) {
            break;
        }
        const double t0 = now();
        fn(rep);
        samples.values.push_back(now() - t0);
    }
    return samples;
}

void
Result::fail(std::int64_t ops, const std::string &why)
{
    failed += ops;
    correct = false;
    std::cerr << "[perfbench] VERIFY FAILED: " << why << "\n";
}

double
printShareTable(const std::string &title, const std::string &unit,
                const std::vector<ShareRow> &rows, double wall)
{
    double attributed = 0.0;
    for (const auto &row : rows) {
        attributed += row.value;
    }
    const double unattributed = wall - attributed;
    const auto line = [&](const std::string &layer, double value) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "  %-28s %14.6f %-4s %7.2f%%\n",
                      layer.c_str(), value, unit.c_str(),
                      wall > 0.0 ? 100.0 * value / wall : 0.0);
        std::cout << buf;
    };
    std::cout << "share table: " << title << "\n";
    for (const auto &row : rows) {
        line(row.layer, row.value);
    }
    line("unattributed", unattributed);
    line("= 1-thread wall", wall);
    return unattributed;
}

std::uint64_t
digestBytes(std::uint64_t h, const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace perfbench
