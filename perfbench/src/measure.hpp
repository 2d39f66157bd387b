/**
 * @file
 * The benchmark's one timing helper and its result record.
 *
 * Every timed metric is a set of repetition samples taken by measure():
 * the warm-up calls are run and discarded, then the call is repeated
 * until both a minimum count and a wall budget are reached. A metric is
 * reported as the median of its samples, with the quartiles and the
 * sample count printed beside it.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Repetition samples of one timed quantity. */
struct Samples
{
    std::vector<double> values;

    std::size_t n() const { return values.size(); }
    /** Median (the mean of the middle two for an even count). */
    double median() const;
    /** First and third quartiles, by the "exclusive" method of Python's
     *  statistics.quantiles(n=4); both equal the sample for n = 1. */
    double q1() const;
    double q3() const;
};

/** How long measure() repeats a call. */
struct MeasurePlan
{
    /** Untimed calls before the first sample. */
    int warmup = 1;
    /** Samples taken at least, whatever the budget. */
    int min_reps = 3;
    /** Samples taken at most. */
    int max_reps = 1000;
    /** Keep sampling until this much wall time has been spent. */
    double budget_s = 0.0;
};

/**
 * Time @p fn: run plan.warmup untimed calls, then sample one call per
 * repetition until min_reps samples are taken and budget_s has passed
 * (or max_reps is reached). @p fn gets the repetition index; warm-up
 * calls get negative ones.
 */
Samples measure(const std::function<void(int)> &fn, const MeasurePlan &plan);

/** What one workload run reports. */
struct Result
{
    /** Operations the run checked (frames or satellite-days). */
    std::int64_t attempted = 0;
    /** Operations whose outputs did not verify. */
    std::int64_t failed = 0;
    /** False if any check failed. */
    bool correct = true;
    /** Reported metric values by name (units: main.cpp's tables). */
    std::map<std::string, double> metrics;
    /** Sample sets behind the timed metrics, by name. */
    std::map<std::string, Samples> samples;
    /** Hash of the generated inputs, printed in the run record. */
    std::uint64_t input_digest = 0;
    /** Global pool threads during the timed section. */
    int threads = 0;

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
    /** Record a failed check on @p ops operations, with a reason on
     *  stderr. */
    void fail(std::int64_t ops, const std::string &why);
};

/** One row of a share table. */
struct ShareRow
{
    std::string layer;
    double value = 0.0;
};

/**
 * Print a share table: each row's value and its share of @p wall, then
 * an `unattributed` row holding wall minus the rows, so the printed
 * values sum to @p wall exactly. Returns the unattributed value.
 */
double printShareTable(const std::string &title, const std::string &unit,
                       const std::vector<ShareRow> &rows, double wall);

/** FNV-1a over raw bytes, folded into @p h. */
std::uint64_t digestBytes(std::uint64_t h, const void *data,
                          std::size_t size);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
