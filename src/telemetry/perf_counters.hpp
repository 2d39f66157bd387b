/**
 * @file
 * kodan::telemetry::prof — per-span hardware counter attribution.
 *
 * Every `KODAN_TRACE_SCOPE` site can charge the CPU cost of its scope
 * (cycles, instructions, LLC misses, branch misses, task-clock) to a
 * named span row. Counters come from a per-thread `perf_event_open`
 * group when the kernel allows self-profiling; when it does not
 * (containers, CI, locked-down perf_event_paranoid), the reader falls
 * back to software counters (CLOCK_THREAD_CPUTIME_ID) and the exported
 * table is marked `source: "rusage"` so downstream diffs know the
 * hardware columns are absent rather than zero.
 *
 * Determinism contract: span counter state lives entirely outside the
 * metrics registry, the journal, and the time series — enabling it
 * never changes a byte of those outputs (bench_prof --verify). Span
 * *call counts* are exact sharded integer sums and are deterministic at
 * any KODAN_THREADS; the counter columns read real hardware and are
 * not.
 *
 * Overhead: one relaxed atomic load per site while disabled (the macro
 * passes a null site); one group `read(2)` (or two `clock_gettime`
 * calls in fallback) per scope entry/exit while enabled.
 */

#ifndef KODAN_TELEMETRY_PERF_COUNTERS_HPP
#define KODAN_TELEMETRY_PERF_COUNTERS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace kodan::telemetry::prof {

/** Where counter values come from (process-wide, resolved on the first
 *  thread to read). */
enum class CounterSource
{
    /** Not yet resolved: no thread has read counters. */
    Unresolved,
    /** perf_event_open hardware group (all five columns live). */
    PerfEvent,
    /** Software fallback: thread CPU clock only; hardware columns 0. */
    Rusage,
};

/** One point-in-time reading of the calling thread's counters. */
struct CounterReading
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t branch_misses = 0;
    /** perf task-clock, or CLOCK_THREAD_CPUTIME_ID in fallback (ns). */
    std::uint64_t task_clock_ns = 0;
};

namespace detail {

/** 0 = off, 1 = on. Relaxed fast path mirror of metrics::g_enabled. */
extern std::atomic<int> g_counters_enabled;

} // namespace detail

/** Is per-span counter attribution on? One relaxed load. */
inline bool
countersEnabled()
{
    return detail::g_counters_enabled.load(std::memory_order_relaxed) !=
           0;
}

/** Turn per-span counter attribution on or off. */
void setCountersEnabled(bool on);

/** Resolved counter source ("perf_event" vs "rusage"); resolving reads
 *  the calling thread's counters once if no thread has yet. */
CounterSource counterSource();

/** "perf_event" / "rusage" / "unresolved". */
const char *counterSourceName();

/**
 * Test hook: force every subsequent perf_event_open attempt to fail
 * with @p err (e.g. ENOSYS, EACCES) so the rusage fallback path is
 * testable on hosts where perf_event works. 0 clears the hook. Only
 * affects threads that have not opened their counters yet, so tests
 * should exercise it from a fresh thread.
 */
void setPerfForceErrnoForTest(int err);

/** errno of the first failed perf_event_open (0 = none failed). */
int perfOpenErrno();

/**
 * Read the calling thread's counters now. Opens the per-thread
 * perf_event group lazily on first use (outside any signal context);
 * falls back to software counters on open failure. Never blocks on a
 * lock after the first call per thread.
 *
 * @return false only if even the fallback clock read failed.
 */
bool readThreadCounters(CounterReading &out);

/**
 * One named span's accumulated counter totals. Writes go to
 * cache-line-padded per-thread shards (same sharding as the metrics
 * registry) so concurrent scopes never contend; totals are exact
 * integer sums merged in shard-index order.
 */
class SpanSite
{
  public:
    /** Charge end - start (saturating at 0 per column) plus one call. */
    void accumulate(const CounterReading &start,
                    const CounterReading &end);

    std::int64_t calls() const;
    CounterReading totals() const;
    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::int64_t> calls{0};
        std::atomic<std::uint64_t> cycles{0};
        std::atomic<std::uint64_t> instructions{0};
        std::atomic<std::uint64_t> llc_misses{0};
        std::atomic<std::uint64_t> branch_misses{0};
        std::atomic<std::uint64_t> task_clock_ns{0};
    };

    Shard shards_[kMetricShards];
};

/** Registry lookup, mutex-guarded and idempotent by name; the returned
 *  reference lives for the process (macros cache it per site). */
SpanSite &spanSite(const std::string &name);

/** One exported span row. */
struct SpanCounterRow
{
    std::string name;
    std::int64_t calls = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t branch_misses = 0;
    std::uint64_t task_clock_ns = 0;
};

/** The merged span table. */
struct SpanTableSnapshot
{
    /** "perf_event" / "rusage" / "unresolved". */
    std::string source;
    /** Rows sorted by name. */
    std::vector<SpanCounterRow> rows;
};

/** Merged view of every span site, sorted by name. */
SpanTableSnapshot spanTableSnapshot();

/** Zero every span site (registrations persist). */
void resetSpanTable();

} // namespace kodan::telemetry::prof

#endif // KODAN_TELEMETRY_PERF_COUNTERS_HPP
