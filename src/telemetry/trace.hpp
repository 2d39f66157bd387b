/**
 * @file
 * Scoped-span tracer with per-thread ring buffers and a Chrome
 * `trace_event` JSON export (load the file at chrome://tracing or
 * https://ui.perfetto.dev).
 *
 * Each thread records into its own fixed-capacity ring (oldest events
 * overwritten), registered with the global Tracer on first use. Buffers
 * are owned by the Tracer and never freed, so worker threads that exit
 * (e.g. when `util::setGlobalThreads` rebuilds the pool) leave their
 * events collectable. Timestamps are steady-clock microseconds since
 * tracer start — wall-clock data, intentionally outside the repo's
 * determinism contract; spans never read the clock while telemetry is
 * disabled. Spans are recorded by ScopeRecord (below), which also feeds
 * the scope's metrics Timer and span counter row from one pair of
 * clock readings.
 */

#ifndef KODAN_TELEMETRY_TRACE_HPP
#define KODAN_TELEMETRY_TRACE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/perf_counters.hpp"

namespace kodan::telemetry {

/** One completed span or instant event. */
struct TraceEvent
{
    std::string name;
    /** Start, microseconds since tracer start. */
    double start_us = 0.0;
    /** Duration in microseconds; < 0 marks an instant event. */
    double dur_us = 0.0;
    /** Recording thread's trace id. */
    int tid = 0;
};

/**
 * Fixed-capacity overwrite-oldest event ring of one thread. Pushes are
 * effectively uncontended (only the owning thread writes); the mutex
 * exists so collect()/reset() from another thread are race-free.
 */
class TraceRing
{
  public:
    TraceRing(int tid, std::size_t capacity);

    /** Record an event with owned text (instants). */
    void push(TraceEvent event);

    /**
     * Record a completed span on the ring's thread. The ring keeps the
     * @p name pointer, not a copy, so the push never allocates; every
     * span site names a string literal, which outlives the ring.
     */
    void pushSpan(const char *name, double start_us, double dur_us);

    /** Events in recording order (oldest first). */
    std::vector<TraceEvent> events() const;

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const;

    void clear();

    int tid() const { return tid_; }

  private:
    /** A span's literal name, or null when @c event.name holds the
     *  text; a span leaves the slot's old text in place, unread. */
    struct Slot
    {
        const char *span = nullptr;
        TraceEvent event;
    };

    /** Count the slot at head_ written and move past it. */
    void advance();

    mutable std::mutex mutex_;
    std::vector<Slot> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    int tid_;
};

/**
 * The process-wide tracer: hands each thread its ring and merges them
 * for export.
 */
class Tracer
{
  public:
    /** Events each thread's ring holds before overwriting. */
    static constexpr std::size_t kRingCapacity = 8192;

    static Tracer &instance();

    /** The calling thread's ring (created and registered on first use). */
    TraceRing &threadRing();

    /** Record a completed span on the calling thread, from the two
     *  steady-clock readings of a ScopeRecord; @p name is a string
     *  literal (TraceRing::pushSpan). */
    void recordSpan(const char *name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::duration elapsed);

    /** Record an instant event on the calling thread. */
    void recordInstant(std::string name);

    /** All threads' events merged and sorted by start time. */
    std::vector<TraceEvent> collect() const;

    /** Total events overwritten across all rings. */
    std::uint64_t droppedEvents() const;

    /** Drop all recorded events (rings stay registered). */
    void reset();

  private:
    Tracer();

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<TraceRing>> rings_;
    int next_tid_ = 1;
};

/**
 * The one per-scope measurement record behind KODAN_TIME_SCOPE,
 * KODAN_TRACE_SPAN and KODAN_TRACE_SCOPE. Each part is optional: a
 * metrics Timer, a trace span name (a string literal), and a span
 * counter site. The steady clock is read once on entry and once on
 * exit, and only when a timer or a span is present; the timer's
 * seconds and the span's start and duration come from those same two
 * readings. The counter site reads the thread's counters
 * (perf_counters.hpp) inside that window. An all-null record reads
 * nothing, which is the disabled fast path.
 */
class ScopeRecord
{
  public:
    ScopeRecord(Timer *timer, const char *span, prof::SpanSite *site)
        : timer_(timer), span_(span), site_(site)
    {
        if (timer_ != nullptr || span_ != nullptr || site_ != nullptr) {
            begin();
        }
    }

    ScopeRecord(const ScopeRecord &) = delete;
    ScopeRecord &operator=(const ScopeRecord &) = delete;

    ~ScopeRecord()
    {
        if (timer_ != nullptr || span_ != nullptr || site_ != nullptr) {
            end();
        }
    }

  private:
    /** Entry readings: the clock, then the thread's counters. Kept out
     *  of line so the disabled path inlines to three null tests. */
    void begin();
    /** Exit readings in reverse order, then record each part. */
    void end();

    Timer *timer_;
    const char *span_;
    prof::SpanSite *site_;
    std::chrono::steady_clock::time_point start_{};
    prof::CounterReading counters_{};
};

} // namespace kodan::telemetry

#endif // KODAN_TELEMETRY_TRACE_HPP
