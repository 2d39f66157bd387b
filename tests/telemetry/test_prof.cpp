/**
 * @file
 * CPU profiling plane suite: the perf_event -> rusage fallback under
 * forced open failures (ENOSYS, EACCES) still yields well-formed span
 * tables marked `source: "rusage"`; span counters accumulate exactly
 * across threads; the sampling profiler produces parseable folded
 * stacks; sampled frames symbolize to the right function, leaf pcs
 * included; and the profile diff ranks a pessimized kernel first.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"

namespace kodan::telemetry::prof {

/** Symbolization probe: external linkage, so the executable exports it
 *  (-rdynamic) and dladdr can name its entry address. */
__attribute__((noinline)) int
profLeafProbe(int x)
{
    return x * 3 + 1;
}

namespace {

namespace report = kodan::telemetry::report;

/** Clears the counter plane, the profiler, and the test hook on exit. */
class ProfGuard
{
  public:
    ProfGuard()
    {
        setCountersEnabled(false);
        setPerfForceErrnoForTest(0);
        resetSpanTable();
        resetProfile();
    }

    ~ProfGuard()
    {
        stopSampler();
        setCountersEnabled(false);
        setPerfForceErrnoForTest(0);
        resetSpanTable();
        resetProfile();
    }
};

/** Burn CPU long enough for the thread clock to advance. */
double
burn()
{
    double x = 0.0;
    for (int k = 0; k < 400000; ++k) {
        x += static_cast<double>(k % 17) * 0.5;
    }
    return x;
}

const SpanCounterRow *
findRow(const SpanTableSnapshot &table, const std::string &name)
{
    for (const SpanCounterRow &row : table.rows) {
        if (row.name == name) {
            return &row;
        }
    }
    return nullptr;
}

TEST(ProfCounters, ForcedOpenFailureFallsBackToRusage)
{
    ProfGuard guard;
    for (int err : {ENOSYS, EACCES}) {
        SCOPED_TRACE("forced errno " + std::to_string(err));
        resetSpanTable();
        setPerfForceErrnoForTest(err);
        setCountersEnabled(true);
        double sink = 0.0;
        // A fresh thread has not opened its counters yet, so it takes
        // the forced-failure path instead of inheriting a verdict.
        std::thread worker([&sink] {
            SpanSite &site = spanSite("test.prof.fallback");
            for (int i = 0; i < 8; ++i) {
                ScopeRecord scope(nullptr, nullptr, &site);
                sink += burn();
            }
        });
        worker.join();
        setCountersEnabled(false);
        EXPECT_NE(sink, 0.0);

        EXPECT_EQ(perfOpenErrno(), err);
        EXPECT_EQ(counterSource(), CounterSource::Rusage);
        const SpanTableSnapshot table = spanTableSnapshot();
        EXPECT_EQ(table.source, "rusage");
        const SpanCounterRow *row = findRow(table, "test.prof.fallback");
        ASSERT_NE(row, nullptr);
        EXPECT_EQ(row->calls, 8);
        EXPECT_GT(row->task_clock_ns, 0u);
        // The software fallback reads no hardware counters.
        EXPECT_EQ(row->cycles, 0u);
        EXPECT_EQ(row->instructions, 0u);
        setPerfForceErrnoForTest(0);
    }
}

TEST(ProfCounters, FallbackSpanTableRoundTripsThroughProfileJson)
{
    ProfGuard guard;
    setPerfForceErrnoForTest(ENOSYS);
    setCountersEnabled(true);
    std::thread worker([] {
        SpanSite &site = spanSite("test.prof.roundtrip");
        for (int i = 0; i < 5; ++i) {
            ScopeRecord scope(nullptr, nullptr, &site);
            burn();
        }
    });
    worker.join();
    setCountersEnabled(false);

    std::ostringstream os;
    writeProfileJson(snapshotProfile(), os);
    report::ProfileDoc doc;
    std::string error;
    ASSERT_TRUE(report::parseProfile(os.str(), doc, &error)) << error;
    EXPECT_EQ(doc.span_source, "rusage");
    const report::ProfileSpanRow *row =
        doc.findSpan("test.prof.roundtrip");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, 5u);
    EXPECT_GT(row->task_clock_ns, 0u);
}

TEST(ProfCounters, SpanCallsAccumulateExactlyAcrossThreads)
{
    ProfGuard guard;
    setCountersEnabled(true);
    SpanSite &site = spanSite("test.prof.parallel");
    constexpr int kThreads = 4;
    constexpr int kScopesPerThread = 64;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&site] {
            for (int i = 0; i < kScopesPerThread; ++i) {
                ScopeRecord scope(nullptr, nullptr, &site);
                burn();
            }
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }
    setCountersEnabled(false);
    const SpanTableSnapshot table = spanTableSnapshot();
    const SpanCounterRow *row = findRow(table, "test.prof.parallel");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->calls, kThreads * kScopesPerThread);
    EXPECT_GT(row->task_clock_ns, 0u);
}

TEST(ProfSampler, SmokeProducesParseableFoldedStacks)
{
    if (!samplerSupported()) {
        GTEST_SKIP() << "sampler unsupported on this platform/build";
    }
    ProfGuard guard;
    SamplerOptions options;
    options.hz = 997;
    ASSERT_TRUE(startSampler(options));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
    double sink = 0.0;
    while (std::chrono::steady_clock::now() < deadline) {
        sink += burn();
    }
    stopSampler();
    EXPECT_NE(sink, 0.0);

    const ProfileSnapshot snapshot = snapshotProfile();
    EXPECT_GT(snapshot.samples, 10u);
    ASSERT_FALSE(snapshot.stacks.empty());
    ASSERT_FALSE(snapshot.frames.empty());
    EXPECT_EQ(snapshot.period_us, 1000000 / 997);

    // Folded format: `frame;frame;leaf count` per line, count numeric —
    // what flamegraph.pl and speedscope ingest.
    std::ostringstream os;
    writeFolded(snapshot, os);
    std::istringstream lines(os.str());
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_LT(space + 1, line.size()) << line;
        for (std::size_t i = space + 1; i < line.size(); ++i) {
            EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i])))
                << line;
        }
        // Frame names never embed ';' (the exporter rewrites them), so
        // the stack splits unambiguously.
        EXPECT_EQ(line.substr(0, space).find(";;"), std::string::npos);
        ++parsed;
    }
    EXPECT_EQ(parsed, snapshot.stacks.size());
}

/** Minimal span row for the synthetic diff tests. */
report::ProfileSpanRow
spanRow(const std::string &name, std::uint64_t calls,
        std::uint64_t task_clock_ns)
{
    report::ProfileSpanRow row;
    row.name = name;
    row.calls = calls;
    row.task_clock_ns = task_clock_ns;
    return row;
}

report::ProfileDoc
syntheticProfile(std::uint64_t gemm_ns)
{
    report::ProfileDoc doc;
    doc.period_us = 1003;
    doc.samples = 100;
    doc.threads = 1;
    doc.span_source = "rusage";
    doc.spans.push_back(spanRow("ml.kernels.gemm", 60, gemm_ns));
    doc.spans.push_back(
        spanRow("runtime.frame.process", 384, 150000000));
    return doc;
}

TEST(ProfDiff, RanksPessimizedKernelFirst)
{
    const report::ProfileDoc base = syntheticProfile(140000000);
    const report::ProfileDoc cur = syntheticProfile(290000000);
    const report::ProfileDiffResult diff = report::diffProfiles(base, cur);
    ASSERT_FALSE(diff.spans.empty());
    EXPECT_EQ(diff.spans.front().name, "ml.kernels.gemm");
    EXPECT_FALSE(diff.spans_use_cycles); // rusage runs rank by task-clock
}

TEST(ProfSymbols, LeafPcAtFunctionEntryNamesThatFunction)
{
#if !defined(__linux__)
    GTEST_SKIP() << "symbolization needs dladdr";
#else
    EXPECT_EQ(profLeafProbe(1), 4);
    const auto entry = reinterpret_cast<std::uintptr_t>(&profLeafProbe);
    // An interrupted pc at the first instruction is looked up as-is...
    EXPECT_NE(symbolizeFrame(entry, true).find("profLeafProbe"),
              std::string::npos)
        << symbolizeFrame(entry, true);
    // ...while a return address is looked up at pc-1, inside its caller.
    EXPECT_NE(symbolizeFrame(entry + 1, false).find("profLeafProbe"),
              std::string::npos)
        << symbolizeFrame(entry + 1, false);
#endif
}

} // namespace
} // namespace kodan::telemetry::prof
