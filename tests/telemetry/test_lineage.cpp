/**
 * @file
 * Lineage suite: the frame-id packing, chain assembly and per-stage
 * attribution math, the mission-driven fixture (spans reconstruct
 * end-to-end latency with compute / contact-wait / queue-wait
 * attribution), JSONL round-trip through the report loader, and
 * byte-identical export at any KODAN_THREADS.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/mission.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace kodan::telemetry {
namespace {

/** Restores lineage state and the thread default on exit. */
class LineageGuard
{
  public:
    LineageGuard() : was_enabled_(lineageEnabled())
    {
        resetAll();
        setLineageEnabled(true);
    }

    ~LineageGuard()
    {
        setLineageEnabled(was_enabled_);
        resetAll();
        util::setGlobalThreads(0);
    }

  private:
    bool was_enabled_;
};

// Unreferenced when telemetry is compiled out (those tests skip).
[[maybe_unused]] std::string
exportJsonl()
{
    std::ostringstream out;
    writeLineageJsonl(collectLineage(), out);
    return out.str();
}

TEST(Lineage, FrameIdPacksSatelliteAndOrdinal)
{
    const std::uint64_t id = lineageFrameId(5, 1234567);
    EXPECT_EQ(lineageSatellite(id), 5u);
    EXPECT_EQ(lineageOrdinal(id), 1234567u);
    EXPECT_EQ(lineageFrameId(0, 0), 0u);
    // Ids order by (satellite, ordinal).
    EXPECT_LT(lineageFrameId(0, 99), lineageFrameId(1, 0));
}

TEST(Lineage, AssemblyAndAttributionMath)
{
    // One frame through the full pipeline, stamps given out of order:
    // captured t=100, decided t=118 (18 s compute), enqueued t=118,
    // first contact t=400, downlinked t=460, received t=460.
    const std::uint64_t id = lineageFrameId(2, 7);
    std::vector<LineageSpan> spans = {
        {id, LineageStage::Downlinked, 460.0},
        {id, LineageStage::Captured, 100.0},
        {id, LineageStage::Received, 460.0},
        {id, LineageStage::Decided, 118.0},
        {id, LineageStage::Contact, 400.0},
        {id, LineageStage::Enqueued, 118.0},
    };
    const auto frames = assembleLineage(spans);
    ASSERT_EQ(frames.size(), 1u);
    const FrameLineage &frame = frames[0];
    EXPECT_TRUE(frame.complete());
    EXPECT_DOUBLE_EQ(frame.endToEndS(), 360.0);
    EXPECT_DOUBLE_EQ(frame.dataAgeAtDownlinkS(), 360.0);
    EXPECT_DOUBLE_EQ(frame.computeS(), 18.0);
    // Waiting for a granted pass: contact − enqueued.
    EXPECT_DOUBLE_EQ(frame.contactWaitS(), 282.0);
    // Behind other traffic once contact existed.
    EXPECT_DOUBLE_EQ(frame.queueWaitS(), 60.0);

    const auto stats = summarizeLineage(frames);
    EXPECT_EQ(stats.frames, 1);
    EXPECT_EQ(stats.downlinked, 1);
    EXPECT_DOUBLE_EQ(stats.mean_end_to_end_s, 360.0);
    EXPECT_DOUBLE_EQ(stats.max_end_to_end_s, 360.0);
    EXPECT_EQ(stats.dominantStage(), "contact-wait");
}

TEST(Lineage, IncompleteChainsStopAtTheirLastStage)
{
    const std::uint64_t discarded = lineageFrameId(0, 1);
    const std::uint64_t stranded = lineageFrameId(0, 2);
    const std::vector<LineageSpan> spans = {
        // Discarded on orbit: stops at `decided`.
        {discarded, LineageStage::Captured, 10.0},
        {discarded, LineageStage::Decided, 28.0},
        // Never got downlink budget: stops at `enqueued`.
        {stranded, LineageStage::Captured, 40.0},
        {stranded, LineageStage::Decided, 58.0},
        {stranded, LineageStage::Enqueued, 58.0},
    };
    const auto frames = assembleLineage(spans);
    ASSERT_EQ(frames.size(), 2u);
    for (const auto &frame : frames) {
        EXPECT_FALSE(frame.complete());
        EXPECT_DOUBLE_EQ(frame.endToEndS(), 0.0);
        EXPECT_DOUBLE_EQ(frame.dataAgeAtDownlinkS(), 0.0);
        EXPECT_DOUBLE_EQ(frame.computeS(), 18.0);
    }
    const auto stats = summarizeLineage(frames);
    EXPECT_EQ(stats.frames, 2);
    EXPECT_EQ(stats.downlinked, 0);
    EXPECT_EQ(stats.dominantStage(), "none");
}

TEST(Lineage, MissionSpansReconstructLatencyWithAttribution)
{
#ifdef KODAN_TELEMETRY_DISABLED
    GTEST_SKIP() << "telemetry compiled out";
#else
    LineageGuard guard;
    sim::MissionConfig config = sim::MissionConfig::landsatConstellation(3);
    config.duration = 6.0 * 3600.0;
    config.scheduler_step = 30.0;
    config.contact_scan_step = 60.0;
    sim::FilterBehavior filter;
    filter.frame_time = 18.0;
    filter.keep_high = 0.95;
    filter.keep_low = 0.05;
    filter.send_unprocessed = false;
    const sim::MissionSim sim(nullptr, 1.0 / 3.0);
    sim.run(config, filter);

    const auto frames = assembleLineage(collectLineage());
    ASSERT_FALSE(frames.empty());
    const auto stats = summarizeLineage(frames);
    EXPECT_GT(stats.frames, 0);
    EXPECT_GT(stats.downlinked, 0);
    // Downlinked chains reconstruct a positive end-to-end latency whose
    // attribution buckets are consistent: e2e = compute + contact-wait
    // + queue-wait for every complete chain (received == downlinked in
    // the current model).
    for (const auto &frame : frames) {
        if (!frame.complete()) {
            continue;
        }
        const double parts = frame.computeS() + frame.contactWaitS() +
                             frame.queueWaitS();
        EXPECT_NEAR(frame.endToEndS(), parts, 1e-6)
            << "frame " << frame.frame_id;
        EXPECT_GT(frame.endToEndS(), 0.0);
        // Stage stamps are monotone in pipeline order.
        EXPECT_LE(frame.at(LineageStage::Captured),
                  frame.at(LineageStage::Decided));
        EXPECT_LE(frame.at(LineageStage::Decided),
                  frame.at(LineageStage::Enqueued));
        EXPECT_LE(frame.at(LineageStage::Enqueued),
                  frame.at(LineageStage::Downlinked));
    }
    EXPECT_GT(stats.mean_end_to_end_s, 0.0);
    EXPECT_GE(stats.max_end_to_end_s, stats.mean_end_to_end_s);
    // On-board compute (18 s/frame) is dwarfed by the orbital-mechanics
    // waits — the attribution must say so.
    EXPECT_LT(stats.mean_compute_s, stats.mean_contact_wait_s);
    EXPECT_NE(stats.dominantStage(), "compute");
#endif
}

TEST(Lineage, ExportBytesInvariantToThreadCount)
{
#ifdef KODAN_TELEMETRY_DISABLED
    GTEST_SKIP() << "telemetry compiled out";
#else
    sim::MissionConfig config = sim::MissionConfig::landsatConstellation(3);
    config.duration = 2.0 * 3600.0;
    config.scheduler_step = 30.0;
    config.contact_scan_step = 60.0;
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    const sim::MissionSim sim(nullptr, 1.0 / 3.0);

    const auto runOnce = [&](int threads) {
        LineageGuard guard;
        util::setGlobalThreads(threads);
        sim.run(config, filter);
        return exportJsonl();
    };

    const std::string serial = runOnce(1);
    EXPECT_NE(serial.find("\"kodan_lineage\": 1"), std::string::npos);
    EXPECT_EQ(serial, runOnce(7));
#endif
}

TEST(Lineage, JsonlRoundTripsThroughReportLoader)
{
#ifdef KODAN_TELEMETRY_DISABLED
    GTEST_SKIP() << "telemetry compiled out";
#else
    LineageGuard guard;
    recordLineageSpan(lineageFrameId(1, 0), LineageStage::Captured, 5.0);
    recordLineageSpan(lineageFrameId(1, 0), LineageStage::Decided, 23.0);
    recordLineageSpan(lineageFrameId(0, 3), LineageStage::Captured, 1.5);
    const auto spans = collectLineage();
    ASSERT_EQ(spans.size(), 3u);
    // Collection sorts by (frame_id, stage).
    EXPECT_EQ(spans[0].frame_id, lineageFrameId(0, 3));
    EXPECT_EQ(spans[1].stage, LineageStage::Captured);
    EXPECT_EQ(spans[2].stage, LineageStage::Decided);

    const std::string path =
        ::testing::TempDir() + "/kodan_lineage_roundtrip.jsonl";
    {
        std::ofstream out(path);
        writeLineageJsonl(spans, out);
    }
    std::vector<LineageSpan> loaded;
    std::string error;
    ASSERT_TRUE(report::loadLineage(path, loaded, &error)) << error;
    std::remove(path.c_str());
    ASSERT_EQ(loaded.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(loaded[i].frame_id, spans[i].frame_id);
        EXPECT_EQ(loaded[i].stage, spans[i].stage);
        EXPECT_DOUBLE_EQ(loaded[i].t_s, spans[i].t_s);
    }
#endif
}

} // namespace
} // namespace kodan::telemetry
