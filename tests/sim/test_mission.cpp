/** @file Unit tests for the mission simulator. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "data/geomodel.hpp"
#include "sim/constellation.hpp"
#include "sim/mission.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace kodan::sim {
namespace {

MissionConfig
shortConfig(int sats, double hours = 6.0)
{
    MissionConfig config = MissionConfig::landsatConstellation(sats);
    config.duration = hours * 3600.0;
    config.scheduler_step = 20.0;
    config.contact_scan_step = 60.0;
    return config;
}

TEST(MissionSim, BentPipeDvdEqualsPrevalence)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const auto result = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto totals = result.totals();
    ASSERT_GT(totals.bits_downlinked, 0.0);
    EXPECT_NEAR(totals.high_bits_downlinked / totals.bits_downlinked,
                1.0 / 3.0, 0.08);
    EXPECT_EQ(totals.frames_processed, 0);
}

TEST(MissionSim, IdealFilterBeatsBentPipe)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const auto config = shortConfig(1);
    const auto bent = sim.run(config, FilterBehavior::bentPipe()).totals();
    const auto ideal =
        sim.run(config, FilterBehavior::idealFilter()).totals();
    EXPECT_GT(ideal.high_bits_downlinked, 1.5 * bent.high_bits_downlinked);
    // Ideal filter downlinks only high-value data.
    EXPECT_NEAR(ideal.high_bits_downlinked / ideal.bits_downlinked, 1.0,
                1e-9);
}

TEST(MissionSim, DownlinkBoundedByContactCapacity)
{
    const MissionSim sim(nullptr, 0.5);
    const auto config = shortConfig(1);
    const auto result = sim.run(config, FilterBehavior::bentPipe());
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.bits_downlinked,
                  config.radio.datarate_bps * sat.contact_seconds + 1.0);
    }
}

TEST(MissionSim, ObservationScalesWithConstellation)
{
    const MissionSim sim(nullptr, 0.5);
    const auto one = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto four = sim.run(shortConfig(4), FilterBehavior::bentPipe());
    EXPECT_NEAR(static_cast<double>(four.totals().frames_observed),
                4.0 * one.totals().frames_observed, 8.0);
}

TEST(MissionSim, DownlinkSaturatesWithConstellation)
{
    // Frames downlinked grow sublinearly once stations saturate.
    const MissionSim sim(nullptr, 0.5);
    const auto one = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto many = sim.run(shortConfig(12), FilterBehavior::bentPipe());
    const double growth = many.totals().frames_downlinked /
                          one.totals().frames_downlinked;
    EXPECT_LT(growth, 12.0);
    EXPECT_GT(growth, 1.0);
}

TEST(MissionSim, IdleStationTimeShrinksWithMoreSatellites)
{
    const MissionSim sim(nullptr, 0.5);
    const auto one = sim.run(shortConfig(1), FilterBehavior::bentPipe());
    const auto many = sim.run(shortConfig(8), FilterBehavior::bentPipe());
    EXPECT_LT(many.idle_station_seconds, one.idle_station_seconds);
}

TEST(MissionSim, SlowFilterProcessesFractionOfFrames)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    FilterBehavior slow;
    slow.frame_time = 98.0; // paper's direct-deploy example
    slow.keep_high = 1.0;
    slow.keep_low = 0.0;
    const auto result = sim.run(shortConfig(1), slow).totals();
    const double deadline = result.frame_deadline;
    const double expected_fraction = deadline / 98.0;
    const double actual_fraction =
        static_cast<double>(result.frames_processed) /
        result.frames_observed;
    EXPECT_NEAR(actual_fraction, expected_fraction, 0.05);
}

TEST(MissionSim, FastFilterProcessesEverything)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    FilterBehavior fast;
    fast.frame_time = 1.0;
    const auto result = sim.run(shortConfig(1), fast).totals();
    EXPECT_EQ(result.frames_processed, result.frames_observed);
}

TEST(MissionSim, WorldBackedValuesAreFractional)
{
    const data::GeoModel world;
    const MissionSim sim(&world);
    const auto result =
        sim.run(shortConfig(1, 3.0), FilterBehavior::bentPipe()).totals();
    // High-value fraction should be strictly between 0 and 1.
    ASSERT_GT(result.bits_observed, 0.0);
    const double prevalence =
        result.high_bits_observed / result.bits_observed;
    EXPECT_GT(prevalence, 0.2);
    EXPECT_LT(prevalence, 0.8);
}

TEST(MissionSim, FrameDeadlineMatchesCamera)
{
    const MissionSim sim(nullptr, 0.5);
    const auto result =
        sim.run(shortConfig(1, 2.0), FilterBehavior::bentPipe());
    EXPECT_NEAR(result.per_satellite[0].frame_deadline, 22.2, 0.3);
}

TEST(MissionSim, ProductPrioritizationBeatsFifo)
{
    // A slow, perfect filter: with product prioritization the few
    // filtered (all-high) frames jump the queue; in FIFO order they mix
    // with the raw backlog, lowering the downlinked value.
    const MissionSim sim(nullptr, 1.0 / 3.0);
    FilterBehavior priority;
    priority.frame_time = 98.0;
    priority.keep_high = 1.0;
    priority.keep_low = 0.0;
    priority.prioritize_products = true;
    FilterBehavior fifo = priority;
    fifo.prioritize_products = false;

    const auto config = shortConfig(1);
    const auto with_priority = sim.run(config, priority).totals();
    const auto with_fifo = sim.run(config, fifo).totals();
    EXPECT_GT(with_priority.high_bits_downlinked,
              with_fifo.high_bits_downlinked);
}

TEST(MissionSim, FifoStillConservesBits)
{
    const MissionSim sim(nullptr, 0.5);
    FilterBehavior fifo;
    fifo.frame_time = 50.0;
    fifo.keep_high = 0.9;
    fifo.keep_low = 0.3;
    fifo.prioritize_products = false;
    const auto result = sim.run(shortConfig(2), fifo);
    for (const auto &sat : result.per_satellite) {
        EXPECT_LE(sat.high_bits_downlinked, sat.bits_downlinked + 1e-3);
        EXPECT_LE(sat.bits_downlinked,
                  result.per_satellite[0].contact_seconds == 0.0
                      ? 1e18
                      : 210.0e6 * sat.contact_seconds + 1.0);
    }
}

TEST(MissionSim, HighValueYieldIsAFraction)
{
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const auto result =
        sim.run(shortConfig(2), FilterBehavior::idealFilter());
    for (const auto &sat : result.per_satellite) {
        EXPECT_GE(sat.highValueYield(), 0.0);
        EXPECT_LE(sat.highValueYield(), 1.0 + 1e-9);
    }
}

TEST(FrameValueFraction, MatchesNinePointCloudyLoop)
{
    // The value model's lattice query must equal its definition: 9
    // cloudyAt calls over the pole-clamped 3x3 footprint lattice.
    const data::GeoModel world;
    const double spread = 50.0e3 / util::kEarthRadius;
    util::Rng points(41);
    for (int i = 0; i < 3000; ++i) {
        orbit::Geodetic center{points.uniform(-util::kPi / 2.0,
                                              util::kPi / 2.0),
                               points.uniform(-util::kPi, util::kPi), 0.0};
        if (i % 7 == 0) {
            center.latitude = (i % 2 == 0 ? 1.0 : -1.0) * util::kPi / 2.0;
        }
        if (i % 11 == 0) {
            center.longitude = util::kPi;
        }
        const double time = points.uniform(0.0, 5.0e5);
        int clear = 0;
        for (int dr = -1; dr <= 1; ++dr) {
            for (int dc = -1; dc <= 1; ++dc) {
                const double lat = util::clamp(
                    center.latitude + dr * spread, -util::kPi / 2.0 + 1e-6,
                    util::kPi / 2.0 - 1e-6);
                const double lon = center.longitude + dc * spread;
                clear += world.cloudyAt(lat, lon, time) ? 0 : 1;
            }
        }
        util::Rng rng(1);
        ASSERT_EQ(frameValueFraction(&world, 0.5, center, time, rng),
                  clear / 9.0);
    }
}


// Golden pins: the exact outputs of the mission engine on a handful of
// scenarios. Every SatelliteResult field and the station idle/busy
// seconds are pinned bit-for-bit from a run with recording off; a
// second run with metrics, journal and lineage on must reproduce them
// and is pinned by FNV-1a digests of the journal, time-series and
// lineage exports. Any change to the engine's arithmetic, RNG draw
// order or recorder output shows up here.

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Per satellite the nine SatelliteResult fields, then idle and busy
 *  station seconds, as raw bits. */
std::vector<std::uint64_t>
resultBits(const MissionResult &result)
{
    std::vector<std::uint64_t> bits;
    for (const auto &sat : result.per_satellite) {
        bits.push_back(std::bit_cast<std::uint64_t>(sat.frames_observed));
        bits.push_back(std::bit_cast<std::uint64_t>(sat.frames_processed));
        bits.push_back(std::bit_cast<std::uint64_t>(sat.frames_downlinked));
        bits.push_back(std::bit_cast<std::uint64_t>(sat.bits_observed));
        bits.push_back(
            std::bit_cast<std::uint64_t>(sat.high_bits_observed));
        bits.push_back(std::bit_cast<std::uint64_t>(sat.bits_downlinked));
        bits.push_back(
            std::bit_cast<std::uint64_t>(sat.high_bits_downlinked));
        bits.push_back(std::bit_cast<std::uint64_t>(sat.contact_seconds));
        bits.push_back(std::bit_cast<std::uint64_t>(sat.frame_deadline));
    }
    bits.push_back(std::bit_cast<std::uint64_t>(result.idle_station_seconds));
    bits.push_back(std::bit_cast<std::uint64_t>(result.busy_station_seconds));
    return bits;
}

/** Result bits of an unrecorded run followed by the export digests of
 *  a fully recorded one (whose result must match the first). */
std::vector<std::uint64_t>
goldenPins(const std::function<MissionResult()> &run)
{
    const bool metrics_were_enabled = telemetry::enabled();
    const bool journal_was_enabled = telemetry::journalEnabled();
    const bool lineage_was_enabled = telemetry::lineageEnabled();
    const std::size_t saved_ring = telemetry::journalRingCapacity();

    telemetry::resetAll();
    telemetry::setEnabled(false);
    telemetry::setJournalEnabled(false);
    telemetry::setLineageEnabled(false);
    std::vector<std::uint64_t> pins = resultBits(run());

    telemetry::resetAll();
    telemetry::setEnabled(true);
    telemetry::setJournalEnabled(true);
    telemetry::setJournalRingCapacity(0);
    telemetry::setLineageEnabled(true);
    EXPECT_EQ(resultBits(run()), pins) << "recording changed the result";
    std::ostringstream journal;
    telemetry::writeJournalJsonl(telemetry::collectJournal(),
                                 telemetry::journalDroppedEvents(), journal);
    std::ostringstream series;
    telemetry::writeTimeSeriesJson(telemetry::timeSeriesSnapshot(), series);
    std::ostringstream lineage;
    telemetry::writeLineageJsonl(telemetry::collectLineage(), lineage);
    pins.push_back(fnv1a(journal.str()));
    pins.push_back(fnv1a(series.str()));
    pins.push_back(fnv1a(lineage.str()));

    telemetry::setEnabled(metrics_were_enabled);
    telemetry::setJournalEnabled(journal_was_enabled);
    telemetry::setLineageEnabled(lineage_was_enabled);
    telemetry::setJournalRingCapacity(saved_ring);
    telemetry::resetAll();
    return pins;
}

/** The pins this build reproduces: with telemetry compiled out nothing
 *  is recorded, so the journal, series and lineage digests that end
 *  @p pins are dropped and only the result bits are compared. */
std::vector<std::uint64_t>
comparablePins(std::vector<std::uint64_t> pins)
{
#ifdef KODAN_TELEMETRY_DISABLED
    pins.resize(pins.size() - 3);
#endif
    return pins;
}

std::string
formatPins(const std::vector<std::uint64_t> &pins)
{
    std::string out = "{";
    for (std::size_t i = 0; i < pins.size(); ++i) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(pins[i]));
        out += (i % 3 == 0 ? "\n    " : " ");
        out += hex;
        out += i + 1 < pins.size() ? "," : "}";
    }
    return out;
}

/** A Kodan-like filter slower than the frame deadline (~22 s), so only
 *  part of the frames are processed, shipping half-size products. */
FilterBehavior
slowProductFilter()
{
    FilterBehavior filter;
    filter.frame_time = 30.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.2;
    filter.product_fraction = 0.5;
    return filter;
}

// The resultBits of each case, then its journal, series and lineage
// digests.
const std::vector<std::uint64_t> kBentPipePins = {
    0x0000000000000f2fULL, 0x0000000000000000ULL, 0x4087595d1745d174ULL,
    0x42af1c1ca3280000ULL, 0x429495cbb0200000ULL, 0x4287eb89ffdc0000ULL,
    0x427015012bb80000ULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000000ULL, 0x408616ba2e8ba2e9ULL,
    0x42af1c1ca3280000ULL, 0x429427278f900000ULL, 0x4286a1033ee80000ULL,
    0x426bea98cf000000ULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000000ULL, 0x40855d8ba2e8ba2fULL,
    0x42af1c1ca3280000ULL, 0x429514d3fb700000ULL, 0x4285e34d61940000ULL,
    0x426edc987d800000ULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0x433d21cd1c40a5ecULL,
    0x55d4434e86efc886ULL, 0xfb83e982f34c1dedULL};

const std::vector<std::uint64_t> kIdealFilterPins = {
    0x0000000000000f2fULL, 0x0000000000000f2fULL, 0x4087595d1745d174ULL,
    0x42af1c1ca3280000ULL, 0x429495cbb0200000ULL, 0x4287eb89ffdc0000ULL,
    0x4287eb89ffdc0000ULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000f2fULL, 0x408616ba2e8ba2e9ULL,
    0x42af1c1ca3280000ULL, 0x429427278f900000ULL, 0x4286a1033ee80000ULL,
    0x4286a1033ee80000ULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000f2fULL, 0x40855d8ba2e8ba2fULL,
    0x42af1c1ca3280000ULL, 0x429514d3fb700000ULL, 0x4285e34d61940000ULL,
    0x4285e34d61940000ULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0xce5886b393820d34ULL,
    0xdbd5289587dd92c9ULL, 0x0e286f8ed22d5be6ULL};

const std::vector<std::uint64_t> kSlowProductsPins = {
    0x0000000000000f2fULL, 0x0000000000000b45ULL, 0x4087595d1745d174ULL,
    0x42af1c1ca3280000ULL, 0x429416c364d00000ULL, 0x4287eb89ffdc0000ULL,
    0x427cf3a6bc780000ULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b6bULL, 0x408616ba2e8ba2e9ULL,
    0x42af1c1ca3280000ULL, 0x4294c6f830600000ULL, 0x4286a1033ee80000ULL,
    0x427dc35614500000ULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b12ULL, 0x40855d8ba2e8ba2fULL,
    0x42af1c1ca3280000ULL, 0x4294e3a77b300000ULL, 0x4285e34d61940000ULL,
    0x427c608099c80000ULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0xefbeda81fa91f7c6ULL,
    0x9e993f1f011286c4ULL, 0x15c516adee4428e6ULL};

const std::vector<std::uint64_t> kSlowProductsFifoPins = {
    0x0000000000000f2fULL, 0x0000000000000b45ULL, 0x4087595d1745d174ULL,
    0x42af1c1ca3280000ULL, 0x429416c364d00000ULL, 0x4287eb89ffdc0000ULL,
    0x4275bcd6b1a00000ULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b6bULL, 0x408616ba2e8ba2e9ULL,
    0x42af1c1ca3280000ULL, 0x4294c6f830600000ULL, 0x4286a1033ee80000ULL,
    0x4275a44071800000ULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b12ULL, 0x40855d8ba2e8ba2fULL,
    0x42af1c1ca3280000ULL, 0x4294e3a77b300000ULL, 0x4285e34d61940000ULL,
    0x4274e7c085e00000ULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0xeca451ce425dc54eULL,
    0xe809c601dbfb5272ULL, 0x1dc8a64eef108224ULL};

const std::vector<std::uint64_t> kProductPrecisionPins = {
    0x0000000000000f2fULL, 0x0000000000000b45ULL, 0x4087595d1745d174ULL,
    0x42af1c1ca3280000ULL, 0x429416c364d00000ULL, 0x4287eb89ffdc0000ULL,
    0x4280dc6696ac0000ULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b6bULL, 0x408616ba2e8ba2e9ULL,
    0x42af1c1ca3280000ULL, 0x4294c6f830600000ULL, 0x4286a1033ee80000ULL,
    0x4280967ee3d80000ULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b12ULL, 0x40855d8ba2e8ba2fULL,
    0x42af1c1ca3280000ULL, 0x4294e3a77b300000ULL, 0x4285e34d61940000ULL,
    0x42806d2056340000ULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0xd8dca76784643e38ULL,
    0x16ea1069736145dbULL, 0x4123d3f2d2379149ULL};

const std::vector<std::uint64_t> kGeoWorldPins = {
    0x0000000000000f2fULL, 0x0000000000000b58ULL, 0x4087595d1745d174ULL,
    0x42af1c1ca3280000ULL, 0x429de05a24838e2aULL, 0x4287eb89ffdc0000ULL,
    0x427b782b1ccd54b4ULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b36ULL, 0x408616ba2e8ba2e9ULL,
    0x42af1c1ca3280000ULL, 0x429e1a2d498c71b8ULL, 0x4286a1033ee80000ULL,
    0x427b10ffa1d38d90ULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f2fULL, 0x0000000000000b82ULL, 0x40855d8ba2e8ba2fULL,
    0x42af1c1ca3280000ULL, 0x429daa2b7ac1c722ULL, 0x4285e34d61940000ULL,
    0x427a090535df1be2ULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0xaf47296c52db44edULL,
    0x6a2daf92fdeaf86fULL, 0x51d7530fa8ef8bc9ULL};

const std::vector<std::uint64_t> kEngineChunkedFifoPins = {
    0x0000000000000f30ULL, 0x0000000000000b46ULL, 0x404b45d1745d1746ULL,
    0x42af1e2928800000ULL, 0x429416c364d00000ULL, 0x424bf08eb0000000ULL,
    0x4242f249caeddaaaULL, 0x40cf9a0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f30ULL, 0x0000000000000b6cULL, 0x403b45d1745d1746ULL,
    0x42af1e2928800000ULL, 0x4294c6f830600000ULL, 0x423bf08eb0000000ULL,
    0x4234246667e9371cULL, 0x40cdec0000000000ULL, 0x40363b9358d8cf75ULL,
    0x0000000000000f30ULL, 0x0000000000000b13ULL, 0x404b45d1745d1746ULL,
    0x42af1e2928800000ULL, 0x4294e3a77b300000ULL, 0x424bf08eb0000000ULL,
    0x42432a8b0f3a614cULL, 0x40ccf20000000000ULL, 0x40363b9358d8cf75ULL,
    0x41178a4000000000ULL, 0x40e69e0000000000ULL, 0xc57f9ed63141ba62ULL,
    0x296b5153692caa9dULL, 0xe89715e4208ff0c4ULL};

const std::vector<std::uint64_t> kFractionalStepPins = {
    0x000000000000010cULL, 0x00000000000000c8ULL, 0x404a9fe9a87e9a71ULL,
    0x427128dcc1000000ULL, 0x4254bec61b000000ULL, 0x424b4698401fffe9ULL,
    0x424084dc321fffe9ULL, 0x409222ccccccccbeULL, 0x40363b9358d8cf75ULL,
    0x000000000000010cULL, 0x00000000000000cdULL, 0x40434edd8e6dd8dcULL,
    0x427128dcc1000000ULL, 0x4257d18e1f000000ULL, 0x4243c7be0ddffff5ULL,
    0x423f3ef17e000000ULL, 0x408ab0ccccccccbfULL, 0x40363b9358d8cf75ULL,
    0x000000000000010cULL, 0x00000000000000d3ULL, 0x40437de7cbde7cb4ULL,
    0x427128dcc1000000ULL, 0x42574e6cc9000000ULL, 0x4243f7eec8fffff6ULL,
    0x423fc212d4000000ULL, 0x408a766666666659ULL, 0x40363b9358d8cf75ULL,
    0x40da356666666416ULL, 0x40a65b333333334cULL, 0xf663001e7ca9c22eULL,
    0xc2507009e7497368ULL, 0xee89043e393773c1ULL};

struct GoldenCase
{
    const char *name;
    std::function<MissionResult()> run;
    std::vector<std::uint64_t> pins;
};

TEST(MissionGolden, OutputsArePinned)
{
    const MissionConfig day = MissionConfig::landsatConstellation(3);
    const data::GeoModel world;
    const MissionSim null_world(nullptr, 1.0 / 3.0);
    const MissionSim geo_world(&world);

    FilterBehavior fifo = slowProductFilter();
    fifo.prioritize_products = false;
    FilterBehavior precise = slowProductFilter();
    precise.product_precision = 0.8;

    // The fluid queue under the chunk grid, a finite recorder that
    // sheds, an injected dead downlink and capture-order draining.
    ConstellationConfig engine_config;
    engine_config.mission = day;
    engine_config.mission.telemetry_prefix = "golden";
    engine_config.chunk_s = 6.0 * 3600.0;
    engine_config.shard_size = 2;
    engine_config.storage_bits = 60.0e9;
    engine_config.degrade.satellite = 1;
    engine_config.degrade.after_s = 8.0 * 3600.0;
    const ConstellationEngine engine(nullptr, 1.0 / 3.0);

    const std::vector<GoldenCase> cases = {
        {"bentPipe",
         [&] { return null_world.run(day, FilterBehavior::bentPipe()); },
         kBentPipePins},
        {"idealFilter",
         [&] { return null_world.run(day, FilterBehavior::idealFilter()); },
         kIdealFilterPins},
        {"slowProducts",
         [&] { return null_world.run(day, slowProductFilter()); },
         kSlowProductsPins},
        {"slowProductsFifo",
         [&] { return null_world.run(day, fifo); },
         kSlowProductsFifoPins},
        {"productPrecision",
         [&] { return null_world.run(day, precise); },
         kProductPrecisionPins},
        {"geoWorld",
         [&] { return geo_world.run(day, slowProductFilter()); },
         kGeoWorldPins},
        {"engineChunkedFifo",
         [&] { return engine.run(engine_config, fifo); },
         kEngineChunkedFifoPins},
    };
    for (const auto &golden : cases) {
        SCOPED_TRACE(golden.name);
        const std::vector<std::uint64_t> pins = goldenPins(golden.run);
        EXPECT_EQ(comparablePins(pins), comparablePins(golden.pins))
            << golden.name << " pins are now " << formatPins(pins);
    }
}

// A scheduler step that does not divide the horizon or land on whole
// seconds: granted time then carries rounding, so the two ways of
// totalling it (the allocation's per-satellite seconds, or a sum over
// the granted runs) differ in the last bits, and only the exact
// queue's choice reproduces these pins.
TEST(MissionGolden, FractionalSchedulerStepIsPinned)
{
    MissionConfig config = MissionConfig::landsatConstellation(3);
    config.duration = 5939.84;
    config.scheduler_step = 7.3;
    const MissionSim sim(nullptr, 1.0 / 3.0);
    const std::vector<std::uint64_t> pins =
        goldenPins([&] { return sim.run(config, slowProductFilter()); });
    EXPECT_EQ(comparablePins(pins), comparablePins(kFractionalStepPins))
        << "pins are now " << formatPins(pins);
}

} // namespace
} // namespace kodan::sim
