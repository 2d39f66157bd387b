/**
 * @file
 * kodan-report — regression pipeline CLI over telemetry outputs.
 *
 * Subcommands:
 *
 *   kodan-report diff <base.json> <current.json>
 *       [--journal <base.jsonl> <current.jsonl>]
 *       [--timeseries <base.timeseries.json> <current.timeseries.json>]
 *     Compares two metrics snapshots (writeMetricsJson output) and
 *     optionally two flight-recorder journals and/or two sim-time
 *     series documents under report.hpp's one regression rule: every
 *     deterministic reading (timer call counts included) bit-equal,
 *     timer seconds within 101x the baseline or under 1 ms. Prints the
 *     markdown summary to stdout. Exit status: 0 when no regression, 1
 *     on regression, 2 on usage/parse errors.
 *
 *   kodan-report lineage <spans.jsonl>
 *     Assembles per-frame lineage spans (writeLineageJsonl output) into
 *     stage chains and prints end-to-end latency and per-stage
 *     attribution (compute / contact-wait / queue-wait). Exit status: 0
 *     on success, 2 on usage/parse errors.
 *
 *   kodan-report profile <profile.json>
 *     Summarizes a CPU profile (--profile-out output): sample header,
 *     the top 20 frames by self time, and the per-span counter table
 *     (IPC / cache-miss attribution). Exit status: 0 on success, 2 on
 *     usage/parse errors.
 *
 *   kodan-report profile diff <base.json> <current.json>
 *     Ranks regressed frames by delta self-time and regressed spans by
 *     delta cycles (delta task-clock when either run used the rusage
 *     fallback), to attribute a regression; it is not a gate. Exit
 *     status: 0, or 2 on usage/parse errors.
 *
 *   kodan-report health <alerts.jsonl> [--baseline <base.jsonl>]
 *       [--journal <journal.jsonl>]
 *     Summarizes a health-plane alert export (writeAlertsJsonl output):
 *     per-rule/entity rollup table plus the first 20 alerts.
 *     With --journal, each alert's flight-recorder evidence window is
 *     resolved to the matching journal events. With --baseline, diffs
 *     the alert stream against the committed baseline — the stream is
 *     deterministic, so any divergence is a regression. Exit status: 0
 *     when no regression, 1 on divergence, 2 on usage/parse errors.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/report.hpp"

namespace report = kodan::telemetry::report;

namespace {

int
usage()
{
    std::cerr
        << "usage:\n"
           "  kodan-report diff <base.json> <current.json>\n"
           "      [--journal <base.jsonl> <current.jsonl>]\n"
           "      [--timeseries <base.ts.json> <current.ts.json>]\n"
           "  kodan-report lineage <spans.jsonl>\n"
           "  kodan-report profile <profile.json>\n"
           "  kodan-report profile diff <base.json> <current.json>\n"
           "  kodan-report health <alerts.jsonl>\n"
           "      [--baseline <base.jsonl>] [--journal <journal.jsonl>]\n";
    return 2;
}

int
fail(const std::string &message)
{
    std::cerr << "kodan-report: " << message << "\n";
    return 2;
}

int
runDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    std::string journal_base;
    std::string journal_cur;
    std::string ts_base;
    std::string ts_cur;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--journal" && i + 2 < args.size()) {
            journal_base = args[++i];
            journal_cur = args[++i];
        } else if (arg == "--timeseries" && i + 2 < args.size()) {
            ts_base = args[++i];
            ts_cur = args[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown diff option: " + arg);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        return usage();
    }

    std::string error;
    report::Snapshot base;
    report::Snapshot cur;
    if (!report::loadSnapshot(positional[0], base, &error) ||
        !report::loadSnapshot(positional[1], cur, &error)) {
        return fail(error);
    }
    report::DiffResult diff = report::diffSnapshots(base, cur);
    if (!journal_base.empty()) {
        report::JournalDoc jbase;
        report::JournalDoc jcur;
        if (!report::loadJournal(journal_base, jbase, &error) ||
            !report::loadJournal(journal_cur, jcur, &error)) {
            return fail(error);
        }
        diff = report::mergeDiffs(std::move(diff),
                                  report::diffJournals(jbase, jcur));
    }
    if (!ts_base.empty()) {
        report::TimeSeriesDoc tbase;
        report::TimeSeriesDoc tcur;
        if (!report::loadTimeSeries(ts_base, tbase, &error) ||
            !report::loadTimeSeries(ts_cur, tcur, &error)) {
            return fail(error);
        }
        diff = report::mergeDiffs(std::move(diff),
                                  report::diffTimeSeries(tbase, tcur));
    }

    report::writeMarkdown(diff, positional[0], positional[1], std::cout);
    return diff.hasRegression() ? 1 : 0;
}

int
runHealth(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    std::string baseline_path;
    std::string journal_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--baseline" && i + 1 < args.size()) {
            baseline_path = args[++i];
        } else if (arg == "--journal" && i + 1 < args.size()) {
            journal_path = args[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown health option: " + arg);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 1) {
        return usage();
    }

    std::string error;
    report::AlertsDoc doc;
    if (!report::loadAlerts(positional[0], doc, &error)) {
        return fail(error);
    }

    std::cout << "# kodan-report: health `" << positional[0] << "`\n\n"
              << "- alerts: " << doc.alerts.size() << " (" << doc.firing
              << " firing)\n";

    // Per-rule rollup: fired / still-firing / entities touched.
    struct RuleRollup
    {
        std::string rule;
        std::size_t fired = 0;
        std::size_t firing = 0;
        std::vector<std::int64_t> entities;
    };
    std::vector<RuleRollup> rollups;
    for (const report::AlertReading &alert : doc.alerts) {
        RuleRollup *rollup = nullptr;
        for (RuleRollup &existing : rollups) {
            if (existing.rule == alert.rule) {
                rollup = &existing;
                break;
            }
        }
        if (rollup == nullptr) {
            rollups.push_back({alert.rule, 0, 0, {}});
            rollup = &rollups.back();
        }
        ++rollup->fired;
        if (alert.state == "firing") {
            ++rollup->firing;
        }
        if (std::find(rollup->entities.begin(), rollup->entities.end(),
                      alert.entity) == rollup->entities.end()) {
            rollup->entities.push_back(alert.entity);
        }
    }
    if (!rollups.empty()) {
        std::cout << "\n| rule | fired | firing | entities |\n"
                  << "| --- | --- | --- | --- |\n";
        for (const RuleRollup &rollup : rollups) {
            std::cout << "| " << rollup.rule << " | " << rollup.fired
                      << " | " << rollup.firing << " | "
                      << rollup.entities.size() << " |\n";
        }
    }

    report::JournalDoc journal;
    const bool have_journal =
        !journal_path.empty() &&
        report::loadJournal(journal_path, journal, &error);
    if (!journal_path.empty() && !have_journal) {
        return fail(error);
    }

    std::cout << "\n";
    std::size_t shown = 0;
    for (const report::AlertReading &alert : doc.alerts) {
        if (shown++ >= report::kTopRows) {
            std::cout << "... " << (doc.alerts.size() - report::kTopRows)
                      << " more alert(s) not shown\n";
            break;
        }
        std::cout << "[" << alert.state << "] " << alert.rule << " "
                  << alert.kind << "/" << alert.entity << " bins "
                  << alert.first_bin << ".." << alert.last_bin
                  << " peak " << alert.peak << " last " << alert.last
                  << "\n";
        if (have_journal && alert.has_journal) {
            for (const report::JournalLine &event : journal.events) {
                if (event.region == alert.journal_region &&
                    event.slot == alert.journal_slot &&
                    event.ord >= alert.journal_ord_lo &&
                    event.ord <= alert.journal_ord_hi) {
                    std::cout << "    evidence: " << event.canonical
                              << "\n";
                }
            }
        }
    }

    if (!baseline_path.empty()) {
        report::AlertsDoc base;
        if (!report::loadAlerts(baseline_path, base, &error)) {
            return fail(error);
        }
        const report::DiffResult diff = report::diffAlerts(base, doc);
        std::cout << "\n";
        report::writeMarkdown(diff, baseline_path, positional[0],
                              std::cout);
        return diff.hasRegression() ? 1 : 0;
    }
    return 0;
}

int
runProfile(const std::vector<std::string> &args)
{
    const bool is_diff = !args.empty() && args[0] == "diff";
    std::vector<std::string> positional;
    for (std::size_t i = is_diff ? 1 : 0; i < args.size(); ++i) {
        if (!args[i].empty() && args[i][0] == '-') {
            return fail("unknown profile option: " + args[i]);
        }
        positional.push_back(args[i]);
    }

    std::string error;
    if (!is_diff) {
        if (positional.size() != 1) {
            return usage();
        }
        report::ProfileDoc doc;
        if (!report::loadProfile(positional[0], doc, &error)) {
            return fail(error);
        }
        report::writeProfileMarkdown(doc, positional[0], std::cout);
        return 0;
    }

    if (positional.size() != 2) {
        return usage();
    }
    report::ProfileDoc base;
    report::ProfileDoc cur;
    if (!report::loadProfile(positional[0], base, &error) ||
        !report::loadProfile(positional[1], cur, &error)) {
        return fail(error);
    }
    report::writeProfileDiffMarkdown(report::diffProfiles(base, cur),
                                     positional[0], positional[1],
                                     std::cout);
    return 0;
}

int
runLineage(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    for (const std::string &arg : args) {
        if (!arg.empty() && arg[0] == '-') {
            return fail("unknown lineage option: " + arg);
        }
        positional.push_back(arg);
    }
    if (positional.size() != 1) {
        return usage();
    }

    namespace tm = kodan::telemetry;
    std::vector<tm::LineageSpan> spans;
    std::string error;
    if (!report::loadLineage(positional[0], spans, &error)) {
        return fail(error);
    }
    const std::vector<tm::FrameLineage> frames =
        tm::assembleLineage(spans);
    const tm::LineageStats stats = tm::summarizeLineage(frames);

    std::cout << "# kodan-report: lineage `" << positional[0] << "`\n\n"
              << "- frames: " << stats.frames << "\n"
              << "- downlinked: " << stats.downlinked << "\n"
              << "- mean end-to-end latency: " << stats.mean_end_to_end_s
              << " s (max " << stats.max_end_to_end_s << " s)\n"
              << "- mean data age at downlink: " << stats.mean_data_age_s
              << " s\n\n"
              << "| stage | mean wait (s) |\n| --- | --- |\n"
              << "| compute | " << stats.mean_compute_s << " |\n"
              << "| contact-wait | " << stats.mean_contact_wait_s
              << " |\n"
              << "| queue-wait | " << stats.mean_queue_wait_s << " |\n\n"
              << "Dominant stage: **" << stats.dominantStage() << "**\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "diff") {
        return runDiff(args);
    }
    if (command == "lineage") {
        return runLineage(args);
    }
    if (command == "profile") {
        return runProfile(args);
    }
    if (command == "health") {
        return runHealth(args);
    }
    return usage();
}
