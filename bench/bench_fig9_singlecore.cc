/**
 * @file
 * Fig 9: single-core speedup of Triangel and Streamline over the
 * stride-L1D baseline, broken down by suite, with the memory-intensive
 * set and the irregular subset (>= 5% headroom under idealised Triage).
 * Also emits the per-workload rows behind Fig 10d/e (coverage/accuracy).
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"

int
main()
{
    using namespace sl;
    using namespace sl::bench;
    banner("Fig 9: single-core speedup (and Fig 10d/e cov/acc)");

    const double scale = benchScale();
    const auto workloads = allWorkloads();

    struct Row
    {
        double base_ipc, tg_speed, sl_speed;
        double tg_cov, tg_acc, sl_cov, sl_acc;
        bool irregular;
        Suite suite;
    };
    std::map<std::string, Row> rows;

    const auto irregular = irregularSubset(scale);
    auto is_irregular = [&](const std::string& w) {
        for (const auto& n : irregular)
            if (n == w)
                return true;
        return false;
    };

    // One batch covers the whole figure: 20 Triangel + 20 Streamline
    // jobs drain across the SL_JOBS worker pool (the baselines were
    // batched and cached by irregularSubset above).
    RunConfig tg_cfg;
    tg_cfg.traceScale = scale;
    tg_cfg.l2 = "triangel";
    RunConfig sl_cfg = tg_cfg;
    sl_cfg.l2 = "streamline";
    std::vector<ExperimentSpec> specs;
    for (const auto& w : workloads)
        specs.push_back({"triangel:" + w, tg_cfg, {w}});
    for (const auto& w : workloads)
        specs.push_back({"streamline:" + w, sl_cfg, {w}});
    const auto jobs = runBatch(specs);

    std::printf("%-20s %7s | %8s %6s %6s | %8s %6s %6s | %s\n",
                "workload", "base", "triangel", "cov", "acc",
                "streaml", "cov", "acc", "irr");
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const std::string& w = workloads[i];
        Row r{};
        const auto& b = baseline(w, scale);
        r.base_ipc = b.cores[0].ipc;
        const RunResult& tg = jobs[i].result;
        const RunResult& sl_run = jobs[workloads.size() + i].result;
        r.tg_speed = tg.cores[0].ipc / r.base_ipc;
        r.sl_speed = sl_run.cores[0].ipc / r.base_ipc;
        r.tg_cov = tg.cores[0].coverage();
        r.tg_acc = tg.cores[0].accuracy();
        r.sl_cov = sl_run.cores[0].coverage();
        r.sl_acc = sl_run.cores[0].accuracy();
        r.irregular = is_irregular(w);
        for (const auto& spec : workloadRegistry())
            if (spec.name == w)
                r.suite = spec.suite;
        rows[w] = r;
        std::printf("%-20s %7.3f | %8.3f %5.1f%% %5.1f%% | %8.3f %5.1f%%"
                    " %5.1f%% | %s\n",
                    w.c_str(), r.base_ipc, r.tg_speed, 100 * r.tg_cov,
                    100 * r.tg_acc, r.sl_speed, 100 * r.sl_cov,
                    100 * r.sl_acc, r.irregular ? "yes" : "no");
        std::fflush(stdout);
    }

    auto summarise = [&](const char* label, auto&& pred) {
        std::vector<double> tg, sl_v, cov_tg, cov_sl, acc_tg, acc_sl;
        for (const auto& [w, r] : rows) {
            if (!pred(w, r))
                continue;
            tg.push_back(r.tg_speed);
            sl_v.push_back(r.sl_speed);
            cov_tg.push_back(r.tg_cov);
            cov_sl.push_back(r.sl_cov);
            acc_tg.push_back(r.tg_acc);
            acc_sl.push_back(r.sl_acc);
        }
        if (tg.empty())
            return;
        auto mean = [](const std::vector<double>& v) {
            double s = 0;
            for (double x : v)
                s += x;
            return s / v.size();
        };
        std::printf("%-22s (n=%2zu): triangel %+5.1f%%  streamline %+5.1f%%"
                    " | cov %4.1f%% vs %4.1f%% | acc %4.1f%% vs %4.1f%%\n",
                    label, tg.size(), 100 * (geomean(tg) - 1),
                    100 * (geomean(sl_v) - 1), 100 * mean(cov_tg),
                    100 * mean(cov_sl), 100 * mean(acc_tg),
                    100 * mean(acc_sl));
        JsonReport::instance().note(
            "{\"summary\":\"" + jsonEscape(label) +
            "\",\"n\":" + std::to_string(tg.size()) +
            ",\"triangel_speedup\":" + jsonNumber(geomean(tg)) +
            ",\"streamline_speedup\":" + jsonNumber(geomean(sl_v)) +
            ",\"triangel_coverage\":" + jsonNumber(mean(cov_tg)) +
            ",\"streamline_coverage\":" + jsonNumber(mean(cov_sl)) + "}");
    };

    std::printf("\n-- summary (geomean speedup over stride baseline) --\n");
    summarise("SPEC06", [&](const std::string&, const Row& r) {
        return r.suite == Suite::Spec06;
    });
    summarise("SPEC17", [&](const std::string&, const Row& r) {
        return r.suite == Suite::Spec17;
    });
    summarise("GAP", [&](const std::string&, const Row& r) {
        return r.suite == Suite::Gap;
    });
    summarise("all memory-intensive",
              [&](const std::string&, const Row&) { return true; });
    summarise("irregular subset", [&](const std::string&, const Row& r) {
        return r.irregular;
    });
    std::printf("paper: Streamline 8.1%% vs Triangel 5.1%% (all);"
                " 17%% vs 11.5%% (irregular); cov +12.5pp, acc +3.6pp\n");
    return 0;
}
