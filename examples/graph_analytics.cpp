/**
 * @file
 * Example: temporal prefetching on graph analytics (the paper's GAP
 * motivation). Runs every GAP kernel under no-L2-prefetcher, Triangel,
 * and Streamline, and reports speedup, coverage, accuracy, and metadata
 * traffic -- the workloads where stream-based metadata matters most.
 *
 * Usage: graph_analytics [scale]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/runner.hh"

int
main(int argc, char** argv)
{
    const double scale = argc > 1 ? std::atof(argv[1]) : 0.3;
    std::printf("GAP graph kernels, scale=%.2f\n", scale);
    std::printf("%-10s %8s | %8s %6s | %8s %6s %6s %12s\n", "kernel",
                "base", "triangel", "cov", "streaml", "cov", "acc",
                "meta-traffic");

    std::vector<double> tg_speed, sl_speed;
    for (const auto& spec : sl::workloadRegistry()) {
        if (spec.suite != sl::Suite::Gap)
            continue;
        sl::RunConfig cfg;
        cfg.traceScale = scale;
        const auto base = sl::runWorkload(cfg, spec.name);
        cfg.l2 = "triangel";
        const auto tg = sl::runWorkload(cfg, spec.name);
        cfg.l2 = "streamline";
        const auto sl_run = sl::runWorkload(cfg, spec.name);

        tg_speed.push_back(tg.cores[0].ipc / base.cores[0].ipc);
        sl_speed.push_back(sl_run.cores[0].ipc / base.cores[0].ipc);
        std::printf("%-10s %8.3f | %8.3f %5.1f%% | %8.3f %5.1f%% %5.1f%%"
                    " %12llu\n",
                    spec.name.c_str(), base.cores[0].ipc,
                    tg_speed.back(), 100 * tg.cores[0].coverage(),
                    sl_speed.back(), 100 * sl_run.cores[0].coverage(),
                    100 * sl_run.cores[0].accuracy(),
                    static_cast<unsigned long long>(
                        sl_run.metadataTraffic()));
        std::fflush(stdout);
    }
    std::printf("geomean: triangel %+0.1f%%  streamline %+0.1f%%\n",
                100 * (sl::geomean(tg_speed) - 1),
                100 * (sl::geomean(sl_speed) - 1));
    return 0;
}
