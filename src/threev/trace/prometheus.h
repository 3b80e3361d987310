#ifndef THREEV_TRACE_PROMETHEUS_H_
#define THREEV_TRACE_PROMETHEUS_H_

#include <string>
#include <vector>

#include "threev/metrics/metrics.h"

namespace threev {

// Renders one Metrics snapshot in the Prometheus text exposition format
// (version 0.0.4): every row of kMetricsCounters as `threev_<name>_total`,
// every row of kMetricsHistograms as a summary (p50/p90/p99 quantiles +
// _sum + _count), in table order. tools/threev_lint.py checks that every
// instrument of Metrics has its table row, so a new counter cannot ship
// half-observable. `labels` is spliced verbatim into each sample's label
// set (e.g. "node=\"3\""); pass "" for none.
std::string PrometheusText(const Metrics& m, const std::string& labels = "");

// Cross-node aggregation: merges every instance into a scratch Metrics
// (counters summed, histograms bucket-merged) and renders that. Callers
// must quiesce writers first, same contract as Metrics::MergeFrom().
std::string PrometheusTextAggregate(const std::vector<const Metrics*>& nodes);

}  // namespace threev

#endif  // THREEV_TRACE_PROMETHEUS_H_
