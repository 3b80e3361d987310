#include "threev/trace/prometheus.h"

#include <cinttypes>
#include <cstdio>

namespace threev {

namespace {

void AppendCounter(std::string* out, const char* name, int64_t value,
                   const std::string& labels) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# TYPE threev_%s_total counter\nthreev_%s_total%s%s%s %" PRId64
                "\n",
                name, name, labels.empty() ? "" : "{",
                labels.c_str(), labels.empty() ? "" : "}", value);
  *out += buf;
}

void AppendQuantile(std::string* out, const std::string& name, double q,
                    int64_t value, const std::string& labels) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s{%s%squantile=\"%g\"} %" PRId64 "\n",
                name.c_str(), labels.c_str(), labels.empty() ? "" : ",", q,
                value);
  *out += buf;
}

void AppendHistogramSummary(std::string* out, const char* name,
                            const Histogram& h, const std::string& labels) {
  const std::string full = std::string("threev_") + name + "_us";
  *out += "# TYPE " + full + " summary\n";
  AppendQuantile(out, full, 0.5, h.Percentile(50), labels);
  AppendQuantile(out, full, 0.9, h.Percentile(90), labels);
  AppendQuantile(out, full, 0.99, h.Percentile(99), labels);
  char buf[192];
  const char *lb = labels.empty() ? "" : "{", *rb = labels.empty() ? "" : "}";
  std::snprintf(buf, sizeof(buf), "%s_sum%s%s%s %" PRId64 "\n", full.c_str(),
                lb, labels.c_str(), rb, h.sum());
  *out += buf;
  std::snprintf(buf, sizeof(buf), "%s_count%s%s%s %" PRId64 "\n", full.c_str(),
                lb, labels.c_str(), rb, h.count());
  *out += buf;
}

}  // namespace

std::string PrometheusText(const Metrics& m, const std::string& labels) {
  std::string out;
  out.reserve(4096);
  for (const MetricsCounter& c : kMetricsCounters) {
    AppendCounter(&out, c.name, (m.*c.field).load(), labels);
  }
  for (const MetricsHistogram& h : kMetricsHistograms) {
    AppendHistogramSummary(&out, h.name, m.*h.field, labels);
  }
  return out;
}

std::string PrometheusTextAggregate(
    const std::vector<const Metrics*>& nodes) {
  Metrics total;
  for (const Metrics* m : nodes) {
    if (m != nullptr) total.MergeFrom(*m);
  }
  return PrometheusText(total);
}

}  // namespace threev
