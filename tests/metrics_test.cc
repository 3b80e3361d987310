#include "threev/metrics/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "threev/trace/prometheus.h"

namespace threev {
namespace {

TEST(MetricsTest, ReportMentionsAllSections) {
  Metrics metrics;
  metrics.txns_committed = 5;
  metrics.messages_sent = 42;
  metrics.dual_version_writes = 3;
  metrics.lock_waits = 1;
  metrics.update_latency.Record(100);
  std::string report = metrics.Report();
  EXPECT_NE(report.find("committed=5"), std::string::npos);
  EXPECT_NE(report.find("messages=42"), std::string::npos);
  EXPECT_NE(report.find("dual_writes=3"), std::string::npos);
  EXPECT_NE(report.find("lock_waits=1"), std::string::npos);
  EXPECT_NE(report.find("update_latency"), std::string::npos);
}

TEST(MetricsTest, ResetClearsEverything) {
  Metrics metrics;
  metrics.txns_committed = 5;
  metrics.version_copies = 7;
  metrics.staleness.Record(1000);
  metrics.Reset();
  EXPECT_EQ(metrics.txns_committed.load(), 0);
  EXPECT_EQ(metrics.version_copies.load(), 0);
  EXPECT_EQ(metrics.staleness.count(), 0);
}

TEST(MetricsTest, ConcurrentRecordingIsExactOnTotals) {
  Metrics metrics;
  constexpr int kThreads = 4, kPer = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        metrics.txns_committed.fetch_add(1, std::memory_order_relaxed);
        metrics.update_latency.Record(i % 1000);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(metrics.txns_committed.load(), kThreads * kPer);
  EXPECT_EQ(metrics.update_latency.count(), kThreads * kPer);
}

TEST(HistogramPropertyTest, PercentilesAreMonotone) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.Record((i * 2654435761u) % 1000000);
  int64_t prev = 0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    int64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
  EXPECT_LE(h.Percentile(100), h.max());
  EXPECT_GE(h.Percentile(0), 0);
}

TEST(HistogramTest, MergeCombinesCountsSumAndExtremes) {
  Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.Record(i);        // [1, 100]
  for (int i = 1000; i <= 1500; ++i) b.Record(i);    // [1000, 1500]
  a.Merge(b);
  EXPECT_EQ(a.count(), 100 + 501);
  EXPECT_EQ(a.sum(), 100 * 101 / 2 + 501 * 1250);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 1500);
  // The merged distribution is bimodal: the median falls in b's mode, and
  // low percentiles still resolve a's mode (bucket error ~6%).
  EXPECT_GE(a.Percentile(50), 1000 * 0.94);
  EXPECT_LE(a.Percentile(10), 100 * 1.07 + 2);
  // Merging an empty histogram is a no-op on totals and extremes.
  Histogram empty;
  int64_t count = a.count(), sum = a.sum(), mn = a.min(), mx = a.max();
  a.Merge(empty);
  EXPECT_EQ(a.count(), count);
  EXPECT_EQ(a.sum(), sum);
  EXPECT_EQ(a.min(), mn);
  EXPECT_EQ(a.max(), mx);
  // Merging INTO an empty histogram adopts the source's extremes.
  Histogram fresh;
  fresh.Merge(a);
  EXPECT_EQ(fresh.count(), a.count());
  EXPECT_EQ(fresh.min(), 1);
  EXPECT_EQ(fresh.max(), 1500);
}

TEST(MetricsTest, MergeFromAggregatesCountersAndHistograms) {
  Metrics a, b;
  a.txns_committed = 3;
  a.wal_fsyncs = 1;
  a.update_latency.Record(100);
  b.txns_committed = 4;
  b.messages_dropped = 2;
  b.update_latency.Record(300);
  b.staleness.Record(50);
  a.MergeFrom(b);
  EXPECT_EQ(a.txns_committed.load(), 7);
  EXPECT_EQ(a.wal_fsyncs.load(), 1);
  EXPECT_EQ(a.messages_dropped.load(), 2);
  EXPECT_EQ(a.update_latency.count(), 2);
  EXPECT_EQ(a.update_latency.sum(), 400);
  EXPECT_EQ(a.staleness.count(), 1);
  // b is untouched.
  EXPECT_EQ(b.txns_committed.load(), 4);
  EXPECT_EQ(b.update_latency.count(), 1);
}

// Adds `base` + i + 1 to counter row i and records into row j's histogram
// j + 1 times, so every instrument of a fresh Metrics holds a value no
// other one does. Filling one instance twice gives the sum of two fills.
void FillEveryRow(Metrics* m, int64_t base) {
  int64_t i = 0;
  for (const MetricsCounter& c : kMetricsCounters) {
    (m->*c.field).fetch_add(base + ++i);
  }
  int64_t j = 0;
  for (const MetricsHistogram& h : kMetricsHistograms) {
    ++j;
    for (int64_t k = 0; k < j; ++k) (m->*h.field).Record(base + 10 * j + k);
  }
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

size_t CountLine(const std::vector<std::string>& lines,
                 const std::string& want) {
  size_t n = 0;
  for (const std::string& line : lines) n += line == want ? 1 : 0;
  return n;
}

TEST(MetricsTableTest, RowsNameDistinctInstruments) {
  std::set<std::string> names;
  std::set<std::pair<std::string, std::string>> labels;
  for (const MetricsCounter& c : kMetricsCounters) {
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
    EXPECT_TRUE(labels.emplace(c.section, c.label).second) << c.label;
  }
  for (const MetricsHistogram& h : kMetricsHistograms) {
    EXPECT_TRUE(names.insert(h.name).second) << h.name;
    EXPECT_TRUE(labels.emplace("", h.label).second) << h.label;
  }
  // Distinct fields: a value stored through one row shows through no other.
  Metrics m;
  FillEveryRow(&m, 0);
  std::set<int64_t> values;
  for (const MetricsCounter& c : kMetricsCounters) {
    EXPECT_TRUE(values.insert((m.*c.field).load()).second) << c.name;
  }
  std::set<int64_t> counts;
  for (const MetricsHistogram& h : kMetricsHistograms) {
    EXPECT_TRUE(counts.insert((m.*h.field).count()).second) << h.name;
  }
}

TEST(MetricsTableTest, ResetZeroesEveryRow) {
  Metrics m;
  FillEveryRow(&m, 100);
  m.Reset();
  for (const MetricsCounter& c : kMetricsCounters) {
    EXPECT_EQ((m.*c.field).load(), 0) << c.name;
  }
  for (const MetricsHistogram& h : kMetricsHistograms) {
    EXPECT_EQ((m.*h.field).count(), 0) << h.name;
    EXPECT_EQ((m.*h.field).sum(), 0) << h.name;
  }
}

TEST(MetricsTableTest, MergeFromSumsEveryRow) {
  Metrics a, b;
  FillEveryRow(&a, 100);
  FillEveryRow(&b, 2000);
  a.MergeFrom(b);
  Metrics sum;
  FillEveryRow(&sum, 100);
  FillEveryRow(&sum, 2000);
  for (const MetricsCounter& c : kMetricsCounters) {
    EXPECT_EQ((a.*c.field).load(), (sum.*c.field).load()) << c.name;
  }
  for (const MetricsHistogram& h : kMetricsHistograms) {
    EXPECT_EQ((a.*h.field).count(), (sum.*h.field).count()) << h.name;
    EXPECT_EQ((a.*h.field).sum(), (sum.*h.field).sum()) << h.name;
    EXPECT_EQ((a.*h.field).max(), (sum.*h.field).max()) << h.name;
  }
}

TEST(MetricsTableTest, ReportShowsEveryRowWithItsValue) {
  Metrics m;
  FillEveryRow(&m, 100);
  const std::vector<std::string> lines = Lines(m.Report());
  for (const MetricsCounter& c : kMetricsCounters) {
    const std::string head = std::string(c.section) + ":";
    const std::string item =
        " " + std::string(c.label) + "=" + std::to_string((m.*c.field).load());
    size_t hits = 0;
    for (const std::string& line : lines) {
      if (line.rfind(head, 0) != 0) continue;
      // Match whole items only: " x=1" must not match " x=12".
      const std::string padded = line + " ";
      hits += padded.find(item + " ") != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(hits, 1u) << c.section << " " << c.label;
  }
  for (const MetricsHistogram& h : kMetricsHistograms) {
    const std::string head = std::string(h.label) + ":";
    size_t hits = 0;
    for (const std::string& line : lines) {
      if (line.rfind(head, 0) == 0 &&
          line.find((m.*h.field).Summary()) != std::string::npos) {
        ++hits;
      }
    }
    EXPECT_EQ(hits, 1u) << h.label;
  }
}

TEST(MetricsTableTest, PrometheusTextHasOneSamplePerCounterAndOneSummary) {
  Metrics m;
  FillEveryRow(&m, 100);
  for (const std::string labels : {"", "node=\"3\""}) {
    const std::vector<std::string> lines = Lines(PrometheusText(m, labels));
    const std::string set = labels.empty() ? "" : "{" + labels + "}";
    size_t types = 0;
    for (const std::string& line : lines) {
      types += line.rfind("# TYPE ", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(types, kMetricsCounters.size() + kMetricsHistograms.size());
    for (const MetricsCounter& c : kMetricsCounters) {
      const std::string full = "threev_" + std::string(c.name) + "_total";
      EXPECT_EQ(CountLine(lines, "# TYPE " + full + " counter"), 1u) << full;
      EXPECT_EQ(CountLine(lines, full + set + " " +
                                     std::to_string((m.*c.field).load())),
                1u)
          << full;
    }
    for (const MetricsHistogram& h : kMetricsHistograms) {
      const std::string full = "threev_" + std::string(h.name) + "_us";
      const Histogram& hist = m.*h.field;
      EXPECT_EQ(CountLine(lines, "# TYPE " + full + " summary"), 1u) << full;
      EXPECT_EQ(CountLine(lines, full + "_sum" + set + " " +
                                     std::to_string(hist.sum())),
                1u)
          << full;
      EXPECT_EQ(CountLine(lines, full + "_count" + set + " " +
                                     std::to_string(hist.count())),
                1u)
          << full;
      size_t quantiles = 0;
      for (const std::string& line : lines) {
        quantiles += line.rfind(full + "{", 0) == 0 &&
                             line.find("quantile=") != std::string::npos
                         ? 1
                         : 0;
      }
      EXPECT_EQ(quantiles, 3u) << full;
    }
  }
}

TEST(MetricsTableTest, PrometheusTextAggregateEqualsTheSum) {
  Metrics a, b, sum;
  FillEveryRow(&a, 100);
  FillEveryRow(&b, 2000);
  FillEveryRow(&sum, 100);
  FillEveryRow(&sum, 2000);
  EXPECT_EQ(PrometheusTextAggregate({&a, nullptr, &b}), PrometheusText(sum));
}

TEST(HistogramPropertyTest, PercentileWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) h.Record(i);
  // Log-bucketed: ~6% relative error bound.
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    double exact = p / 100.0 * 100000;
    double got = static_cast<double>(h.Percentile(p));
    EXPECT_NEAR(got, exact, exact * 0.08 + 2) << "p=" << p;
  }
}

}  // namespace
}  // namespace threev
