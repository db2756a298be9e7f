#include "telemetry/exposition.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "telemetry/metrics.h"
#include "temp_path.h"

namespace hdov {
namespace {

using telemetry::Counter;
using telemetry::ExpositionLog;
using telemetry::ExpositionText;
using telemetry::FilterSnapshot;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricKind;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::SanitizeMetricName;
using telemetry::SnapshotDelta;

TEST(ExpositionTest, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("visual.io.tree.page_reads"),
            "visual_io_tree_page_reads");
  EXPECT_EQ(SanitizeMetricName("a:b_c9"), "a:b_c9");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("sp ace-dash"), "sp_ace_dash");
}

TEST(ExpositionTest, TextFormatCountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("visual.queries")->Add(42);
  registry.GetGauge("visual.resident_mb")->Set(3.5);
  registry.RegisterView("visual.hit_rate", [] { return 0.25; });

  const std::string text = ExpositionText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE visual_queries counter\n"), std::string::npos);
  EXPECT_NE(text.find("visual_queries 42\n"), std::string::npos);
  // Gauges and views both expose as gauges.
  EXPECT_NE(text.find("# TYPE visual_resident_mb gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("visual_resident_mb 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE visual_hit_rate gauge\n"), std::string::npos);
  EXPECT_NE(text.find("visual_hit_rate 0.25\n"), std::string::npos);
}

TEST(ExpositionTest, TextFormatHistogramIsCumulative) {
  MetricsRegistry registry;
  telemetry::Histogram* h =
      registry.GetHistogram("frame.time_ms", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(99.0);

  const std::string text = ExpositionText(registry.Snapshot());
  // Buckets are cumulative, close with le="+Inf", and _count matches.
  EXPECT_NE(text.find("# TYPE frame_time_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("frame_time_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("frame_time_ms_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("frame_time_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("frame_time_ms_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("frame_time_ms_count 3\n"), std::string::npos);
}

TEST(ExpositionTest, FilterSnapshotKeepsPrefixOnly) {
  MetricsRegistry registry;
  registry.GetCounter("persist.bytes_written")->Add(100);
  registry.GetCounter("persist.fsyncs")->Add(3);
  registry.GetCounter("build.objects")->Add(7);

  const MetricsSnapshot full = registry.Snapshot();
  const MetricsSnapshot persist = FilterSnapshot(full, "persist");
  ASSERT_EQ(persist.samples.size(), 2u);
  EXPECT_EQ(persist.samples[0].name, "persist.bytes_written");
  EXPECT_EQ(persist.samples[1].name, "persist.fsyncs");
  // Filtering a captured snapshot never re-reads the registry.
  EXPECT_EQ(full.samples.size(), 3u);
}

TEST(ExpositionTest, SnapshotDeltaRatesAndNewMetrics) {
  MetricsRegistry registry;
  Counter* reads = registry.GetCounter("io.page_reads");
  reads->Add(10);
  const MetricsSnapshot earlier = registry.Snapshot();

  reads->Add(40);
  registry.GetCounter("io.seeks")->Add(5);  // Registered mid-interval.
  const MetricsSnapshot later = registry.Snapshot();

  const SnapshotDelta delta = SnapshotDelta::Between(earlier, later, 2000.0);
  EXPECT_DOUBLE_EQ(delta.interval_ms, 2000.0);
  ASSERT_EQ(delta.metrics.size(), 2u);
  EXPECT_EQ(delta.metrics[0].name, "io.page_reads");
  EXPECT_DOUBLE_EQ(delta.metrics[0].previous, 10.0);
  EXPECT_DOUBLE_EQ(delta.metrics[0].current, 50.0);
  EXPECT_DOUBLE_EQ(delta.metrics[0].delta, 40.0);
  EXPECT_DOUBLE_EQ(delta.metrics[0].rate_per_sec, 20.0);
  // A metric absent from the earlier snapshot deltas from zero.
  EXPECT_EQ(delta.metrics[1].name, "io.seeks");
  EXPECT_DOUBLE_EQ(delta.metrics[1].previous, 0.0);
  EXPECT_DOUBLE_EQ(delta.metrics[1].delta, 5.0);
}

TEST(ExpositionTest, SnapshotDeltaHistogramUsesCountAndSum) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("t", {1.0});
  h->Observe(0.5);
  const MetricsSnapshot earlier = registry.Snapshot();
  h->Observe(2.0);
  h->Observe(3.0);
  const MetricsSnapshot later = registry.Snapshot();

  const SnapshotDelta delta = SnapshotDelta::Between(earlier, later, 1000.0);
  ASSERT_EQ(delta.metrics.size(), 1u);
  EXPECT_EQ(delta.metrics[0].count_delta, 2u);
  EXPECT_DOUBLE_EQ(delta.metrics[0].sum_delta, 5.0);
  EXPECT_DOUBLE_EQ(delta.metrics[0].delta, 2.0);
  EXPECT_DOUBLE_EQ(delta.metrics[0].rate_per_sec, 2.0);
}

TEST(ExpositionTest, LogWritesSamplesAndRateComments) {
  const std::string path = TempPath("exposition_log.prom");
  MetricsRegistry registry;
  Counter* reads = registry.GetCounter("io.page_reads");

  ExpositionLog log(path);
  reads->Add(10);
  ASSERT_TRUE(log.Sample(registry.Snapshot(), "first").ok());
  reads->Add(25);
  ASSERT_TRUE(log.Sample(registry.Snapshot(), "second").ok());
  EXPECT_EQ(log.samples_written(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# hdov sample 0 label \"first\""), std::string::npos);
  EXPECT_NE(text.find("# hdov sample 1 label \"second\""),
            std::string::npos);
  EXPECT_NE(text.find("io_page_reads 10\n"), std::string::npos);
  EXPECT_NE(text.find("io_page_reads 35\n"), std::string::npos);
  // The first sample has no interval, so rates only follow the second.
  EXPECT_NE(text.find("# rate io_page_reads delta 25 per_sec "),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ExpositionTest, SnapshotDeltaUnderConcurrentMutation) {
  // TSan exercise: the exporter side (snapshot + delta) runs while
  // worker threads hammer the same registry's counters and histograms.
  // Every delta it computes must be internally consistent even though
  // the values race forward between snapshots.
  MetricsRegistry registry;
  Counter* reads = registry.GetCounter("mut.reads");
  Histogram* times = registry.GetHistogram("mut.time_ms", {1.0, 5.0});
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      reads->Add(1);  // At least one mutation lands regardless of timing.
      started.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        reads->Add(1);
        times->Observe(0.5);
        // Mid-flight registrations must not invalidate a concurrent
        // Snapshot() either (registry growth vs read).
        registry.GetCounter("mut.reads")->Add(1);
      }
    });
  }
  // Snapshots only start once every writer is live, so the race between
  // exporter and mutators is real (and the final total cannot be zero).
  while (started.load() < 3) {
    std::this_thread::yield();
  }
  MetricsSnapshot earlier = registry.Snapshot();
  for (int round = 0; round < 50; ++round) {
    const MetricsSnapshot later = registry.Snapshot();
    const SnapshotDelta delta =
        SnapshotDelta::Between(earlier, later, 10.0);
    for (const telemetry::MetricDelta& m : delta.metrics) {
      // Counters and histogram counts are monotone, so no interval may
      // ever go backwards.
      EXPECT_GE(m.delta, 0.0) << m.name;
      EXPECT_GE(m.current, m.previous) << m.name;
    }
    earlier = later;
  }
  stop.store(true);
  for (std::thread& t : writers) {
    t.join();
  }
  const MetricsSnapshot final_snap = registry.Snapshot();
  const telemetry::MetricSample* total = final_snap.Find("mut.reads");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->value, 0.0);
}

TEST(ExpositionTest, LogSamplesUnderConcurrentMutation) {
  // The periodic exporter writes while the workload mutates: every block
  // it appends must parse as a self-consistent scrape.
  const std::string path = TempPath("exposition_concurrent.prom");
  MetricsRegistry registry;
  // The registry is owner-thread only: register every metric before the
  // writers start, and let them update through the handles.
  Counter* reads = registry.GetCounter("mut.log_reads");
  Gauge* gauge = registry.GetGauge("mut.log_gauge");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        reads->Add(1);
        gauge->Set(1.5);
      }
    });
  }
  ExpositionLog log(path);
  std::vector<Status> statuses;
  for (int round = 0; round < 20; ++round) {
    statuses.push_back(
        log.Sample(registry.Snapshot(), "r" + std::to_string(round)));
  }
  // Join before any assertion can return while the writers still run.
  stop.store(true);
  for (std::thread& t : writers) {
    t.join();
  }
  for (const Status& status : statuses) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(log.samples_written(), 20u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# hdov sample 19 label \"r19\""), std::string::npos);
  EXPECT_NE(text.find("mut_log_reads "), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hdov
