// Observability building blocks: metrics registry (counters, gauges,
// histograms, collectors, serializers) and the lock-free event log.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/debug_snapshot.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/slow_query_log.h"
#include "obs/wait_state.h"

namespace xdb {
namespace obs {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; i++) c.Add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Add(5);
  EXPECT_EQ(g.value(), 12);
}

TEST(HistogramTest, BucketsAndStats) {
  Histogram h(std::vector<uint64_t>{1, 2, 4, 8});
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);   // lands in the <=4 bucket
  h.Observe(100);  // overflow bucket
  HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 106u);
  EXPECT_EQ(d.min, 1u);
  EXPECT_EQ(d.max, 100u);
  ASSERT_EQ(d.counts.size(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(d.counts[0], 1u);      // <=1
  EXPECT_EQ(d.counts[1], 1u);      // <=2
  EXPECT_EQ(d.counts[2], 1u);      // <=4
  EXPECT_EQ(d.counts[3], 0u);      // <=8
  EXPECT_EQ(d.counts[4], 1u);      // overflow
}

TEST(HistogramTest, QuantilesFromBuckets) {
  Histogram h(Histogram::ExponentialBounds(1, 10));  // 1..512
  for (int i = 0; i < 90; i++) h.Observe(3);         // <=4 bucket
  for (int i = 0; i < 10; i++) h.Observe(100);       // <=128 bucket
  HistogramData d = h.Snapshot();
  EXPECT_EQ(d.Quantile(0.5), 4u);
  EXPECT_EQ(d.Quantile(0.99), 100u);  // clamped by max within the bucket
  EXPECT_EQ(d.Quantile(0.0), 4u);     // bucket upper-edge estimate
  EXPECT_EQ(HistogramData{}.Quantile(0.5), 0u);
}

TEST(HistogramTest, ConcurrentObservationsLoseNothing) {
  Histogram h(Histogram::LatencyBoundsUs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; i++)
        h.Observe(static_cast<uint64_t>(t * 37 + i % 1000));
    });
  for (auto& th : threads) th.join();
  HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : d.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, d.count);
  EXPECT_EQ(d.min, 0u);
  EXPECT_EQ(d.max, 7u * 37 + 999);
}

TEST(HistogramTest, ExponentialBoundsDouble) {
  std::vector<uint64_t> b = Histogram::ExponentialBounds(1, 4);
  EXPECT_EQ(b, (std::vector<uint64_t>{1, 2, 4, 8}));
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.AddCounter("x.count");
  Counter* b = reg.AddCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(3);
  Gauge* g1 = reg.AddGauge("x.level");
  Gauge* g2 = reg.AddGauge("x.level");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.AddHistogram("x.lat_us", Histogram::LatencyBoundsUs());
  Histogram* h2 = reg.AddHistogram("x.lat_us", Histogram::LatencyBoundsUs());
  EXPECT_EQ(h1, h2);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("x.count"), 3u);
}

TEST(RegistryTest, SnapshotSortedAndCollectorsRun) {
  MetricsRegistry reg;
  reg.AddCounter("b.count")->Add(2);
  reg.AddGauge("c.level")->Set(9);
  reg.AddCollector([](std::vector<Metric>* out) {
    Metric m;
    m.name = "a.collected";
    m.kind = MetricKind::kCounter;
    m.value = 7;
    out->push_back(std::move(m));
  });
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.collected");
  EXPECT_EQ(snap.metrics[1].name, "b.count");
  EXPECT_EQ(snap.metrics[2].name, "c.level");
  EXPECT_EQ(snap.Value("a.collected"), 7u);
  EXPECT_EQ(snap.Value("missing.metric"), 0u);
  EXPECT_EQ(snap.Find("missing.metric"), nullptr);
}

TEST(SnapshotTest, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.AddCounter("buffer.hits")->Add(123);
  reg.AddGauge("engine.collections")->Set(2);
  Histogram* h =
      reg.AddHistogram("query.latency_us", Histogram::ExponentialBounds(1, 6));
  h->Observe(3);
  h->Observe(17);
  h->Observe(1000);
  MetricsSnapshot snap = reg.Snapshot();

  std::string json = snap.ToJson();
  auto parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const MetricsSnapshot& back = parsed.value();
  ASSERT_EQ(back.metrics.size(), snap.metrics.size());
  for (size_t i = 0; i < snap.metrics.size(); i++) {
    EXPECT_EQ(back.metrics[i].name, snap.metrics[i].name);
    EXPECT_EQ(back.metrics[i].kind, snap.metrics[i].kind);
    EXPECT_EQ(back.metrics[i].value, snap.metrics[i].value);
    EXPECT_EQ(back.metrics[i].hist, snap.metrics[i].hist);
  }
  // Serialization is deterministic.
  EXPECT_EQ(back.ToJson(), json);
}

TEST(SnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"x\": [1,2}").ok());
  auto counter = [](const std::string& name, const std::string& value) {
    return "{\"" + name + "\": {\"kind\": \"counter\", \"value\": " + value +
           "}}";
  };
  EXPECT_TRUE(MetricsSnapshot::FromJson(counter("a", "18446744073709551615"))
                  .ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson(counter("a", "1") + "trailing").ok());
  EXPECT_FALSE(
      MetricsSnapshot::FromJson(counter("a", "18446744073709551616")).ok());
  EXPECT_FALSE(
      MetricsSnapshot::FromJson(counter("a", "99999999999999999999999")).ok());
  for (const char* escape : {"\\uZZZZ", "\\u0141", "\\q"})
    EXPECT_FALSE(MetricsSnapshot::FromJson(counter(escape, "1")).ok())
        << escape;
  auto tab = MetricsSnapshot::FromJson(counter("a\\tb", "1"));
  ASSERT_TRUE(tab.ok()) << tab.status().ToString();
  ASSERT_EQ(tab.value().metrics.size(), 1u);
  EXPECT_EQ(tab.value().metrics[0].name, "a\tb");
}

TEST(SnapshotTest, ToTextMentionsEveryMetric) {
  MetricsRegistry reg;
  reg.AddCounter("wal.commits")->Add(5);
  Histogram* h = reg.AddHistogram("wal.group_commit.batch_size",
                                  Histogram::ExponentialBounds(1, 9));
  h->Observe(4);
  std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("wal.commits"), std::string::npos);
  EXPECT_NE(text.find("wal.group_commit.batch_size"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(EventLogTest, EmitAndRecentInOrder) {
  EventLog log(16);
  log.Emit(EventKind::kCheckpointBegin, 1, 0, "checkpoint");
  log.Emit(EventKind::kCheckpointEnd, 1, 0, "checkpoint done");
  std::vector<Event> events = log.Recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, EventKind::kCheckpointBegin);
  EXPECT_EQ(events[0].arg0, 1u);
  EXPECT_EQ(events[0].message, "checkpoint");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].kind, EventKind::kCheckpointEnd);
  EXPECT_LE(events[0].timestamp_us, events[1].timestamp_us);
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.overwritten(), 0u);
  std::string s = events[0].ToString();
  EXPECT_NE(s.find("checkpoint.begin"), std::string::npos);
}

TEST(EventLogTest, OverflowKeepsNewestAndCounts) {
  EventLog log(8);  // capacity rounds to 8
  ASSERT_EQ(log.capacity(), 8u);
  for (uint64_t i = 0; i < 20; i++)
    log.Emit(EventKind::kIoRetry, i, 0, "retry " + std::to_string(i));
  std::vector<Event> events = log.Recent();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first, contiguous, ending at the newest emit.
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].arg0, 12 + i);
    EXPECT_EQ(events[i].message, "retry " + std::to_string(12 + i));
  }
  EXPECT_EQ(log.emitted(), 20u);
  EXPECT_EQ(log.overwritten(), 12u);
  // `max` trims from the old end.
  std::vector<Event> last3 = log.Recent(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].seq, 17u);
}

TEST(EventLogTest, LongMessagesTruncate) {
  EventLog log(8);
  std::string big(500, 'x');
  log.Emit(EventKind::kScrubFinding, big);
  std::vector<Event> events = log.Recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].message, big.substr(0, EventLog::kMaxMessage));
}

// Every field of a concurrent-test event derives from arg0, so a torn slot
// (two writers' stores mixed) fails the reader's checks. The message length
// varies across word boundaries.
EventKind EventKindFor(uint64_t v) {
  return static_cast<EventKind>(1 + v % 20);
}
std::string EventMessageFor(uint64_t v) {
  return "w" + std::to_string(v) + std::string(v % 23, '.');
}

TEST(EventLogTest, ConcurrentEmittersAndReaders) {
  EventLog log(64);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 10000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<Event> events = log.Recent();
      // Whatever survives validation must be in strictly increasing seq
      // order with untorn payloads.
      for (size_t i = 1; i < events.size(); i++)
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      for (const Event& e : events) {
        ASSERT_EQ(e.kind, EventKindFor(e.arg0));
        ASSERT_EQ(e.arg1, e.arg0 * 3 + 1);
        ASSERT_EQ(e.message, EventMessageFor(e.arg0));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++)
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; i++) {
        const uint64_t v = static_cast<uint64_t>(w * kPerWriter + i);
        log.Emit(EventKindFor(v), v, v * 3 + 1, EventMessageFor(v));
      }
    });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(log.emitted(), static_cast<uint64_t>(kWriters) * kPerWriter);
}

// --- wait-state attribution (obs/wait_state.h) ---

TEST(WaitStateTest, NamesAreStableTokens) {
  EXPECT_STREQ(WaitStateName(WaitState::kBufferIo), "buffer_io");
  EXPECT_STREQ(WaitStateName(WaitState::kLockWait), "lock_wait");
  EXPECT_STREQ(WaitStateName(WaitState::kWalCommit), "wal_commit");
  EXPECT_STREQ(WaitStateName(WaitState::kLatch), "latch");
  EXPECT_STREQ(WaitStateName(WaitState::kFreshness), "freshness");
  EXPECT_STREQ(WaitStateName(WaitState::kIndexProbe), "index_probe");
  EXPECT_STREQ(WaitStateName(WaitState::kReplApply), "repl_apply");
}

TEST(WaitStateTest, SinkRegistersPerStateHistograms) {
  MetricsRegistry reg;
  WaitSink sink;
  sink.Register(&reg);
  for (size_t s = 0; s < kWaitStateCount; s++)
    ASSERT_NE(sink.histogram(static_cast<WaitState>(s)), nullptr);
  sink.Record(WaitState::kBufferIo, 123);
  MetricsSnapshot snap = reg.Snapshot();
  const Metric* m = snap.Find("wait.buffer_io.us");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->hist.count, 1u);
  EXPECT_EQ(m->hist.sum, 123u);
  // Every state has its histogram, present even when never recorded.
  for (size_t s = 0; s < kWaitStateCount; s++) {
    std::string name = std::string("wait.") +
                       WaitStateName(static_cast<WaitState>(s)) + ".us";
    EXPECT_NE(snap.Find(name), nullptr) << name;
  }
}

TEST(WaitStateTest, SpanRecordsIntoSinkAndScope) {
  MetricsRegistry reg;
  WaitSink sink;
  sink.Register(&reg);
  WaitStats stats;
  {
    QueryWaitScope scope(&stats);
    WaitSpan span(&sink, WaitState::kLatch);
    span.Finish();
    // Idempotent: a second Finish (and the destructor) records nothing.
    EXPECT_EQ(span.Finish(), 0u);
  }
  EXPECT_EQ(stats.Count(WaitState::kLatch), 1u);
  EXPECT_EQ(sink.histogram(WaitState::kLatch)->Snapshot().count, 1u);
  EXPECT_EQ(stats.Count(WaitState::kBufferIo), 0u);
}

TEST(WaitStateTest, SpanWithoutTargetsNeverArms) {
  // No sink, no scope: Finish reports 0 elapsed (the span never read the
  // clock at all).
  WaitSpan span(nullptr, WaitState::kLockWait);
  EXPECT_EQ(span.Finish(), 0u);
}

TEST(WaitStateTest, KillSwitchDisablesSpans) {
  WaitStats stats;
  SetWaitAccountingEnabled(false);
  {
    QueryWaitScope scope(&stats);
    WaitSpan span(nullptr, WaitState::kLatch);
    span.Finish();
  }
  SetWaitAccountingEnabled(true);
  EXPECT_EQ(stats.Count(WaitState::kLatch), 0u);
  {
    QueryWaitScope scope(&stats);
    WaitSpan span(nullptr, WaitState::kLatch);
    span.Finish();
  }
  EXPECT_EQ(stats.Count(WaitState::kLatch), 1u);
}

TEST(WaitStateTest, ScopeNestsAndRestores) {
  EXPECT_EQ(QueryWaitScope::current(), nullptr);
  WaitStats outer, inner;
  {
    QueryWaitScope a(&outer);
    EXPECT_EQ(QueryWaitScope::current(), &outer);
    {
      QueryWaitScope b(&inner);
      EXPECT_EQ(QueryWaitScope::current(), &inner);
    }
    EXPECT_EQ(QueryWaitScope::current(), &outer);
  }
  EXPECT_EQ(QueryWaitScope::current(), nullptr);
}

TEST(WaitStateTest, ConcurrentSpansAccumulate) {
  // Many threads share one query's WaitStats (the ParallelFor chunk
  // pattern) while also feeding the engine-wide sink.
  MetricsRegistry reg;
  WaitSink sink;
  sink.Register(&reg);
  WaitStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++)
    threads.emplace_back([&] {
      QueryWaitScope scope(&stats);
      for (int i = 0; i < kPerThread; i++) {
        WaitSpan span(&sink, WaitState::kIndexProbe);
        span.Finish();
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(stats.Count(WaitState::kIndexProbe),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.histogram(WaitState::kIndexProbe)->Snapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- slow-query ring (obs/slow_query_log.h) ---

SlowQueryRecord MakeSlowRecord(uint64_t v) {
  SlowQueryRecord rec;
  rec.timestamp_us = 1700000000000000ull + v;
  rec.wall_us = v;
  rec.results = v * 3 + 1;
  rec.parallelism = v % 8 + 1;
  rec.collection = "c" + std::to_string(v % 10);
  rec.query = "//item[@id=" + std::to_string(v) + "]";
  rec.access_method = "docid-list";
  for (size_t s = 0; s < kWaitStateCount; s++) {
    rec.wait_us[s] = v + s;
    rec.wait_count[s] = s + 1;
  }
  return rec;
}

void CheckSlowRecord(const SlowQueryRecord& rec) {
  const uint64_t v = rec.wall_us;
  ASSERT_EQ(rec.timestamp_us, 1700000000000000ull + v);
  ASSERT_EQ(rec.results, v * 3 + 1);
  ASSERT_EQ(rec.parallelism, v % 8 + 1);
  ASSERT_EQ(rec.collection, "c" + std::to_string(v % 10));
  ASSERT_EQ(rec.query, "//item[@id=" + std::to_string(v) + "]");
  ASSERT_EQ(rec.access_method, "docid-list");
  for (size_t s = 0; s < kWaitStateCount; s++) {
    ASSERT_EQ(rec.wait_us[s], v + s);
    ASSERT_EQ(rec.wait_count[s], s + 1);
  }
}

TEST(SlowQueryLogTest, RecordAndRecentInOrder) {
  SlowQueryLog log(16);
  log.Record(MakeSlowRecord(7));
  log.Record(MakeSlowRecord(8));
  std::vector<SlowQueryRecord> recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].seq, 0u);
  EXPECT_EQ(recent[1].seq, 1u);
  CheckSlowRecord(recent[0]);
  CheckSlowRecord(recent[1]);
  EXPECT_EQ(recent[0].wall_us, 7u);
  EXPECT_EQ(recent[1].wall_us, 8u);
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_EQ(log.overwritten(), 0u);
  // TotalWaitUs sums the per-state totals.
  uint64_t want = 0;
  for (size_t s = 0; s < kWaitStateCount; s++) want += 7 + s;
  EXPECT_EQ(recent[0].TotalWaitUs(), want);
  std::string line = recent[0].ToString();
  EXPECT_NE(line.find("seq=0"), std::string::npos);
  EXPECT_NE(line.find("wall=7us"), std::string::npos);
  EXPECT_NE(line.find("coll=c7"), std::string::npos);
  EXPECT_NE(line.find("buffer_io=7us/1"), std::string::npos);
  EXPECT_NE(line.find("q=//item[@id=7]"), std::string::npos);
}

TEST(SlowQueryLogTest, TruncatesLongStrings) {
  SlowQueryLog log(8);
  SlowQueryRecord rec;
  rec.query = std::string(500, 'q');
  rec.collection = std::string(100, 'c');
  rec.access_method = std::string(100, 'm');
  log.Record(rec);
  std::vector<SlowQueryRecord> recent = log.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].query, std::string(SlowQueryLog::kMaxQuery, 'q'));
  EXPECT_EQ(recent[0].collection,
            std::string(SlowQueryLog::kMaxCollection, 'c'));
  EXPECT_EQ(recent[0].access_method,
            std::string(SlowQueryLog::kMaxAccessMethod, 'm'));
}

TEST(SlowQueryLogTest, OverflowKeepsNewestAndCounts) {
  SlowQueryLog log(8);
  ASSERT_EQ(log.capacity(), 8u);
  for (uint64_t i = 0; i < 20; i++) log.Record(MakeSlowRecord(i));
  std::vector<SlowQueryRecord> recent = log.Recent();
  ASSERT_EQ(recent.size(), 8u);
  for (size_t i = 0; i < recent.size(); i++) {
    EXPECT_EQ(recent[i].seq, 12 + i);
    EXPECT_EQ(recent[i].wall_us, 12 + i);
  }
  EXPECT_EQ(log.recorded(), 20u);
  EXPECT_EQ(log.overwritten(), 12u);
  std::vector<SlowQueryRecord> last3 = log.Recent(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].seq, 17u);
}

TEST(SlowQueryLogTest, ConcurrentRecordersAndReaders) {
  // The storm the seqlock protocol must survive: concurrent writers wrap
  // the ring under a reader that validates every surviving record's fields
  // are internally consistent (a torn slot would mix two writers' values —
  // MakeSlowRecord derives every field from wall_us, so CheckSlowRecord
  // catches any mixture).
  SlowQueryLog log(32);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 8000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<SlowQueryRecord> recs = log.Recent();
      for (size_t i = 1; i < recs.size(); i++)
        ASSERT_LT(recs[i - 1].seq, recs[i].seq);
      for (const SlowQueryRecord& r : recs) CheckSlowRecord(r);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++)
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; i++)
        log.Record(MakeSlowRecord(static_cast<uint64_t>(w * kPerWriter + i)));
    });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(log.recorded(), static_cast<uint64_t>(kWriters) * kPerWriter);
  // Bounded memory: the ring never grows; everything pushed out is counted.
  EXPECT_EQ(log.overwritten(),
            static_cast<uint64_t>(kWriters) * kPerWriter - log.capacity());
}

// --- ToText unit/empty rendering (the PR's audit) ---

TEST(SnapshotTest, ToTextRendersUnitsAndEmptyHistograms) {
  MetricsRegistry reg;
  Histogram* lat = reg.AddHistogram("query.latency_us",
                                    Histogram::ExponentialBounds(1, 4));
  lat->Observe(3);
  reg.AddHistogram("wait.freshness.us", Histogram::ExponentialBounds(1, 4));
  reg.AddHistogram("wal.group_commit.batch_size",
                   Histogram::ExponentialBounds(1, 4));
  reg.AddCounter("io.read_bytes")->Add(4096);
  std::string text = reg.Snapshot().ToText();
  // Microsecond histograms carry the unit on values and bucket bounds.
  EXPECT_NE(text.find("min=3us"), std::string::npos) << text;
  EXPECT_NE(text.find("buckets=4x[1us..8us]"), std::string::npos) << text;
  // Empty histograms render '-' for the undefined stats, never the
  // UINT64_MAX/0 sentinels.
  EXPECT_NE(text.find("count=0 avg=- p50=- p99=- min=- max=-"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("18446744073709551615"), std::string::npos) << text;
  // Unitless histograms (a batch size is a count) get bare numbers.
  EXPECT_NE(text.find("buckets=4x[1..8]"), std::string::npos) << text;
  // _bytes counters carry their unit too.
  EXPECT_NE(text.find("4096bytes"), std::string::npos) << text;
}

// --- DebugSnapshot (obs/debug_snapshot.h) ---

DebugSnapshot MakeDebugSnapshot() {
  DebugSnapshot snap;
  snap.captured_at_us = 1700000000000000ull;
  snap.role = "replica";
  snap.applied_csn = 4242;
  snap.wal_size = 9001;
  snap.wal_durable_upto = 8000;
  DebugSnapshot::CollectionInfo c;
  c.name = "catalog";
  c.doc_count = 48;
  c.node_count = 5000;
  c.stats_epoch = 97;
  c.buffer_resident = 61;
  c.buffer_capacity = 64;
  c.buffer_hits = 1234;
  c.buffer_misses = 65;
  snap.collections.push_back(c);
  MetricsRegistry reg;
  reg.AddCounter("buffer.hits")->Add(1234);
  Histogram* h =
      reg.AddHistogram("wait.latch.us", Histogram::ExponentialBounds(1, 6));
  h->Observe(12);
  snap.metrics = reg.Snapshot();
  EventLog events(8);
  events.Emit(EventKind::kCheckpointBegin, 1, 0, "checkpoint");
  snap.events = events.Recent();
  SlowQueryLog slow(8);
  slow.Record(MakeSlowRecord(12000));
  snap.slow_queries = slow.Recent();
  return snap;
}

TEST(DebugSnapshotTest, JsonRoundTripDeterministic) {
  DebugSnapshot snap = MakeDebugSnapshot();
  std::string json = snap.ToJson();
  auto parsed = DebugSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const DebugSnapshot& back = parsed.value();
  EXPECT_EQ(back.captured_at_us, snap.captured_at_us);
  EXPECT_EQ(back.role, snap.role);
  EXPECT_EQ(back.applied_csn, snap.applied_csn);
  EXPECT_EQ(back.wal_size, snap.wal_size);
  EXPECT_EQ(back.wal_durable_upto, snap.wal_durable_upto);
  ASSERT_EQ(back.collections.size(), 1u);
  EXPECT_EQ(back.collections[0], snap.collections[0]);
  ASSERT_EQ(back.metrics.metrics.size(), snap.metrics.metrics.size());
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].message, "checkpoint");
  ASSERT_EQ(back.slow_queries.size(), 1u);
  CheckSlowRecord(back.slow_queries[0]);
  // The round-trip contract the CI schema smoke-test pins:
  // FromJson(ToJson(s)).ToJson() == ToJson(s), byte for byte.
  EXPECT_EQ(back.ToJson(), json);
}

TEST(DebugSnapshotTest, ToTextRendersSections) {
  DebugSnapshot snap = MakeDebugSnapshot();
  std::string text = snap.ToText();
  EXPECT_NE(text.find("replica"), std::string::npos) << text;
  EXPECT_NE(text.find("catalog"), std::string::npos) << text;
  EXPECT_NE(text.find("wait"), std::string::npos) << text;
  EXPECT_NE(text.find("latch"), std::string::npos) << text;
  EXPECT_NE(text.find("slow queries"), std::string::npos) << text;
  EXPECT_NE(text.find("wall=12000us"), std::string::npos) << text;
  EXPECT_NE(text.find("checkpoint"), std::string::npos) << text;
}

TEST(DebugSnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(DebugSnapshot::FromJson("not json").ok());
  EXPECT_FALSE(DebugSnapshot::FromJson("{\"role\": \"primary\"").ok());
  EXPECT_FALSE(DebugSnapshot::FromJson("").ok());
  // Each case edits one token of a canonical snapshot.
  const std::string json = MakeDebugSnapshot().ToJson();
  auto edited = [&json](const std::string& from, const std::string& to) {
    std::string out = json;
    const size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  EXPECT_FALSE(DebugSnapshot::FromJson(json + "trailing").ok());
  for (const std::string csn :
       {"18446744073709551616", "99999999999999999999999"}) {
    const std::string bad =
        edited("\"applied_csn\": 4242", "\"applied_csn\": " + csn);
    EXPECT_FALSE(DebugSnapshot::FromJson(bad).ok()) << csn;
  }
  for (const std::string escape : {"\\uZZZZ", "\\u0141", "\\q"}) {
    const std::string bad = edited("\"replica\"", "\"re" + escape + "\"");
    EXPECT_FALSE(DebugSnapshot::FromJson(bad).ok()) << escape;
  }
  for (const std::string kind : {"0", "300"}) {
    const std::string bad = edited("\"kind\": 3,", "\"kind\": " + kind + ",");
    EXPECT_FALSE(DebugSnapshot::FromJson(bad).ok()) << kind;
  }
  auto tab = DebugSnapshot::FromJson(edited("\"replica\"", "\"a\\tb\""));
  ASSERT_TRUE(tab.ok()) << tab.status().ToString();
  EXPECT_EQ(tab.value().role, "a\tb");
}

/// One seeded edit of `json`: replace a byte, insert a byte, delete a run,
/// or truncate. Bytes come from a JSON-ish alphabet or are fully random.
void Mutate(Random* rng, std::string* json) {
  static constexpr char kAlphabet[] = "{}[]:,\"\\/ 0123456789-+.eEtrufalsbn\n";
  auto byte = [rng] {
    return rng->OneIn(2) ? kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)]
                         : static_cast<char>(rng->Uniform(256));
  };
  const size_t at = rng->Uniform(json->size() + 1);
  switch (rng->Uniform(4)) {
    case 0:
      if (at < json->size()) (*json)[at] = byte();
      break;
    case 1:
      json->insert(json->begin() + static_cast<ptrdiff_t>(at), byte());
      break;
    case 2:
      json->erase(at, 1 + rng->Uniform(16));
      break;
    default:
      json->resize(at);
  }
}

/// Every mutant must come back as a Status. An accepted one must render,
/// and re-serializing it must be a fixed point. Returns whether `mutant`
/// was accepted.
template <typename Snapshot>
bool CheckMutant(const std::string& mutant, uint64_t seed) {
  auto parsed = Snapshot::FromJson(mutant);
  if (!parsed.ok()) return false;
  parsed.value().ToText();
  const std::string json = parsed.value().ToJson();
  auto again = Snapshot::FromJson(json);
  EXPECT_TRUE(again.ok()) << "seed=" << seed << " "
                          << again.status().ToString();
  if (again.ok()) {
    EXPECT_EQ(again.value().ToJson(), json) << "seed=" << seed;
  }
  return true;
}

TEST(SnapshotJsonTest, SeededMutantsReturnStatusAndRoundTrip) {
  const DebugSnapshot snap = MakeDebugSnapshot();
  const std::string debug_json = snap.ToJson();
  const std::string metrics_json = snap.metrics.ToJson();
  constexpr uint64_t kBaseSeed = 20051024;
  constexpr uint64_t kMutants = 20000;
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < kMutants; ++i) {
    const uint64_t seed = kBaseSeed + i;
    Random rng(seed);
    const bool debug = i % 2 == 0;
    std::string mutant = debug ? debug_json : metrics_json;
    for (uint64_t edits = 1 + rng.Uniform(3); edits > 0; --edits)
      Mutate(&rng, &mutant);
    accepted += debug ? CheckMutant<DebugSnapshot>(mutant, seed)
                      : CheckMutant<MetricsSnapshot>(mutant, seed);
    if (HasFailure()) FAIL() << "first failing seed=" << seed;
  }
  // Some mutants (digit swaps, string bytes) stay valid, so the round-trip
  // half of the contract is exercised too.
  EXPECT_GT(accepted, 0u);
}

// --- QueryProfile (obs/query_trace.h) ---

TEST(QueryProfileTest, PlanTextKeepsLongLinesWhole) {
  QueryProfile profile;
  profile.query = "/a[b = \"" + std::string(600, 'x') + "\"]/b";
  profile.access_method = "docid-list";
  profile.probes.push_back(std::string(600, 'p'));
  const std::string text = profile.PlanText(QueryCounters{}, 0);
  EXPECT_NE(text.find("query: " + profile.query + "\naccess path: "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  probe: " + profile.probes[0] + "\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace obs
}  // namespace xdb
