#include "obs/debug_snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

#include "common/format.h"

namespace xdb {
namespace obs {

namespace {

void AppendKeyU64(std::string* out, const char* key, uint64_t v, bool comma) {
  if (comma) out->append(", ");
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  json::AppendU64(out, v);
}

void AppendKeyString(std::string* out, const char* key, const std::string& v,
                     bool comma) {
  if (comma) out->append(", ");
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  json::AppendString(out, v);
}

void AppendWaitArray(std::string* out, const char* key, const uint64_t* vs) {
  out->append(", \"");
  out->append(key);
  out->append("\": ");
  json::AppendU64Array(out, std::span(vs, kWaitStateCount));
}

Status ReadWaitArray(json::Reader* in, uint64_t* vs) {
  std::vector<uint64_t> read;
  XDB_RETURN_NOT_OK(in->ReadU64Array(&read));
  if (read.size() != kWaitStateCount)
    return in->Error("wait array needs " + std::to_string(kWaitStateCount) +
                     " entries");
  std::copy(read.begin(), read.end(), vs);
  return Status::OK();
}

Status ReadCollection(json::Reader* in, DebugSnapshot::CollectionInfo* ci) {
  return in->ReadObject([&](const std::string& key) -> Status {
    if (key == "name") return in->ReadString(&ci->name);
    if (key == "doc_count") return in->ReadU64(&ci->doc_count);
    if (key == "node_count") return in->ReadU64(&ci->node_count);
    if (key == "stats_epoch") return in->ReadU64(&ci->stats_epoch);
    if (key == "buffer_resident") return in->ReadU64(&ci->buffer_resident);
    if (key == "buffer_capacity") return in->ReadU64(&ci->buffer_capacity);
    if (key == "buffer_hits") return in->ReadU64(&ci->buffer_hits);
    if (key == "buffer_misses") return in->ReadU64(&ci->buffer_misses);
    return in->Error("unknown collection key " + key);
  });
}

Status ReadEvent(json::Reader* in, Event* e) {
  return in->ReadObject([&](const std::string& key) -> Status {
    if (key == "seq") return in->ReadU64(&e->seq);
    if (key == "timestamp_us") return in->ReadU64(&e->timestamp_us);
    if (key == "arg0") return in->ReadU64(&e->arg0);
    if (key == "arg1") return in->ReadU64(&e->arg1);
    if (key == "message") return in->ReadString(&e->message);
    if (key != "kind") return in->Error("unknown event key " + key);
    uint64_t kind = 0;
    XDB_RETURN_NOT_OK(in->ReadU64(&kind));
    e->kind = static_cast<EventKind>(kind);
    if (kind > UINT8_MAX ||
        std::strcmp(EventKindName(e->kind), "unknown") == 0)
      return in->Error("unknown event kind " + std::to_string(kind));
    return Status::OK();
  });
}

Status ReadSlowQuery(json::Reader* in, SlowQueryRecord* r) {
  return in->ReadObject([&](const std::string& key) -> Status {
    if (key == "seq") return in->ReadU64(&r->seq);
    if (key == "timestamp_us") return in->ReadU64(&r->timestamp_us);
    if (key == "wall_us") return in->ReadU64(&r->wall_us);
    if (key == "results") return in->ReadU64(&r->results);
    if (key == "parallelism") return in->ReadU64(&r->parallelism);
    if (key == "collection") return in->ReadString(&r->collection);
    if (key == "query") return in->ReadString(&r->query);
    if (key == "access_method") return in->ReadString(&r->access_method);
    if (key == "wait_us") return ReadWaitArray(in, r->wait_us);
    if (key == "wait_count") return ReadWaitArray(in, r->wait_count);
    return in->Error("unknown slow-query key " + key);
  });
}

}  // namespace

std::string DebugSnapshot::ToJson() const {
  std::string out;
  out.reserve(4096);
  out.append("{\n\"captured_at_us\": ");
  json::AppendU64(&out, captured_at_us);
  AppendKeyString(&out, "role", role, true);
  AppendKeyU64(&out, "applied_csn", applied_csn, true);
  AppendKeyU64(&out, "wal_size", wal_size, true);
  AppendKeyU64(&out, "wal_durable_upto", wal_durable_upto, true);
  out.append(",\n\"collections\": [");
  for (size_t i = 0; i < collections.size(); ++i) {
    const CollectionInfo& ci = collections[i];
    if (i) out.push_back(',');
    out.append("\n {");
    AppendKeyString(&out, "name", ci.name, false);
    AppendKeyU64(&out, "doc_count", ci.doc_count, true);
    AppendKeyU64(&out, "node_count", ci.node_count, true);
    AppendKeyU64(&out, "stats_epoch", ci.stats_epoch, true);
    AppendKeyU64(&out, "buffer_resident", ci.buffer_resident, true);
    AppendKeyU64(&out, "buffer_capacity", ci.buffer_capacity, true);
    AppendKeyU64(&out, "buffer_hits", ci.buffer_hits, true);
    AppendKeyU64(&out, "buffer_misses", ci.buffer_misses, true);
    out.push_back('}');
  }
  out.append("],\n\"events\": [");
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i) out.push_back(',');
    out.append("\n {");
    AppendKeyU64(&out, "seq", e.seq, false);
    AppendKeyU64(&out, "timestamp_us", e.timestamp_us, true);
    AppendKeyU64(&out, "kind", static_cast<uint64_t>(e.kind), true);
    AppendKeyU64(&out, "arg0", e.arg0, true);
    AppendKeyU64(&out, "arg1", e.arg1, true);
    AppendKeyString(&out, "message", e.message, true);
    out.push_back('}');
  }
  out.append("],\n\"slow_queries\": [");
  for (size_t i = 0; i < slow_queries.size(); ++i) {
    const SlowQueryRecord& r = slow_queries[i];
    if (i) out.push_back(',');
    out.append("\n {");
    AppendKeyU64(&out, "seq", r.seq, false);
    AppendKeyU64(&out, "timestamp_us", r.timestamp_us, true);
    AppendKeyU64(&out, "wall_us", r.wall_us, true);
    AppendKeyU64(&out, "results", r.results, true);
    AppendKeyU64(&out, "parallelism", r.parallelism, true);
    AppendKeyString(&out, "collection", r.collection, true);
    AppendKeyString(&out, "query", r.query, true);
    AppendKeyString(&out, "access_method", r.access_method, true);
    AppendWaitArray(&out, "wait_us", r.wait_us);
    AppendWaitArray(&out, "wait_count", r.wait_count);
    out.push_back('}');
  }
  out.append("],\n\"metrics\": ");
  std::string mjson = metrics.ToJson();
  // MetricsSnapshot::ToJson ends with a newline; trim it so the embedding
  // stays canonical.
  while (!mjson.empty() && mjson.back() == '\n') mjson.pop_back();
  out.append(mjson);
  out.append("\n}\n");
  return out;
}

std::string DebugSnapshot::ToText() const {
  std::string out;
  Appendf(&out, "xdb engine snapshot  captured_at_us=%" PRIu64 " role=%s\n",
          captured_at_us, role.c_str());
  Appendf(&out,
          "replication: applied_csn=%" PRIu64 "  wal: size=%" PRIu64
          " durable_upto=%" PRIu64 "\n",
          applied_csn, wal_size, wal_durable_upto);
  Appendf(&out, "\ncollections (%zu):\n", collections.size());
  for (const CollectionInfo& ci : collections) {
    Appendf(&out,
            "  %-20s docs=%-8" PRIu64 " nodes~%-10" PRIu64 " epoch=%" PRIu64
            "\n",
            ci.name.c_str(), ci.doc_count, ci.node_count, ci.stats_epoch);
    Appendf(&out,
            "  %-20s buffer: %" PRIu64 "/%" PRIu64 " frames resident, hits=%"
            PRIu64 " misses=%" PRIu64 "\n",
            "", ci.buffer_resident, ci.buffer_capacity, ci.buffer_hits,
            ci.buffer_misses);
  }
  // The engine-wide wait profile: the wait.<state>.us histograms from the
  // metrics snapshot, rendered as one table.
  out.append("\nwaits (engine-wide):\n");
  bool any_wait = false;
  for (const Metric& m : metrics.metrics) {
    if (m.name.rfind("wait.", 0) != 0 || m.kind != MetricKind::kHistogram)
      continue;
    any_wait = true;
    const HistogramData& h = m.hist;
    if (h.count == 0) {
      Appendf(&out, "  %-24s count=0\n", m.name.c_str());
    } else {
      Appendf(&out,
              "  %-24s count=%-8" PRIu64 " total=%" PRIu64 "us p50=%" PRIu64
              "us p99=%" PRIu64 "us max=%" PRIu64 "us\n",
              m.name.c_str(), h.count, h.sum, h.Quantile(0.5),
              h.Quantile(0.99), h.max);
    }
  }
  if (!any_wait) out.append("  (no wait metrics registered)\n");
  Appendf(&out, "\nslow queries (%zu):\n", slow_queries.size());
  for (const SlowQueryRecord& r : slow_queries) {
    out.append("  ");
    out.append(r.ToString());
    out.push_back('\n');
  }
  Appendf(&out, "\nrecent events (%zu):\n", events.size());
  for (const Event& e : events) {
    out.append("  ");
    out.append(e.ToString());
    out.push_back('\n');
  }
  Appendf(&out, "\nmetrics: %zu registered (use --json for the full dump)\n",
          metrics.metrics.size());
  return out;
}

Result<DebugSnapshot> DebugSnapshot::FromJson(const std::string& json) {
  json::Reader in(json);
  DebugSnapshot snap;
  XDB_RETURN_NOT_OK(in.ReadObject([&](const std::string& key) -> Status {
    if (key == "captured_at_us") return in.ReadU64(&snap.captured_at_us);
    if (key == "role") return in.ReadString(&snap.role);
    if (key == "applied_csn") return in.ReadU64(&snap.applied_csn);
    if (key == "wal_size") return in.ReadU64(&snap.wal_size);
    if (key == "wal_durable_upto") return in.ReadU64(&snap.wal_durable_upto);
    if (key == "collections")
      return in.ReadArray([&] {
        return ReadCollection(&in, &snap.collections.emplace_back());
      });
    if (key == "events")
      return in.ReadArray(
          [&] { return ReadEvent(&in, &snap.events.emplace_back()); });
    if (key == "slow_queries")
      return in.ReadArray([&] {
        return ReadSlowQuery(&in, &snap.slow_queries.emplace_back());
      });
    if (key != "metrics") return in.Error("unknown key " + key);
    XDB_ASSIGN_OR_RETURN(snap.metrics, MetricsSnapshot::ReadJson(&in));
    return Status::OK();
  }));
  XDB_RETURN_NOT_OK(in.ExpectEnd());
  return snap;
}

}  // namespace obs
}  // namespace xdb
