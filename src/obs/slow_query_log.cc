#include "obs/slow_query_log.h"

#include <cinttypes>
#include <cstdio>

namespace xdb {
namespace obs {

std::string SlowQueryRecord::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seq=%" PRIu64 " ts=%" PRIu64 " wall=%" PRIu64
                "us coll=%s method=%s results=%" PRIu64 " par=%" PRIu64,
                seq, timestamp_us, wall_us, collection.c_str(),
                access_method.c_str(), results, parallelism);
  std::string out(buf);
  out += " waits[";
  bool first = true;
  for (size_t i = 0; i < kWaitStateCount; ++i) {
    if (wait_count[i] == 0) continue;
    if (!first) out.push_back(' ');
    first = false;
    std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "us/%" PRIu64,
                  WaitStateName(static_cast<WaitState>(i)), wait_us[i],
                  wait_count[i]);
    out += buf;
  }
  out += "] q=";
  out += query;
  return out;
}

void SlowQueryLog::Record(const SlowQueryRecord& rec) {
  ring_.Write([&](Slot& slot) {
    slot.timestamp_us.store(rec.timestamp_us, std::memory_order_relaxed);
    slot.wall_us.store(rec.wall_us, std::memory_order_relaxed);
    slot.results.store(rec.results, std::memory_order_relaxed);
    slot.parallelism.store(rec.parallelism, std::memory_order_relaxed);
    for (size_t i = 0; i < kWaitStateCount; ++i) {
      slot.wait_us[i].store(rec.wait_us[i], std::memory_order_relaxed);
      slot.wait_count[i].store(rec.wait_count[i], std::memory_order_relaxed);
    }
    slot.collection.Store(rec.collection);
    slot.query.Store(rec.query);
    slot.method.Store(rec.access_method);
  });
}

std::vector<SlowQueryRecord> SlowQueryLog::Recent(size_t max) const {
  return ring_.Recent<SlowQueryRecord>(max, [](const Slot& slot) {
    SlowQueryRecord r;
    r.timestamp_us = slot.timestamp_us.load(std::memory_order_relaxed);
    r.wall_us = slot.wall_us.load(std::memory_order_relaxed);
    r.results = slot.results.load(std::memory_order_relaxed);
    r.parallelism = slot.parallelism.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kWaitStateCount; ++i) {
      r.wait_us[i] = slot.wait_us[i].load(std::memory_order_relaxed);
      r.wait_count[i] = slot.wait_count[i].load(std::memory_order_relaxed);
    }
    r.collection = slot.collection.Load();
    r.query = slot.query.Load();
    r.access_method = slot.method.Load();
    return r;
  });
}

}  // namespace obs
}  // namespace xdb
