#include "query/stats.h"

#include <algorithm>

#include "common/coding.h"

namespace xdb {
namespace query {

uint64_t StatsKeyHash(Slice key) {
  // FNV-1a, 64-bit. Chosen for determinism (golden tests, crash replay)
  // rather than strength; key sets small enough to index are far below the
  // collision regime that would skew a 64-sample sketch.
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < key.size(); i++) {
    h ^= static_cast<unsigned char>(key[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// One index's live stats. The KMV sketch keeps the kSketchSize smallest
/// key hashes with the key bytes and a live-entry refcount, giving (a) a
/// distinct-count estimator — the k-th smallest of D uniform hashes sits
/// near k/D of the hash space — and (b) a uniform sample of distinct keys
/// for range selectivity. Removes retire a sampled key when its refcount
/// hits zero; removes of unsampled keys only decrement the entry count
/// (the estimate drifts high until the next rebuild, which is the safe
/// direction — overestimating distinct keys underestimates selectivity).
struct CollectionStats::PerIndex final : public ValueIndexStatsListener {
  explicit PerIndex(CollectionStats* owner_in) : owner(owner_in) {}

  void OnEntryAdded(Slice encoded_key) override {
    MutexLock lock(owner->mu_);
    entry_count++;
    uint64_t h = StatsKeyHash(encoded_key);
    auto it = sketch.find(h);
    if (it != sketch.end()) {
      it->second.count++;
    } else if (sketch.size() < kSketchSize) {
      sketch.emplace(h, SampleEntry{encoded_key.ToString(), 1});
    } else if (h < sketch.rbegin()->first) {
      sketch.erase(std::prev(sketch.end()));
      sketch.emplace(h, SampleEntry{encoded_key.ToString(), 1});
      saturated = true;
    } else {
      saturated = true;
    }
  }

  void OnEntryRemoved(Slice encoded_key) override {
    MutexLock lock(owner->mu_);
    if (entry_count > 0) entry_count--;
    auto it = sketch.find(StatsKeyHash(encoded_key));
    if (it != sketch.end() && it->second.count > 0 && --it->second.count == 0)
      sketch.erase(it);
  }

  struct SampleEntry {
    std::string key;
    uint64_t count = 0;  // live entries with this key (refcount)
  };

  double EstimateDistinct() const {
    size_t k = sketch.size();
    if (k == 0) return 0;
    if (!saturated) return static_cast<double>(k);
    // KMV estimator: D ~= (k - 1) / h_max with hashes normalized to (0, 1].
    double h_max = (static_cast<double>(sketch.rbegin()->first) + 1.0) /
                   18446744073709551616.0;  // 2^64
    double est = static_cast<double>(k - 1) / h_max;
    est = std::max(est, static_cast<double>(k));
    return std::min(est, static_cast<double>(entry_count));
  }

  CollectionStats* owner;
  uint64_t entry_count = 0;
  bool saturated = false;  // ever displaced/rejected a hash: estimator mode
  std::map<uint64_t, SampleEntry> sketch;  // hash -> sampled key
};

/// One structural index's live stats: exact entry count plus a bounded
/// per-name (count, span-sum) table. Names past the cap pool into
/// `other_count` — the planner then estimates an untracked name at the whole
/// pool's size, which overprices (never underprices) the structural scan.
/// Removes of pooled names only decrement the pool, the same safe-direction
/// drift as the KMV sketch above.
struct CollectionStats::PerStructural final
    : public StructuralIndexStatsListener {
  explicit PerStructural(CollectionStats* owner_in) : owner(owner_in) {}

  void OnElementsAdded(Slice local_name, uint64_t n,
                       uint64_t span_sum) override {
    if (n == 0) return;
    MutexLock lock(owner->mu_);
    entries_added += n;
    entry_count += n;
    std::string key = local_name.ToString();
    auto it = names.find(key);
    if (it == names.end()) {
      if (names.size() >= kMaxStructuralNames) {
        other_count += n;
        return;
      }
      it = names.emplace(std::move(key), StructuralNameStats{}).first;
    }
    it->second.count += n;
    it->second.span_sum += span_sum;
  }

  void OnElementsRemoved(Slice local_name,
                         std::span<const uint32_t> spans) override {
    MutexLock lock(owner->mu_);
    entries_removed += spans.size();
    entry_count -= std::min<uint64_t>(entry_count, spans.size());
    size_t i = 0;
    auto it = names.find(local_name.ToString());
    if (it != names.end()) {
      StructuralNameStats& s = it->second;
      bool emptied = false;
      while (i < spans.size() && !emptied) {
        s.span_sum -= std::min<uint64_t>(s.span_sum, spans[i++]);
        emptied = s.count > 0 && --s.count == 0;
      }
      if (emptied) names.erase(it);
    }
    // Removes past a tracked name's count, or of a pooled name, drain the
    // pool.
    other_count -= std::min<uint64_t>(other_count, spans.size() - i);
  }

  void OnSpanMoved(Slice local_name, int64_t delta) override {
    MutexLock lock(owner->mu_);
    auto it = names.find(local_name.ToString());
    if (it == names.end()) return;  // pooled names keep no span
    const int64_t span = static_cast<int64_t>(it->second.span_sum) + delta;
    it->second.span_sum = static_cast<uint64_t>(std::max<int64_t>(span, 0));
  }

  CollectionStats* owner;
  uint64_t entry_count = 0;
  uint64_t other_count = 0;
  /// Process-lifetime maintenance counters; not persisted (see the
  /// StructuralStatsSnapshot field comment).
  uint64_t entries_added = 0;
  uint64_t entries_removed = 0;
  std::map<std::string, StructuralNameStats> names;
};

CollectionStats::CollectionStats() = default;
CollectionStats::~CollectionStats() = default;

void CollectionStats::NoteDocumentInserted(uint64_t node_count) {
  // The epoch bump happens under mu_ in every mutator so a Snapshot() never
  // pairs new counters with an older epoch (a plan priced on the new counts
  // but cached under the old epoch key would be served at that epoch).
  MutexLock lock(mu_);
  doc_count_++;
  node_count_ += node_count;
  Bump();
}

void CollectionStats::NoteDocumentDeleted() {
  MutexLock lock(mu_);
  if (doc_count_ > 0) {
    // The deleted document's node count is unknown without an extra
    // storage pass; decay by the collection average. Self-corrects as
    // documents churn and is rebuilt exactly on storage rebuild.
    node_count_ -= std::min(node_count_, node_count_ / doc_count_);
    doc_count_--;
  } else {
    node_count_ = 0;
  }
  Bump();
}

void CollectionStats::NoteDocumentMutated() { Bump(); }

ValueIndexStatsListener* CollectionStats::ListenerFor(
    const std::string& name) {
  MutexLock lock(mu_);
  auto it = indexes_.find(name);
  if (it == indexes_.end())
    it = indexes_.emplace(name, std::make_unique<PerIndex>(this)).first;
  return it->second.get();
}

ValueIndexStatsListener* CollectionStats::NoteIndexCreated(
    const std::string& name) {
  MutexLock lock(mu_);
  auto it = indexes_.find(name);
  if (it == indexes_.end())
    it = indexes_.emplace(name, std::make_unique<PerIndex>(this)).first;
  Bump();
  return it->second.get();
}

void CollectionStats::NoteIndexDropped(const std::string& name) {
  MutexLock lock(mu_);
  indexes_.erase(name);
  Bump();
}

StructuralIndexStatsListener* CollectionStats::StructuralListenerFor(
    const std::string& name) {
  MutexLock lock(mu_);
  auto it = structural_.find(name);
  if (it == structural_.end())
    it = structural_.emplace(name, std::make_unique<PerStructural>(this))
             .first;
  return it->second.get();
}

StructuralIndexStatsListener* CollectionStats::NoteStructuralIndexCreated(
    const std::string& name) {
  MutexLock lock(mu_);
  auto it = structural_.find(name);
  if (it == structural_.end())
    it = structural_.emplace(name, std::make_unique<PerStructural>(this))
             .first;
  Bump();
  return it->second.get();
}

void CollectionStats::NoteStructuralIndexDropped(const std::string& name) {
  MutexLock lock(mu_);
  structural_.erase(name);
  Bump();
}

CollectionStatsSnapshot CollectionStats::Snapshot() const {
  CollectionStatsSnapshot snap;
  // The epoch is read under mu_, the same hold every mutator bumps under,
  // so the snapshot's epoch always matches its counters.
  MutexLock lock(mu_);
  snap.epoch = epoch();
  snap.doc_count = doc_count_;
  snap.node_count = node_count_;
  for (const auto& [name, ix] : indexes_) {
    IndexStatsSnapshot s;
    s.entry_count = ix->entry_count;
    s.distinct_keys = ix->EstimateDistinct();
    s.sample_keys.reserve(ix->sketch.size());
    for (const auto& [hash, entry] : ix->sketch) s.sample_keys.push_back(entry.key);
    std::sort(s.sample_keys.begin(), s.sample_keys.end());
    snap.indexes.emplace(name, std::move(s));
  }
  for (const auto& [name, st] : structural_) {
    StructuralStatsSnapshot s;
    s.entry_count = st->entry_count;
    s.other_count = st->other_count;
    s.entries_added = st->entries_added;
    s.entries_removed = st->entries_removed;
    s.names = st->names;
    snap.structural.emplace(name, std::move(s));
  }
  return snap;
}

void CollectionStats::ResetEmpty() {
  MutexLock lock(mu_);
  doc_count_ = 0;
  node_count_ = 0;
  for (auto& [name, ix] : indexes_) {
    ix->entry_count = 0;
    ix->saturated = false;
    ix->sketch.clear();
  }
  for (auto& [name, st] : structural_) {
    st->entry_count = 0;
    st->other_count = 0;
    st->names.clear();
  }
  // Under mu_ so a concurrent Snapshot() never pairs the zeroed counters
  // with the pre-reset epoch.
  Bump();
}

void CollectionStats::Serialize(std::string* out) const {
  MutexLock lock(mu_);
  PutFixed64(out, epoch());
  PutFixed64(out, doc_count_);
  PutFixed64(out, node_count_);
  PutVarint64(out, indexes_.size());
  for (const auto& [name, ix] : indexes_) {
    PutLengthPrefixed(out, name);
    PutFixed64(out, ix->entry_count);
    out->push_back(ix->saturated ? 1 : 0);
    PutVarint64(out, ix->sketch.size());
    for (const auto& [hash, entry] : ix->sketch) {
      PutFixed64(out, hash);
      PutFixed64(out, entry.count);
      PutLengthPrefixed(out, entry.key);
    }
  }
  PutVarint64(out, structural_.size());
  for (const auto& [name, st] : structural_) {
    PutLengthPrefixed(out, name);
    PutFixed64(out, st->entry_count);
    PutFixed64(out, st->other_count);
    PutVarint64(out, st->names.size());
    for (const auto& [elem, ns] : st->names) {
      PutLengthPrefixed(out, elem);
      PutFixed64(out, ns.count);
      PutFixed64(out, ns.span_sum);
    }
  }
}

Status CollectionStats::Restore(Slice data) {
  auto read_var = [&](uint64_t* v) -> bool {
    size_t n = GetVarint64(data.data(), data.data() + data.size(), v);
    if (n == 0) return false;
    data.RemovePrefix(n);
    return true;
  };
  auto read_fix = [&](uint64_t* v) -> bool {
    if (data.size() < 8) return false;
    *v = DecodeFixed64(data.data());
    data.RemovePrefix(8);
    return true;
  };
  // Updates in place as it parses: open-time wiring has already handed out
  // listener pointers into indexes_ and structural_, so existing objects
  // must survive. A blob that fails midway leaves the statistics partly
  // restored; the caller then re-derives them, which resets them first.
  MutexLock lock(mu_);
  uint64_t epoch, n_indexes;
  if (!read_fix(&epoch) || !read_fix(&doc_count_) || !read_fix(&node_count_) ||
      !read_var(&n_indexes))
    return Status::Corruption("truncated collection stats");
  for (uint64_t i = 0; i < n_indexes; i++) {
    Slice name;
    if (!GetLengthPrefixed(&data, &name))
      return Status::Corruption("bad stats index name");
    std::unique_ptr<PerIndex>& ix = indexes_[name.ToString()];
    if (ix == nullptr) ix = std::make_unique<PerIndex>(this);
    uint64_t n_sketch;
    if (!read_fix(&ix->entry_count) || data.empty())
      return Status::Corruption("bad stats index entry count");
    ix->saturated = data[0] != 0;
    data.RemovePrefix(1);
    if (!read_var(&n_sketch)) return Status::Corruption("bad sketch size");
    ix->sketch.clear();
    for (uint64_t s = 0; s < n_sketch; s++) {
      uint64_t hash, count;
      Slice key;
      if (!read_fix(&hash) || !read_fix(&count) ||
          !GetLengthPrefixed(&data, &key))
        return Status::Corruption("bad sketch entry");
      ix->sketch.emplace(hash, PerIndex::SampleEntry{key.ToString(), count});
    }
  }
  uint64_t n_structural;
  if (!read_var(&n_structural))
    return Status::Corruption("bad structural stats count");
  for (uint64_t i = 0; i < n_structural; i++) {
    Slice name;
    if (!GetLengthPrefixed(&data, &name))
      return Status::Corruption("bad structural stats name");
    std::unique_ptr<PerStructural>& st = structural_[name.ToString()];
    if (st == nullptr) st = std::make_unique<PerStructural>(this);
    uint64_t n_names;
    if (!read_fix(&st->entry_count) || !read_fix(&st->other_count) ||
        !read_var(&n_names))
      return Status::Corruption("bad structural stats header");
    st->names.clear();
    for (uint64_t s = 0; s < n_names; s++) {
      Slice elem;
      StructuralNameStats ns;
      if (!GetLengthPrefixed(&data, &elem) || !read_fix(&ns.count) ||
          !read_fix(&ns.span_sum))
        return Status::Corruption("bad structural name record");
      st->names.emplace(elem.ToString(), ns);
    }
  }
  epoch_.store(epoch, std::memory_order_release);
  return Status::OK();
}

}  // namespace query
}  // namespace xdb
