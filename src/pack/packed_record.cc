#include "pack/packed_record.h"

#include <functional>

#include "common/coding.h"
#include "xml/node_id.h"

namespace xdb {

namespace {

// Reads a self-delimiting relative node ID (odd* even) from [*p, limit).
bool ReadRelId(const char** p, const char* limit, Slice* out) {
  const char* q = *p;
  while (q < limit && (static_cast<unsigned char>(*q) & 1) != 0) q++;
  if (q >= limit) return false;
  q++;  // include the terminating even byte
  *out = Slice(*p, static_cast<size_t>(q - *p));
  *p = q;
  return true;
}

bool ReadVar32(const char** p, const char* limit, uint32_t* v) {
  size_t n = GetVarint32(*p, limit, v);
  if (n == 0) return false;
  *p += n;
  return true;
}

bool ReadLp(const char** p, const char* limit, Slice* out) {
  uint64_t len;
  size_t n = GetVarint64(*p, limit, &len);
  // Compared as sizes: a damaged length must not wrap the pointer.
  if (n == 0 || len > static_cast<uint64_t>(limit - *p) - n) return false;
  *out = Slice(*p + n, static_cast<size_t>(len));
  *p += n + len;
  return true;
}

}  // namespace

namespace packfmt {

void AppendAttribute(std::string* dst, Slice rel_id, NameId local,
                     NameId ns_uri, NameId prefix, TypeAnno type,
                     Slice value) {
  dst->push_back(static_cast<char>(NodeKind::kAttribute));
  dst->append(rel_id.data(), rel_id.size());
  PutVarint32(dst, local);
  PutVarint32(dst, ns_uri);
  PutVarint32(dst, prefix);
  dst->push_back(static_cast<char>(type));
  PutLengthPrefixed(dst, value);
}

void AppendText(std::string* dst, Slice rel_id, TypeAnno type, Slice value) {
  dst->push_back(static_cast<char>(NodeKind::kText));
  dst->append(rel_id.data(), rel_id.size());
  dst->push_back(static_cast<char>(type));
  PutLengthPrefixed(dst, value);
}

void AppendNamespace(std::string* dst, Slice rel_id, NameId prefix,
                     NameId uri) {
  dst->push_back(static_cast<char>(NodeKind::kNamespace));
  dst->append(rel_id.data(), rel_id.size());
  PutVarint32(dst, prefix);
  PutVarint32(dst, uri);
}

void AppendComment(std::string* dst, Slice rel_id, Slice value) {
  dst->push_back(static_cast<char>(NodeKind::kComment));
  dst->append(rel_id.data(), rel_id.size());
  PutLengthPrefixed(dst, value);
}

void AppendPi(std::string* dst, Slice rel_id, NameId target, Slice value) {
  dst->push_back(static_cast<char>(NodeKind::kProcessingInstruction));
  dst->append(rel_id.data(), rel_id.size());
  PutVarint32(dst, target);
  PutLengthPrefixed(dst, value);
}

void AppendElement(std::string* dst, Slice rel_id, NameId local, NameId ns_uri,
                   NameId prefix, uint32_t child_count, Slice children) {
  dst->push_back(static_cast<char>(NodeKind::kElement));
  dst->append(rel_id.data(), rel_id.size());
  PutVarint32(dst, local);
  PutVarint32(dst, ns_uri);
  PutVarint32(dst, prefix);
  PutVarint32(dst, child_count);
  PutVarint64(dst, children.size());
  dst->append(children.data(), children.size());
}

void AppendProxy(std::string* dst, Slice rel_id) {
  dst->push_back(static_cast<char>(NodeKind::kProxy));
  dst->append(rel_id.data(), rel_id.size());
}

}  // namespace packfmt

void AppendRecordHeader(const RecordHeader& header, std::string* dst) {
  PutLengthPrefixed(dst, header.context_node_id);
  PutVarint64(dst, header.root_path.size());
  for (const auto& step : header.root_path) {
    PutVarint32(dst, step.local);
    PutVarint32(dst, step.ns_uri);
  }
  PutVarint64(dst, header.namespaces.size());
  for (const auto& [prefix, uri] : header.namespaces) {
    PutVarint32(dst, prefix);
    PutVarint32(dst, uri);
  }
  PutVarint32(dst, header.subtree_count);
}

Status ParseRecordHeader(Slice record, RecordHeader* header, Slice* payload) {
  const char* p = record.data();
  const char* limit = p + record.size();
  if (!ReadLp(&p, limit, &header->context_node_id))
    return Status::Corruption("bad record header: context id");
  uint32_t path_len;
  if (!ReadVar32(&p, limit, &path_len))
    return Status::Corruption("bad record header: path length");
  // Each step takes at least two bytes: a damaged count must not size an
  // allocation.
  if (path_len > static_cast<size_t>(limit - p) / 2)
    return Status::Corruption("bad record header: path length");
  header->root_path.clear();
  header->root_path.reserve(path_len);
  for (uint32_t i = 0; i < path_len; i++) {
    RecordHeader::PathStep step;
    if (!ReadVar32(&p, limit, &step.local) ||
        !ReadVar32(&p, limit, &step.ns_uri))
      return Status::Corruption("bad record header: path step");
    header->root_path.push_back(step);
  }
  uint32_t ns_count;
  if (!ReadVar32(&p, limit, &ns_count))
    return Status::Corruption("bad record header: namespace count");
  header->namespaces.clear();
  for (uint32_t i = 0; i < ns_count; i++) {
    uint32_t prefix, uri;
    if (!ReadVar32(&p, limit, &prefix) || !ReadVar32(&p, limit, &uri))
      return Status::Corruption("bad record header: namespace pair");
    header->namespaces.emplace_back(prefix, uri);
  }
  if (!ReadVar32(&p, limit, &header->subtree_count))
    return Status::Corruption("bad record header: subtree count");
  *payload = Slice(p, static_cast<size_t>(limit - p));
  return Status::OK();
}

RecordWalker::RecordWalker(Slice record) : record_(record) {}

Status RecordWalker::Init() {
  Slice payload;
  XDB_RETURN_NOT_OK(ParseRecordHeader(record_, &header_, &payload));
  p_ = payload.data();
  limit_ = p_ + payload.size();
  id_.assign(header_.context_node_id.data(), header_.context_node_id.size());
  return Status::OK();
}

void RecordWalker::SkipChildren() { pending_skip_ = true; }

Status RecordWalker::Next(Event* event) {
  if (pending_skip_) {
    pending_skip_ = false;
    if (!stack_.empty()) {
      p_ = stack_.back().end;
      stack_.pop_back();
    }
  }
  // The entry's fields are set in place: kind, abs_id and depth for every
  // event, the rest for kStart.
  PackedEntry& e = event->entry;
  // Close any elements whose children are exhausted.
  if (!stack_.empty() && p_ >= stack_.back().end) {
    event->type = EventType::kEnd;
    e.kind = NodeKind::kElement;
    id_.resize(stack_.back().id_len);
    e.abs_id = Slice(id_);
    e.depth = static_cast<int>(stack_.size()) - 1;
    stack_.pop_back();
    return Status::OK();
  }
  if (p_ >= limit_) {
    event->type = EventType::kDone;
    return Status::OK();
  }

  e.kind = static_cast<NodeKind>(*p_++);
  if (!ReadRelId(&p_, limit_, &e.rel_id))
    return Status::Corruption("bad packed entry: relative id");
  id_.resize(stack_.empty() ? header_.context_node_id.size()
                            : stack_.back().id_len);
  id_.append(e.rel_id.data(), e.rel_id.size());
  e.abs_id = Slice(id_);
  e.depth = static_cast<int>(stack_.size());
  e.local = e.ns_uri = e.prefix = kEmptyNameId;
  e.type = TypeAnno::kUntyped;
  e.value = Slice();
  e.child_count = 0;
  e.children_len = 0;

  switch (e.kind) {
    case NodeKind::kElement: {
      if (!ReadVar32(&p_, limit_, &e.local) ||
          !ReadVar32(&p_, limit_, &e.ns_uri) ||
          !ReadVar32(&p_, limit_, &e.prefix) ||
          !ReadVar32(&p_, limit_, &e.child_count) ||
          !ReadVar32(&p_, limit_, &e.children_len))
        return Status::Corruption("bad packed element entry");
      if (e.children_len > static_cast<size_t>(limit_ - p_))
        return Status::Corruption("element children overrun record");
      stack_.push_back(Frame{p_ + e.children_len, id_.size()});
      break;
    }
    case NodeKind::kAttribute: {
      if (!ReadVar32(&p_, limit_, &e.local) ||
          !ReadVar32(&p_, limit_, &e.ns_uri) ||
          !ReadVar32(&p_, limit_, &e.prefix))
        return Status::Corruption("bad packed attribute entry");
      if (p_ >= limit_) return Status::Corruption("truncated attribute");
      e.type = static_cast<TypeAnno>(*p_++);
      if (!ReadLp(&p_, limit_, &e.value))
        return Status::Corruption("bad attribute value");
      break;
    }
    case NodeKind::kText: {
      if (p_ >= limit_) return Status::Corruption("truncated text entry");
      e.type = static_cast<TypeAnno>(*p_++);
      if (!ReadLp(&p_, limit_, &e.value))
        return Status::Corruption("bad text value");
      break;
    }
    case NodeKind::kNamespace: {
      if (!ReadVar32(&p_, limit_, &e.local) ||
          !ReadVar32(&p_, limit_, &e.ns_uri))
        return Status::Corruption("bad namespace entry");
      break;
    }
    case NodeKind::kComment: {
      if (!ReadLp(&p_, limit_, &e.value))
        return Status::Corruption("bad comment value");
      break;
    }
    case NodeKind::kProcessingInstruction: {
      if (!ReadVar32(&p_, limit_, &e.local) ||
          !ReadLp(&p_, limit_, &e.value))
        return Status::Corruption("bad PI entry");
      break;
    }
    case NodeKind::kProxy:
      break;
    default:
      return Status::Corruption("unknown packed entry kind");
  }
  event->type = EventType::kStart;
  return Status::OK();
}

Status ComputeNodeIdIntervals(Slice record,
                              std::vector<std::string>* interval_uppers) {
  interval_uppers->clear();
  RecordWalker walker(record);
  XDB_RETURN_NOT_OK(walker.Init());
  std::string last_id;  // copied: the walker's ID buffer moves on
  bool in_interval = false;
  RecordWalker::Event ev;
  for (;;) {
    XDB_RETURN_NOT_OK(walker.Next(&ev));
    if (ev.type == RecordWalker::EventType::kDone) break;
    if (ev.type != RecordWalker::EventType::kStart) continue;
    if (ev.entry.kind == NodeKind::kProxy) {
      // A gap: everything inside the proxy's subtree lives elsewhere.
      if (in_interval) {
        interval_uppers->push_back(last_id);
        in_interval = false;
      }
      continue;
    }
    last_id.assign(ev.entry.abs_id.data(), ev.entry.abs_id.size());
    in_interval = true;
  }
  if (in_interval) interval_uppers->push_back(last_id);
  return Status::OK();
}

namespace {

// The one rewrite pass: walks the record and re-emits every entry, so each
// surgery below is a hook on the entries it edits. The context node is the
// base frame: its child list is the record's top level and its child count
// the header's subtree count.
struct RebuildHooks {
  // Runs before each entry with the absolute ID of the entry's parent and
  // the parent's child list so far. Returns true to drop the entry (an
  // element with its children); anything appended to `sink` is kept.
  std::function<bool(const PackedEntry&, const std::string& parent,
                     std::string* sink)>
      on_entry;
  // Runs when `parent`'s child list ends; may append to it, and returns the
  // change in the parent's child count.
  std::function<int(const std::string& parent, std::string* sink)> on_close;
};

Result<std::string> RebuildRecord(Slice record, const RebuildHooks& hooks) {
  RecordWalker walker(record);
  XDB_RETURN_NOT_OK(walker.Init());
  RecordHeader header = walker.header();

  struct Frame {
    std::string rel_id, abs_id;
    NameId local, ns_uri, prefix;
    uint32_t child_count;
    std::string buf;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{"", header.context_node_id.ToString(), kEmptyNameId,
                        kEmptyNameId, kEmptyNameId, header.subtree_count, {}});
  // Closes a frame's child list, returning its final child count.
  auto close = [&](Frame* f) -> Result<uint32_t> {
    int delta = hooks.on_close ? hooks.on_close(f->abs_id, &f->buf) : 0;
    if (delta < 0 && f->child_count < static_cast<uint32_t>(-delta))
      return Status::Corruption("packed child count below its entries");
    return static_cast<uint32_t>(int64_t{f->child_count} + delta);
  };
  RecordWalker::Event ev;
  for (;;) {
    XDB_RETURN_NOT_OK(walker.Next(&ev));
    if (ev.type == RecordWalker::EventType::kDone) break;
    if (ev.type == RecordWalker::EventType::kEnd) {
      Frame f = std::move(stack.back());
      stack.pop_back();
      XDB_ASSIGN_OR_RETURN(uint32_t count, close(&f));
      packfmt::AppendElement(&stack.back().buf, f.rel_id, f.local, f.ns_uri,
                             f.prefix, count, f.buf);
      continue;
    }
    const PackedEntry& e = ev.entry;
    std::string* sink = &stack.back().buf;
    if (hooks.on_entry && hooks.on_entry(e, stack.back().abs_id, sink)) {
      if (e.kind == NodeKind::kElement) walker.SkipChildren();
      continue;
    }
    switch (e.kind) {
      case NodeKind::kElement:
        stack.push_back(Frame{e.rel_id.ToString(), e.abs_id.ToString(),
                              e.local, e.ns_uri, e.prefix, e.child_count, {}});
        break;
      case NodeKind::kText:
        packfmt::AppendText(sink, e.rel_id, e.type, e.value);
        break;
      case NodeKind::kAttribute:
        packfmt::AppendAttribute(sink, e.rel_id, e.local, e.ns_uri, e.prefix,
                                 e.type, e.value);
        break;
      case NodeKind::kNamespace:
        packfmt::AppendNamespace(sink, e.rel_id, e.local, e.ns_uri);
        break;
      case NodeKind::kComment:
        packfmt::AppendComment(sink, e.rel_id, e.value);
        break;
      case NodeKind::kProcessingInstruction:
        packfmt::AppendPi(sink, e.rel_id, e.local, e.value);
        break;
      case NodeKind::kProxy:
        packfmt::AppendProxy(sink, e.rel_id);
        break;
      default:
        return Status::Corruption("unknown packed entry kind");
    }
  }
  XDB_ASSIGN_OR_RETURN(header.subtree_count, close(&stack.front()));
  std::string out;
  AppendRecordHeader(header, &out);
  out += stack.front().buf;
  return out;
}

}  // namespace

Result<std::string> ReplaceTextValue(Slice record, Slice node_id,
                                     Slice new_value) {
  bool replaced = false;
  RebuildHooks hooks;
  hooks.on_entry = [&](const PackedEntry& e, const std::string&,
                       std::string* sink) {
    if (e.kind != NodeKind::kText || e.abs_id != node_id) return false;
    packfmt::AppendText(sink, e.rel_id, e.type, new_value);
    replaced = true;
    return true;
  };
  XDB_ASSIGN_OR_RETURN(std::string out, RebuildRecord(record, hooks));
  if (!replaced)
    return Status::NotFound("text node not present in this record");
  return out;
}

Result<std::string> InsertEntry(Slice record, Slice parent_abs, Slice entry) {
  // The entry's relative ID follows its kind byte.
  if (entry.empty()) return Status::InvalidArgument("empty packed entry");
  Slice rel;
  const char* p = entry.data() + 1;
  if (!ReadRelId(&p, entry.data() + entry.size(), &rel))
    return Status::InvalidArgument("bad packed entry: relative id");
  bool inserted = false;
  RebuildHooks hooks;
  // Before the parent's first later child, or at the end of its list.
  hooks.on_entry = [&](const PackedEntry& e, const std::string& parent,
                       std::string* sink) {
    if (!inserted && Slice(parent) == parent_abs && e.rel_id.Compare(rel) > 0) {
      sink->append(entry.data(), entry.size());
      inserted = true;
    }
    return false;
  };
  hooks.on_close = [&](const std::string& parent, std::string* sink) {
    if (Slice(parent) != parent_abs) return 0;
    if (!inserted) sink->append(entry.data(), entry.size());
    inserted = true;
    return 1;
  };
  XDB_ASSIGN_OR_RETURN(std::string out, RebuildRecord(record, hooks));
  if (!inserted) return Status::NotFound("parent element not in this record");
  return out;
}

Result<std::string> RemoveEntry(Slice record, Slice node_abs,
                                bool* now_empty) {
  XDB_ASSIGN_OR_RETURN(Slice parent_abs, nodeid::Parent(node_abs));
  bool removed = false;
  RebuildHooks hooks;
  hooks.on_entry = [&](const PackedEntry& e, const std::string&,
                       std::string*) {
    if (e.abs_id != node_abs) return false;
    removed = true;
    return true;
  };
  hooks.on_close = [&](const std::string& parent, std::string*) {
    return removed && Slice(parent) == parent_abs ? -1 : 0;
  };
  XDB_ASSIGN_OR_RETURN(std::string out, RebuildRecord(record, hooks));
  if (!removed) return Status::NotFound("entry not in this record");
  if (now_empty != nullptr) {
    XDB_ASSIGN_OR_RETURN(uint64_t nodes, CountRecordNodes(out));
    *now_empty = nodes == 0;
  }
  return out;
}

Result<uint64_t> CountRecordNodes(Slice record) {
  RecordWalker walker(record);
  XDB_RETURN_NOT_OK(walker.Init());
  uint64_t count = 0;
  RecordWalker::Event ev;
  for (;;) {
    XDB_RETURN_NOT_OK(walker.Next(&ev));
    if (ev.type == RecordWalker::EventType::kDone) break;
    if (ev.type == RecordWalker::EventType::kStart &&
        ev.entry.kind != NodeKind::kProxy)
      count++;
  }
  return count;
}

}  // namespace xdb
