#include "pack/tree_cursor.h"

#include "xml/node_id.h"

namespace xdb {

StoredDocSource::StoredDocSource(RecordManager* records, NodeLocator* index,
                                 uint64_t doc_id, std::string subtree_root)
    : records_(records),
      index_(index),
      doc_id_(doc_id),
      subtree_root_(std::move(subtree_root)) {}

Status StoredDocSource::PushRecord(Slice node_id, std::string target) {
  XDB_ASSIGN_OR_RETURN(Rid rid, index_->Lookup(doc_id_, node_id));
  auto ctx = std::make_unique<Ctx>();
  if (last_buf_ != nullptr && rid == last_rid_) {
    ctx->buf = last_buf_;
  } else {
    ctx->buf = std::make_shared<std::string>();
    XDB_RETURN_NOT_OK(records_->Get(rid, ctx->buf.get()));
    records_fetched_++;
    last_rid_ = rid;
    last_buf_ = ctx->buf;
  }
  ctx->walker = std::make_unique<RecordWalker>(Slice(*ctx->buf));
  XDB_RETURN_NOT_OK(ctx->walker->Init());
  ctx->target = std::move(target);
  stack_.push_back(std::move(ctx));
  return Status::OK();
}

Result<bool> StoredDocSource::Next(XmlEvent* event) {
  if (finished_) return false;
  if (!started_) {
    started_ = true;
    XDB_RETURN_NOT_OK(
        PushRecord(Slice(subtree_root_), subtree_root_));
    if (subtree_root_.empty()) {
      *event = XmlEvent();
      event->type = XmlEvent::Type::kStartDocument;
      return true;
    }
  }
  return Produce(event);
}

Result<bool> StoredDocSource::Produce(XmlEvent* event) {
  while (!stack_.empty()) {
    Ctx& ctx = *stack_.back();
    RecordWalker::Event ev;
    XDB_RETURN_NOT_OK(ctx.walker->Next(&ev));

    if (ev.type == RecordWalker::EventType::kDone) {
      stack_.pop_back();
      continue;
    }

    // Apply the target filter: emit only the subtree rooted at ctx.target
    // (used both for resolved proxy records and for subtree streams).
    if (!ctx.target.empty()) {
      if (ctx.target_done) {
        stack_.pop_back();
        continue;
      }
      if (!ctx.in_target) {
        // Searching for the target: descend through its ancestors, skip
        // everything else.
        if (ev.type != RecordWalker::EventType::kStart) continue;
        Slice abs(ev.entry.abs_id);
        if (abs == Slice(ctx.target)) {
          ctx.in_target = true;
          ctx.target_depth = ev.entry.depth;
          if (ev.entry.kind != NodeKind::kElement &&
              ev.entry.kind != NodeKind::kProxy) {
            // Leaf target: this single event is the whole subtree.
            ctx.target_done = true;
          }
          // fall through and emit (or resolve, for a proxy)
        } else if (ev.entry.kind == NodeKind::kElement &&
                   nodeid::IsAncestor(abs, Slice(ctx.target))) {
          continue;  // descend silently
        } else {
          if (ev.entry.kind == NodeKind::kElement) ctx.walker->SkipChildren();
          continue;
        }
      } else if (ev.type == RecordWalker::EventType::kEnd &&
                 ev.entry.depth <= ctx.target_depth) {
        if (ev.entry.depth < ctx.target_depth) continue;  // ancestor close
        ctx.target_done = true;  // the target element's own end: emit it
      }
    }

    if (ev.type == RecordWalker::EventType::kEnd) {
      *event = XmlEvent();
      event->type = XmlEvent::Type::kEndElement;
      cur_id_ = ev.entry.abs_id;
      event->node_id = Slice(cur_id_);
      event->depth = ev.entry.depth;
      return true;
    }

    const PackedEntry& e = ev.entry;
    if (e.kind == NodeKind::kProxy) {
      XDB_RETURN_NOT_OK(PushRecord(Slice(e.abs_id), e.abs_id));
      continue;
    }

    *event = XmlEvent();
    cur_id_ = e.abs_id;
    event->node_id = Slice(cur_id_);
    event->local = e.local;
    event->ns_uri = e.ns_uri;
    event->prefix = e.prefix;
    event->type_anno = e.type;
    event->depth = e.depth;
    cur_value_.assign(e.value.data(), e.value.size());
    event->value = Slice(cur_value_);
    switch (e.kind) {
      case NodeKind::kElement:
        event->type = XmlEvent::Type::kStartElement;
        break;
      case NodeKind::kAttribute:
        event->type = XmlEvent::Type::kAttribute;
        break;
      case NodeKind::kText:
        event->type = XmlEvent::Type::kText;
        break;
      case NodeKind::kNamespace:
        event->type = XmlEvent::Type::kNamespace;
        break;
      case NodeKind::kComment:
        event->type = XmlEvent::Type::kComment;
        break;
      case NodeKind::kProcessingInstruction:
        event->type = XmlEvent::Type::kPi;
        break;
      default:
        return Status::Corruption("unexpected entry kind in traversal");
    }
    return true;
  }
  finished_ = true;
  if (subtree_root_.empty()) {
    *event = XmlEvent();
    event->type = XmlEvent::Type::kEndDocument;
    return true;
  }
  return false;
}

Status StoredTreeNavigator::WalkTo(Slice node_id, std::string* buf,
                                   std::unique_ptr<RecordWalker>* walker,
                                   RecordWalker::Event* event,
                                   std::vector<StoredPathStep>* path) {
  XDB_ASSIGN_OR_RETURN(Rid rid, index_->Lookup(doc_id_, node_id));
  XDB_RETURN_NOT_OK(records_->Get(rid, buf));
  *walker = std::make_unique<RecordWalker>(Slice(*buf));
  XDB_RETURN_NOT_OK((*walker)->Init());
  if (path != nullptr) {
    // Above the record: its context node and that node's ancestors, named
    // by the header's root path and numbered by the context ID's levels.
    const RecordHeader& header = (*walker)->header();
    std::vector<Slice> levels;
    XDB_RETURN_NOT_OK(nodeid::SplitLevels(header.context_node_id, &levels));
    if (levels.size() != header.root_path.size())
      return Status::Corruption("record root path/context id mismatch");
    std::string prefix;
    for (size_t i = 0; i < levels.size(); i++) {
      prefix.append(levels[i].data(), levels[i].size());
      path->push_back(StoredPathStep{prefix, NodeKind::kElement,
                                     header.root_path[i].local,
                                     header.root_path[i].ns_uri});
    }
  }
  for (;;) {
    XDB_RETURN_NOT_OK((*walker)->Next(event));
    if (event->type == RecordWalker::EventType::kDone)
      return Status::NotFound("node not in its indexed record");
    if (event->type != RecordWalker::EventType::kStart) continue;
    const PackedEntry& e = event->entry;
    Slice abs(e.abs_id);
    // Ancestors: descend (no skip). Leaves/proxies that aren't the node:
    // the walker moves past them naturally.
    const bool on_path = abs == node_id || nodeid::IsAncestor(abs, node_id);
    if (on_path && path != nullptr)
      path->push_back(StoredPathStep{e.abs_id, e.kind, e.local, e.ns_uri});
    if (abs == node_id) return Status::OK();
    if (!on_path && e.kind == NodeKind::kElement) (*walker)->SkipChildren();
  }
}

Result<StoredNodeInfo> StoredTreeNavigator::GetNode(Slice node_id) {
  if (node_id.empty())
    return Status::InvalidArgument("the document node is implicit");
  std::string buf;
  std::unique_ptr<RecordWalker> walker;
  RecordWalker::Event ev;
  XDB_RETURN_NOT_OK(WalkTo(node_id, &buf, &walker, &ev));
  StoredNodeInfo info;
  info.kind = ev.entry.kind;
  info.local = ev.entry.local;
  info.ns_uri = ev.entry.ns_uri;
  info.prefix = ev.entry.prefix;
  info.type = ev.entry.type;
  info.value = ev.entry.value.ToString();
  info.child_count = ev.entry.child_count;
  return info;
}

Result<std::string> StoredTreeNavigator::FirstChildId(Slice node_id) {
  std::string buf;
  std::unique_ptr<RecordWalker> walker;
  RecordWalker::Event ev;
  if (node_id.empty()) {
    // Children of the document node: top-level entries of the root record.
    XDB_ASSIGN_OR_RETURN(Rid rid, index_->Lookup(doc_id_, node_id));
    XDB_RETURN_NOT_OK(records_->Get(rid, &buf));
    RecordWalker w((Slice(buf)));
    XDB_RETURN_NOT_OK(w.Init());
    XDB_RETURN_NOT_OK(w.Next(&ev));
    if (ev.type != RecordWalker::EventType::kStart)
      return Status::NotFound("empty document");
    return ev.entry.abs_id;
  }
  XDB_RETURN_NOT_OK(WalkTo(node_id, &buf, &walker, &ev));
  if (ev.entry.kind != NodeKind::kElement || ev.entry.child_count == 0)
    return Status::NotFound("no children");
  int parent_depth = ev.entry.depth;
  XDB_RETURN_NOT_OK(walker->Next(&ev));
  if (ev.type != RecordWalker::EventType::kStart ||
      ev.entry.depth != parent_depth + 1)
    return Status::NotFound("no children");
  return ev.entry.abs_id;
}

Status StoredTreeNavigator::ChildIds(Slice node_id,
                                     std::vector<std::string>* out) {
  std::string buf;
  std::unique_ptr<RecordWalker> walker;
  RecordWalker::Event ev;
  XDB_RETURN_NOT_OK(WalkTo(node_id, &buf, &walker, &ev));
  if (ev.entry.kind != NodeKind::kElement)
    return Status::InvalidArgument("not an element");
  // Children's subtrees are skipped, so the next end event is the node's.
  for (;;) {
    XDB_RETURN_NOT_OK(walker->Next(&ev));
    if (ev.type != RecordWalker::EventType::kStart) return Status::OK();
    out->push_back(ev.entry.abs_id);
    if (ev.entry.kind == NodeKind::kElement) walker->SkipChildren();
  }
}

Result<std::string> StoredTreeNavigator::NextSiblingId(Slice node_id) {
  if (node_id.empty()) return Status::NotFound("document node has no sibling");
  XDB_ASSIGN_OR_RETURN(Slice parent, nodeid::Parent(node_id));

  std::string buf;
  std::unique_ptr<RecordWalker> walker;
  int target_depth;
  if (parent.empty()) {
    XDB_ASSIGN_OR_RETURN(Rid rid, index_->Lookup(doc_id_, parent));
    XDB_RETURN_NOT_OK(records_->Get(rid, &buf));
    walker = std::make_unique<RecordWalker>(Slice(buf));
    XDB_RETURN_NOT_OK(walker->Init());
    target_depth = 0;
  } else {
    RecordWalker::Event ev;
    XDB_RETURN_NOT_OK(WalkTo(parent, &buf, &walker, &ev));
    target_depth = ev.entry.depth + 1;
  }
  // Scan the parent's direct children; skip each child's subtree so a
  // multi-record subtree costs zero extra fetches.
  bool seen = false;
  for (;;) {
    RecordWalker::Event ev;
    XDB_RETURN_NOT_OK(walker->Next(&ev));
    if (ev.type == RecordWalker::EventType::kDone)
      return Status::NotFound("no next sibling");
    if (ev.type == RecordWalker::EventType::kEnd) {
      if (ev.entry.depth < target_depth)
        return Status::NotFound("no next sibling");
      continue;
    }
    if (ev.entry.depth != target_depth) continue;
    if (seen) return ev.entry.abs_id;
    if (Slice(ev.entry.abs_id) == node_id) seen = true;
    if (ev.entry.kind == NodeKind::kElement) walker->SkipChildren();
  }
}

Result<std::string> StoredTreeNavigator::StringValue(Slice node_id) {
  if (!node_id.empty()) {
    XDB_ASSIGN_OR_RETURN(StoredNodeInfo info, GetNode(node_id));
    if (info.kind != NodeKind::kElement && info.kind != NodeKind::kDocument)
      return info.value;
  }
  StoredDocSource source(records_, index_, doc_id_, node_id.ToString());
  std::string out;
  XmlEvent ev;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, source.Next(&ev));
    if (!more) break;
    if (ev.type == XmlEvent::Type::kText)
      out.append(ev.value.data(), ev.value.size());
  }
  return out;
}

Status StoredTreeNavigator::Path(Slice node_id,
                                 std::vector<StoredPathStep>* out) {
  out->clear();
  if (node_id.empty()) return Status::OK();
  std::string buf;
  std::unique_ptr<RecordWalker> walker;
  RecordWalker::Event ev;
  return WalkTo(node_id, &buf, &walker, &ev, out);
}

}  // namespace xdb
