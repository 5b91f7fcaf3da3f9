#include "pack/tree_cursor.h"

#include "xml/node_id.h"

namespace xdb {

Status AppendHeaderPath(const RecordHeader& header,
                        std::vector<StoredPathStep>* path) {
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
  return Status::OK();
}

StoredDocSource::StoredDocSource(RecordManager* records, NodeLocator* index,
                                 uint64_t doc_id, std::string subtree_root)
    : records_(records),
      index_(index),
      doc_id_(doc_id),
      subtree_root_(std::move(subtree_root)),
      listed_(doc_id, &entries_) {}

Status StoredDocSource::ListSpan(const SubtreeSpan& span) {
  XDB_RETURN_NOT_OK(index_->ListDocEntries(doc_id_, span, &entries_));
  span_listed_ = true;
  return Status::OK();
}

void StoredDocSource::Open(Slice subtree_root) {
  subtree_root_.assign(subtree_root.data(), subtree_root.size());
  stack_.clear();
  root_path_.clear();
  started_ = finished_ = skip_children_ = false;
}

Status StoredDocSource::PushRecord(Slice target, bool resolving,
                                   CachedRecord* cached) {
  Result<Rid> found = listed_.Lookup(doc_id_, target);
  if (resolving && found.status().IsNotFound())
    return Status::Corruption("proxy " + nodeid::ToString(target) +
                              " resolves to no record");
  XDB_ASSIGN_OR_RETURN(Rid rid, found);
  if (cached->bytes == nullptr || cached->rid != rid) {
    auto bytes = std::make_shared<std::string>();
    XDB_RETURN_NOT_OK(records_->Get(rid, bytes.get()));
    records_fetched_++;
    *cached = CachedRecord{rid, std::move(bytes)};
  }
  auto ctx = std::make_unique<Ctx>();
  ctx->buf = cached->bytes;
  ctx->walker = std::make_unique<RecordWalker>(Slice(*ctx->buf));
  XDB_RETURN_NOT_OK(ctx->walker->Init());
  ctx->target.assign(target.data(), target.size());  // the walker moves on
  ctx->resolving = resolving;
  stack_.push_back(std::move(ctx));
  return Status::OK();
}

Result<bool> StoredDocSource::Next(XmlEvent* event) {
  if (finished_) return false;
  if (!started_) {
    started_ = true;
    // One listing serves the whole stream: a record that a proxy under the
    // root points to has its context node at or below the root, so all of
    // its interval ends lie under the root.
    if (!span_listed_)
      XDB_RETURN_NOT_OK(
          index_->ListDocEntries(doc_id_, Slice(subtree_root_), &entries_));
    // A missing stream root stays a NotFound (EvalAnchor's stale posting).
    XDB_RETURN_NOT_OK(
        PushRecord(Slice(subtree_root_), /*resolving=*/false, &last_root_));
    if (subtree_root_.empty()) {
      *event = XmlEvent();
      event->type = XmlEvent::Type::kStartDocument;
      return true;
    }
    XDB_RETURN_NOT_OK(
        AppendHeaderPath(stack_.back()->walker->header(), &root_path_));
  }
  if (skip_children_) {
    // The element's ID is still in the walker's buffer. Skipping a stream
    // root or a proxy target closes its context, as its own end event does.
    skip_children_ = false;
    Ctx& ctx = *stack_.back();
    const PackedEntry& e = walked_.entry;
    ctx.walker->SkipChildren();
    if (ctx.in_target && e.depth == ctx.target_depth) ctx.target_done = true;
    *event = XmlEvent();
    event->type = XmlEvent::Type::kEndElement;
    event->node_id = e.abs_id;
    event->depth = e.depth;
    return true;
  }
  return Produce(event);
}

Result<bool> StoredDocSource::Produce(XmlEvent* event) {
  RecordWalker::Event& ev = walked_;
  while (!stack_.empty()) {
    Ctx& ctx = *stack_.back();
    XDB_RETURN_NOT_OK(ctx.walker->Next(&ev));

    if (ev.type == RecordWalker::EventType::kDone) {
      if (ctx.resolving && !ctx.in_target)
        return Status::Corruption("proxied node " +
                                  nodeid::ToString(ctx.target) +
                                  " is not in the record indexed for it");
      stack_.pop_back();
      continue;
    }

    const PackedEntry& e = ev.entry;
    // Apply the target filter: emit only the subtree rooted at ctx.target
    // (used both for resolved proxy records and for subtree streams).
    if (!ctx.target.empty()) {
      if (ctx.target_done) {
        stack_.pop_back();
        continue;
      }
      if (!ctx.in_target) {
        // Searching for the target: descend through its ancestors, skip
        // everything else. The root record's descent is the stream root's
        // path.
        if (ev.type != RecordWalker::EventType::kStart) continue;
        if (e.abs_id == Slice(ctx.target)) {
          if (ctx.resolving && e.kind == NodeKind::kProxy)
            return Status::Corruption("proxied node " +
                                      nodeid::ToString(e.abs_id) +
                                      " resolves to another proxy");
          ctx.in_target = true;
          ctx.target_depth = e.depth;
          if (e.kind != NodeKind::kElement && e.kind != NodeKind::kProxy) {
            // Leaf target: this single event is the whole subtree.
            ctx.target_done = true;
          }
          if (!ctx.resolving)
            root_path_.push_back(
                StoredPathStep{ctx.target, e.kind, e.local, e.ns_uri});
          // fall through and emit (or resolve, for a proxy)
        } else if (e.kind == NodeKind::kElement &&
                   nodeid::IsAncestor(e.abs_id, Slice(ctx.target))) {
          if (!ctx.resolving)
            root_path_.push_back(StoredPathStep{e.abs_id.ToString(), e.kind,
                                                e.local, e.ns_uri});
          continue;  // descend silently
        } else {
          if (e.kind == NodeKind::kElement) ctx.walker->SkipChildren();
          continue;
        }
      } else if (ev.type == RecordWalker::EventType::kEnd &&
                 e.depth <= ctx.target_depth) {
        if (e.depth < ctx.target_depth) continue;  // ancestor close
        ctx.target_done = true;  // the target element's own end: emit it
      }
    }

    if (ev.type == RecordWalker::EventType::kEnd) {
      *event = XmlEvent();
      event->type = XmlEvent::Type::kEndElement;
      event->node_id = e.abs_id;
      event->depth = e.depth;
      return true;
    }

    if (e.kind == NodeKind::kProxy) {
      XDB_RETURN_NOT_OK(
          PushRecord(e.abs_id, /*resolving=*/true, &ctx.last_child));
      continue;
    }

    event->node_id = e.abs_id;
    event->local = e.local;
    event->ns_uri = e.ns_uri;
    event->prefix = e.prefix;
    event->type_anno = e.type;
    event->depth = e.depth;
    event->value = e.value;
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
  if (path != nullptr)
    XDB_RETURN_NOT_OK(AppendHeaderPath((*walker)->header(), path));
  for (;;) {
    XDB_RETURN_NOT_OK((*walker)->Next(event));
    if (event->type == RecordWalker::EventType::kDone)
      return Status::NotFound("node not in its indexed record");
    if (event->type != RecordWalker::EventType::kStart) continue;
    const PackedEntry& e = event->entry;
    // Ancestors: descend (no skip). Leaves/proxies that aren't the node:
    // the walker moves past them naturally.
    const bool on_path =
        e.abs_id == node_id || nodeid::IsAncestor(e.abs_id, node_id);
    if (on_path && path != nullptr)
      path->push_back(
          StoredPathStep{e.abs_id.ToString(), e.kind, e.local, e.ns_uri});
    if (e.abs_id == node_id) return Status::OK();
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
    return ev.entry.abs_id.ToString();
  }
  XDB_RETURN_NOT_OK(WalkTo(node_id, &buf, &walker, &ev));
  if (ev.entry.kind != NodeKind::kElement || ev.entry.child_count == 0)
    return Status::NotFound("no children");
  int parent_depth = ev.entry.depth;
  XDB_RETURN_NOT_OK(walker->Next(&ev));
  if (ev.type != RecordWalker::EventType::kStart ||
      ev.entry.depth != parent_depth + 1)
    return Status::NotFound("no children");
  return ev.entry.abs_id.ToString();
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
    out->push_back(ev.entry.abs_id.ToString());
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
    if (seen) return ev.entry.abs_id.ToString();
    if (ev.entry.abs_id == node_id) seen = true;
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
