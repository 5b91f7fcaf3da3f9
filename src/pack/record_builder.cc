#include "pack/record_builder.h"

#include <vector>

#include "common/coding.h"
#include "xml/node_id.h"

namespace xdb {

namespace {

struct Item {
  std::string rel_id;
  std::string bytes;  // serialized entry (empty if already a proxy)
  bool is_proxy = false;
};

struct Frame {
  NameId local = kEmptyNameId, ns_uri = kEmptyNameId, prefix = kEmptyNameId;
  std::string rel_id;
  std::string abs_id;
  uint32_t child_count = 0;
  std::vector<Item> items;
  size_t bytes = 0;  // total serialized size of non-proxy items
};

struct NsBinding {
  NameId prefix, uri;
  size_t depth;
};

class Builder {
 public:
  /// `context` is null for a document, else the subtree a fragment becomes.
  Builder(const RecordBuilderOptions& options, const RecordBuilder::Emit& emit,
          const SubtreeContext* context)
      : options_(options), emit_(emit), context_(context) {}

  /// Packs `tokens`, emitting every record cut below frame 0; frame 0's
  /// record (the document's root record, or a fragment's top record) goes
  /// to *top_record, left empty when frame 0 holds nothing. Counts the
  /// element, attribute and text tokens into *stat_nodes.
  Status Run(Slice tokens, PackedRecordOut* top_record, uint64_t* stat_nodes);

 private:
  Frame& top() { return stack_.back(); }

  /// Numbers the next child of the innermost frame. A fragment arrives from
  /// a client, the WAL or a replica, so it is checked: its frame 0 takes one
  /// child, the root element, numbered by the context.
  Result<std::string> NextChildId(bool is_element) {
    Frame& f = top();
    f.child_count++;
    if (context_ == nullptr || stack_.size() > 1)
      return nodeid::ChildId(f.child_count);
    if (!is_element || f.child_count > 1)
      return Status::InvalidArgument(
          "fragment must have a single root element");
    return context_->root_rel;
  }

  /// Appends a completed item to the innermost open frame and cuts a record
  /// if the frame's accumulated bytes exceed the budget.
  Status AddItem(std::string rel_id, std::string bytes) {
    Frame& f = top();
    f.bytes += bytes.size();
    f.items.push_back(Item{std::move(rel_id), std::move(bytes), false});
    if (f.bytes > options_.record_budget && stack_.size() > 1) {
      PackedRecordOut out;
      PackFrame(&f, &out);
      return emit_(std::move(out));
    }
    return Status::OK();
  }

  /// Packs the innermost frame's completed (non-proxy) items into one record
  /// with the frame's element as context node, replacing them with proxies.
  void PackFrame(Frame* f, PackedRecordOut* out) {
    RecordHeader header;
    header.context_node_id = Slice(f->abs_id);
    // Root path: element names from the root to (and including) the context.
    if (context_ != nullptr) header.root_path = context_->root_path;
    for (size_t i = 1; i < stack_.size(); i++) {
      header.root_path.push_back(
          {stack_[i].local, stack_[i].ns_uri});
    }
    // In-scope namespaces at the context node: innermost binding per prefix.
    for (auto it = ns_stack_.rbegin(); it != ns_stack_.rend(); ++it) {
      bool seen = false;
      for (const auto& [p, u] : header.namespaces) {
        (void)u;
        if (p == it->prefix) {
          seen = true;
          break;
        }
      }
      if (!seen) header.namespaces.emplace_back(it->prefix, it->uri);
    }
    for (const Item& item : f->items)
      if (!item.is_proxy) header.subtree_count++;
    AppendRecordHeader(header, &out->bytes);
    bool first = true;
    for (Item& item : f->items) {
      if (item.is_proxy) continue;
      if (first) {
        out->min_node_id = f->abs_id + item.rel_id;
        first = false;
      }
      out->bytes.append(item.bytes);
      item.bytes.clear();
      item.bytes.shrink_to_fit();
      item.is_proxy = true;
    }
    f->bytes = 0;
  }

  Status CloseElement() {
    // Serialize the closing element (its remaining items inline, evicted
    // ones as proxies) and hand it to the parent frame.
    Frame f = std::move(top());
    stack_.pop_back();
    std::string children;
    for (const Item& item : f.items) {
      if (item.is_proxy) {
        packfmt::AppendProxy(&children, item.rel_id);
      } else {
        children.append(item.bytes);
      }
    }
    std::string entry;
    packfmt::AppendElement(&entry, f.rel_id, f.local, f.ns_uri, f.prefix,
                           f.child_count, children);
    while (!ns_stack_.empty() && ns_stack_.back().depth >= stack_.size() + 1)
      ns_stack_.pop_back();
    return AddItem(std::move(f.rel_id), std::move(entry));
  }

  const RecordBuilderOptions& options_;
  const RecordBuilder::Emit& emit_;
  const SubtreeContext* context_;
  std::vector<Frame> stack_;
  std::vector<NsBinding> ns_stack_;
};

Status Builder::Run(Slice tokens, PackedRecordOut* top_record,
                    uint64_t* stat_nodes) {
  TokenReader reader(tokens);
  Token t;
  *stat_nodes = 0;
  // Frame 0 is the context node: the document node (id "", path empty), or
  // a fragment's parent, whose record's namespaces stay in scope. Seeded
  // innermost-last, they reach the top record's header in their order.
  stack_.push_back(Frame{});
  if (context_ != nullptr) {
    top().abs_id = context_->parent_id;
    for (auto it = context_->namespaces.rbegin();
         it != context_->namespaces.rend(); ++it)
      ns_stack_.push_back(NsBinding{it->first, it->second, 0});
  }

  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, reader.Next(&t));
    if (!more) break;
    if (t.kind == TokenKind::kStartElement ||
        t.kind == TokenKind::kAttribute || t.kind == TokenKind::kText)
      ++*stat_nodes;
    switch (t.kind) {
      case TokenKind::kStartDocument:
      case TokenKind::kEndDocument:
        break;
      case TokenKind::kStartElement: {
        XDB_ASSIGN_OR_RETURN(std::string rel, NextChildId(true));
        Frame f;
        f.local = t.local;
        f.ns_uri = t.ns_uri;
        f.prefix = t.prefix;
        f.abs_id = top().abs_id + rel;
        f.rel_id = std::move(rel);
        stack_.push_back(std::move(f));
        break;
      }
      case TokenKind::kEndElement:
        if (stack_.size() <= 1)
          return Status::Corruption("unbalanced token stream");
        XDB_RETURN_NOT_OK(CloseElement());
        break;
      case TokenKind::kNamespaceDecl: {
        XDB_ASSIGN_OR_RETURN(std::string rel, NextChildId(false));
        std::string entry;
        packfmt::AppendNamespace(&entry, rel, t.local, t.ns_uri);
        ns_stack_.push_back(NsBinding{t.local, t.ns_uri, stack_.size()});
        XDB_RETURN_NOT_OK(AddItem(std::move(rel), std::move(entry)));
        break;
      }
      case TokenKind::kAttribute: {
        XDB_ASSIGN_OR_RETURN(std::string rel, NextChildId(false));
        std::string entry;
        packfmt::AppendAttribute(&entry, rel, t.local, t.ns_uri, t.prefix,
                                 t.type, t.text);
        XDB_RETURN_NOT_OK(AddItem(std::move(rel), std::move(entry)));
        break;
      }
      case TokenKind::kText: {
        XDB_ASSIGN_OR_RETURN(std::string rel, NextChildId(false));
        std::string entry;
        packfmt::AppendText(&entry, rel, t.type, t.text);
        XDB_RETURN_NOT_OK(AddItem(std::move(rel), std::move(entry)));
        break;
      }
      case TokenKind::kComment: {
        XDB_ASSIGN_OR_RETURN(std::string rel, NextChildId(false));
        std::string entry;
        packfmt::AppendComment(&entry, rel, t.text);
        XDB_RETURN_NOT_OK(AddItem(std::move(rel), std::move(entry)));
        break;
      }
      case TokenKind::kProcessingInstruction: {
        XDB_ASSIGN_OR_RETURN(std::string rel, NextChildId(false));
        std::string entry;
        packfmt::AppendPi(&entry, rel, t.local, t.text);
        XDB_RETURN_NOT_OK(AddItem(std::move(rel), std::move(entry)));
        break;
      }
    }
  }
  if (stack_.size() != 1)
    return Status::Corruption("token stream ended with open elements");
  if (top().items.empty()) {
    if (context_ != nullptr)
      return Status::InvalidArgument("fragment has no root element");
    return Status::OK();  // nothing to pack
  }
  // Frame 0 is never cut early, so its record always holds the root element
  // and a lookup of the root always succeeds.
  PackFrame(&top(), top_record);
  return Status::OK();
}

}  // namespace

Status RecordBuilder::Build(Slice tokens, const Emit& emit) {
  PackedRecordOut root;
  Builder builder(options_, emit, nullptr);
  XDB_RETURN_NOT_OK(builder.Run(tokens, &root, &stat_nodes_));
  if (root.bytes.empty()) return Status::OK();
  return emit(std::move(root));
}

Result<PackedRecordOut> RecordBuilder::BuildSubtree(
    Slice tokens, const SubtreeContext& context, const Emit& emit) {
  PackedRecordOut top;
  Builder builder(options_, emit, &context);
  XDB_RETURN_NOT_OK(builder.Run(tokens, &top, &stat_nodes_));
  return top;
}

Result<std::vector<PackedRecordOut>> PackDocument(Slice tokens,
                                                  RecordBuilderOptions options) {
  std::vector<PackedRecordOut> records;
  RecordBuilder builder(options);
  XDB_RETURN_NOT_OK(builder.Build(tokens, [&](PackedRecordOut&& rec) {
    records.push_back(std::move(rec));
    return Status::OK();
  }));
  return records;
}

}  // namespace xdb
