#include "schema/validator_vm.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/decimal.h"
#include "index/key_codec.h"
#include "xdm/item.h"

namespace xdb {
namespace schema {

ValidatorVm::ValidatorVm(const CompiledSchema* schema,
                         const NameDictionary* dict)
    : schema_(schema), dict_(dict) {}

Result<int> ValidatorVm::ElementIndexFor(NameId local) {
  if (local >= name_to_element_.size())
    name_to_element_.resize(local + 1, -2);
  int cached = name_to_element_[local];
  if (cached != -2) return cached;
  XDB_ASSIGN_OR_RETURN(std::string name, dict_->Name(local));
  int idx = schema_->FindElement(name);
  name_to_element_[local] = idx;
  return idx;
}

Result<bool> ValidatorVm::CheckSimpleValue(SimpleType type, Slice value) {
  stats_.text_values_checked++;
  switch (type) {
    case SimpleType::kUntyped:
    case SimpleType::kString:
      return true;
    case SimpleType::kDouble: {
      // An xs:double as strtod reads one (an exponent, a sign, "INF"), not
      // by XPath's narrower number grammar; trailing whitespace is allowed.
      const std::string t = value.ToString();
      const char* limit = t.c_str() + t.size();
      char* end = nullptr;
      const double d = std::strtod(t.c_str(), &end);
      while (end < limit && std::isspace(static_cast<unsigned char>(*end)))
        end++;
      return end != t.c_str() && end == limit && !std::isnan(d);
    }
    case SimpleType::kDecimal:
      return Decimal::FromString(value).ok();
    case SimpleType::kInteger: {
      size_t b = 0, e = value.size();
      while (b < e && std::isspace(static_cast<unsigned char>(value[b]))) b++;
      while (e > b && std::isspace(static_cast<unsigned char>(value[e - 1])))
        e--;
      if (b == e) return false;
      size_t i = b;
      if (value[i] == '+' || value[i] == '-') i++;
      if (i == e) return false;
      for (; i < e; i++)
        if (value[i] < '0' || value[i] > '9') return false;
      return true;
    }
    case SimpleType::kDate:
      return ParseDateDays(value).ok();
    case SimpleType::kBoolean: {
      std::string v = value.ToString();
      return v == "true" || v == "false" || v == "0" || v == "1";
    }
  }
  return false;
}

Status ValidatorVm::Validate(Slice input, TokenWriter* out) {
  struct Frame {
    int element_idx;
    int dfa_state;
    uint64_t required_seen;  // bitmap over required attributes
    // Local-name ids of the element's DFA symbols are resolved lazily via
    // the name dictionary on each child; fine since symbol counts are small.
  };
  std::vector<Frame> stack;
  TokenReader reader(input);
  Token t;
  bool root_seen = false;

  auto fail = [](const std::string& what) {
    return Status::ValidationError(what);
  };

  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, reader.Next(&t));
    if (!more) break;
    switch (t.kind) {
      case TokenKind::kStartDocument:
      case TokenKind::kEndDocument:
        out->Append(t);
        break;
      case TokenKind::kStartElement: {
        XDB_ASSIGN_OR_RETURN(int idx, ElementIndexFor(t.local));
        XDB_ASSIGN_OR_RETURN(std::string name, dict_->Name(t.local));
        if (idx < 0)
          return fail("element '" + name + "' is not declared");
        if (stack.empty()) {
          if (root_seen) return fail("multiple root elements");
          root_seen = true;
          if (name != schema_->root())
            return fail("root element must be '" + schema_->root() + "'");
        } else {
          Frame& parent = stack.back();
          const CompiledElement& pdecl = schema_->elements()[parent.element_idx];
          switch (pdecl.content) {
            case ContentKind::kChildren: {
              int sym = -1;
              for (size_t s = 0; s < pdecl.symbols.size(); s++) {
                if (pdecl.symbols[s] == name) {
                  sym = static_cast<int>(s);
                  break;
                }
              }
              if (sym < 0)
                return fail("element '" + name + "' not allowed in '" +
                            pdecl.name + "'");
              int next = pdecl.trans[parent.dfa_state][sym];
              if (next < 0)
                return fail("element '" + name + "' out of order in '" +
                            pdecl.name + "'");
              parent.dfa_state = next;
              break;
            }
            case ContentKind::kMixed:
              break;  // any declared element allowed
            case ContentKind::kText:
            case ContentKind::kEmpty:
              return fail("element '" + pdecl.name +
                          "' does not allow child elements");
          }
        }
        stats_.elements_validated++;
        stack.push_back(Frame{idx, schema_->elements()[idx].start_state, 0});
        out->StartElement(t.local, t.ns_uri, t.prefix,
                          ToTypeAnno(schema_->elements()[idx].content ==
                                             ContentKind::kText
                                         ? schema_->elements()[idx].text_type
                                         : SimpleType::kUntyped));
        break;
      }
      case TokenKind::kEndElement: {
        if (stack.empty()) return fail("unbalanced end element");
        const Frame& frame = stack.back();
        const CompiledElement& decl = schema_->elements()[frame.element_idx];
        if (decl.content == ContentKind::kChildren &&
            !decl.accepting[frame.dfa_state])
          return fail("element '" + decl.name + "' has incomplete content");
        uint64_t required_mask = 0;
        for (size_t a = 0; a < decl.attrs.size() && a < 64; a++)
          if (decl.attrs[a].required) required_mask |= uint64_t{1} << a;
        if ((frame.required_seen & required_mask) != required_mask)
          return fail("element '" + decl.name +
                      "' is missing a required attribute");
        stack.pop_back();
        out->EndElement();
        break;
      }
      case TokenKind::kAttribute: {
        if (stack.empty()) return fail("attribute outside an element");
        Frame& frame = stack.back();
        const CompiledElement& decl = schema_->elements()[frame.element_idx];
        XDB_ASSIGN_OR_RETURN(std::string name, dict_->Name(t.local));
        int found = -1;
        for (size_t a = 0; a < decl.attrs.size(); a++) {
          if (decl.attrs[a].name == name) {
            found = static_cast<int>(a);
            break;
          }
        }
        if (found < 0)
          return fail("attribute '" + name + "' not declared on '" +
                      decl.name + "'");
        XDB_ASSIGN_OR_RETURN(bool ok,
                             CheckSimpleValue(decl.attrs[found].type, t.text));
        if (!ok)
          return fail("attribute '" + name + "' has an invalid " +
                      SimpleTypeName(decl.attrs[found].type) + " value");
        if (found < 64) frame.required_seen |= uint64_t{1} << found;
        stats_.attributes_validated++;
        out->Attribute(t.local, t.text, t.ns_uri, t.prefix,
                       ToTypeAnno(decl.attrs[found].type));
        break;
      }
      case TokenKind::kText: {
        if (stack.empty()) return fail("text outside the root element");
        const Frame& frame = stack.back();
        const CompiledElement& decl = schema_->elements()[frame.element_idx];
        switch (decl.content) {
          case ContentKind::kText: {
            XDB_ASSIGN_OR_RETURN(bool ok,
                                 CheckSimpleValue(decl.text_type, t.text));
            if (!ok)
              return fail("element '" + decl.name + "' has an invalid " +
                          SimpleTypeName(decl.text_type) + " value");
            out->Text(t.text, ToTypeAnno(decl.text_type));
            break;
          }
          case ContentKind::kMixed:
            out->Text(t.text, TypeAnno::kString);
            break;
          case ContentKind::kChildren:
          case ContentKind::kEmpty: {
            // Whitespace between children is tolerated.
            bool all_space = true;
            for (size_t i = 0; i < t.text.size(); i++) {
              if (!std::isspace(static_cast<unsigned char>(t.text[i]))) {
                all_space = false;
                break;
              }
            }
            if (!all_space)
              return fail("element '" + decl.name +
                          "' does not allow text content");
            out->Text(t.text, TypeAnno::kUntyped);
            break;
          }
        }
        break;
      }
      case TokenKind::kNamespaceDecl:
      case TokenKind::kComment:
      case TokenKind::kProcessingInstruction:
        out->Append(t);
        break;
    }
  }
  if (!stack.empty()) return fail("input ended with open elements");
  if (!root_seen) return fail("document has no root element");
  return Status::OK();
}

}  // namespace schema
}  // namespace xdb
