#include "common/json.h"

#include <charconv>

namespace xdb {
namespace json {

void AppendString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->append("\\u00");
      out->push_back(kHex[c >> 4]);
      out->push_back(kHex[c & 0xf]);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[20];  // UINT64_MAX has 20 digits
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendU64Array(std::string* out, std::span<const uint64_t> vs) {
  out->push_back('[');
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i) out->push_back(',');
    AppendU64(out, vs[i]);
  }
  out->push_back(']');
}

Status Reader::ReadString(std::string* out) {
  // The eight JSON short escapes, and the byte each one stands for.
  static constexpr std::string_view kEscapes = "\"\\/bfnrt";
  static constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
  XDB_RETURN_NOT_OK(Expect('"'));
  out->clear();
  while (pos_ < in_.size()) {
    const char c = in_[pos_];
    if (static_cast<unsigned char>(c) < 0x20)
      return Error("raw control byte in string");
    ++pos_;
    if (c == '"') return Status::OK();
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ == in_.size()) break;
    const char e = in_[pos_++];
    if (const size_t i = kEscapes.find(e); i != std::string_view::npos) {
      out->push_back(kEscaped[i]);
      continue;
    }
    if (e != 'u') return Error("unknown escape");
    // AppendString escapes single bytes only; a code point past 0x7f
    // would need a UTF-8 encoding it never produces.
    unsigned v = 0;
    const char* hex = in_.data() + pos_;
    if (in_.size() - pos_ < 4 ||
        std::from_chars(hex, hex + 4, v, 16).ptr != hex + 4)
      return Error("bad \\u escape");
    if (v >= 0x80) return Error("\\u escape above 0x7f");
    pos_ += 4;
    out->push_back(static_cast<char>(v));
  }
  return Error("unterminated string");
}

Status Reader::ReadU64(uint64_t* out) {
  SkipWs();
  const char* begin = in_.data() + pos_;
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(begin, in_.data() + in_.size(), v);
  if (ec == std::errc::result_out_of_range)
    return Error("number above UINT64_MAX");
  if (ec != std::errc()) return Error("expected number");
  if (*begin == '0' && end - begin > 1)
    return Error("number with a leading zero");
  pos_ += static_cast<size_t>(end - begin);
  *out = v;
  return Status::OK();
}

Status Reader::ReadU64Array(std::vector<uint64_t>* out) {
  out->clear();
  return ReadArray([&] { return ReadU64(&out->emplace_back()); });
}

Status Reader::ReadObject(
    const std::function<Status(const std::string& key)>& member) {
  XDB_RETURN_NOT_OK(Expect('{'));
  if (Consume('}')) return Status::OK();
  std::string key;
  do {
    XDB_RETURN_NOT_OK(ReadString(&key));
    XDB_RETURN_NOT_OK(Expect(':'));
    XDB_RETURN_NOT_OK(member(key));
  } while (Consume(','));
  return Expect('}');
}

Status Reader::ReadArray(const std::function<Status()>& element) {
  XDB_RETURN_NOT_OK(Expect('['));
  if (Consume(']')) return Status::OK();
  do {
    XDB_RETURN_NOT_OK(element());
  } while (Consume(','));
  return Expect(']');
}

Status Reader::ExpectEnd() {
  SkipWs();
  return pos_ == in_.size() ? Status::OK() : Error("trailing bytes");
}

Status Reader::Error(const std::string& msg) const {
  return Status::InvalidArgument("json: " + msg + " at offset " +
                                 std::to_string(pos_));
}

void Reader::SkipWs() {
  while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\n' ||
                               in_[pos_] == '\t' || in_[pos_] == '\r'))
    ++pos_;
}

bool Reader::Consume(char c) {
  SkipWs();
  if (pos_ == in_.size() || in_[pos_] != c) return false;
  ++pos_;
  return true;
}

Status Reader::Expect(char c) {
  if (Consume(c)) return Status::OK();
  return Error(std::string("expected '") + c + "'");
}

}  // namespace json
}  // namespace xdb
