#include "index/key_codec.h"

#include <cctype>
#include <cmath>

#include "common/coding.h"
#include "common/decimal.h"
#include "xdm/item.h"

namespace xdb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kString: return "string";
    case ValueType::kDouble: return "double";
    case ValueType::kDecimal: return "decimal";
    case ValueType::kDate: return "date";
  }
  return "unknown";
}

Result<ValueType> ValueTypeFromName(Slice name) {
  if (name == "string") return ValueType::kString;
  if (name == "double") return ValueType::kDouble;
  if (name == "decimal") return ValueType::kDecimal;
  if (name == "date") return ValueType::kDate;
  return Status::InvalidArgument("unknown value type '" + name.ToString() +
                                 "'");
}

Result<int64_t> ParseDateDays(Slice s) {
  // Trim whitespace.
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) b++;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) e--;
  Slice t(s.data() + b, e - b);
  bool neg = false;
  size_t i = 0;
  if (!t.empty() && t[0] == '-') {
    neg = true;
    i = 1;
  }
  auto read_int = [&](size_t digits, int64_t* out) -> bool {
    if (i + digits > t.size()) return false;
    int64_t v = 0;
    for (size_t k = 0; k < digits; k++) {
      char c = t[i + k];
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
    }
    i += digits;
    *out = v;
    return true;
  };
  int64_t year, month, day;
  if (!read_int(4, &year)) return Status::InvalidArgument("bad date year");
  if (i >= t.size() || t[i] != '-')
    return Status::InvalidArgument("bad date separator");
  i++;
  if (!read_int(2, &month)) return Status::InvalidArgument("bad date month");
  if (i >= t.size() || t[i] != '-')
    return Status::InvalidArgument("bad date separator");
  i++;
  if (!read_int(2, &day)) return Status::InvalidArgument("bad date day");
  if (i != t.size()) return Status::InvalidArgument("trailing date characters");
  if (neg) year = -year;
  if (month < 1 || month > 12 || day < 1 || day > 31)
    return Status::InvalidArgument("date out of range");

  // Days-from-civil (Howard Hinnant's algorithm).
  int64_t y = year;
  y -= month <= 2;
  int64_t era = (y >= 0 ? y : y - 399) / 400;
  int64_t yoe = y - era * 400;
  int64_t doy = (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

Status EncodeTypedKey(ValueType type, Slice value, uint32_t max_string_len,
                      std::string* out) {
  switch (type) {
    case ValueType::kString: {
      size_t n = std::min<size_t>(value.size(), max_string_len);
      out->append(value.data(), n);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d = StringToNumber(value);
      if (std::isnan(d))
        return Status::InvalidArgument("value is not a number");
      PutOrderedDouble(out, d);
      return Status::OK();
    }
    case ValueType::kDecimal: {
      // Only what a comparison reads as a number: "+5" or "1e3" would be
      // keys that no XPath comparison can match.
      if (std::isnan(StringToNumber(value)))
        return Status::InvalidArgument("value is not a number");
      auto res = Decimal::FromString(value);
      if (!res.ok()) return res.status();
      res.value().EncodeKey(out);
      return Status::OK();
    }
    case ValueType::kDate: {
      XDB_ASSIGN_OR_RETURN(int64_t days, ParseDateDays(value));
      // Bias so byte order matches chronological order.
      PutBig64(out, static_cast<uint64_t>(days + (1LL << 40)));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown value type");
}

void EncodeNodeIdKey(uint64_t doc_id, Slice node_id, std::string* out) {
  PutBig64(out, doc_id);
  out->append(node_id.data(), node_id.size());
}

Status DecodeNodeIdKey(Slice key, uint64_t* doc_id, Slice* node_id) {
  if (key.size() < 8) return Status::Corruption("short node id key");
  *doc_id = DecodeBig64(key.data());
  *node_id = Slice(key.data() + 8, key.size() - 8);
  return Status::OK();
}

}  // namespace xdb
