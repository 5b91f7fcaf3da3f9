#include "xdm/item.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace xdb {

void NormalizeSequence(NodeSequence* seq) {
  std::sort(seq->begin(), seq->end());
  seq->erase(std::unique(seq->begin(), seq->end()), seq->end());
}

double StringToNumber(Slice s) {
  // XPath 1.0 section 4.4: optional whitespace, an optional minus sign,
  // then Digits ('.' Digits?)? | '.' Digits, then optional whitespace.
  // Anything else (a plus sign, an exponent, "inf", hex) is NaN.
  auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  size_t b = 0, e = s.size();
  while (b < e && space(s[b])) b++;
  while (e > b && space(s[e - 1])) e--;
  bool digit = false, point = false;
  for (size_t i = b + (b < e && s[b] == '-' ? 1 : 0); i < e; i++) {
    if (s[i] >= '0' && s[i] <= '9') {
      digit = true;
    } else if (s[i] == '.' && !point) {
      point = true;
    } else {
      return std::nan("");
    }
  }
  if (!digit) return std::nan("");
  return std::strtod(std::string(s.data() + b, e - b).c_str(), nullptr);
}

}  // namespace xdb
