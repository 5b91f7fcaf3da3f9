#include "common/format.h"

#include <cstdarg>
#include <cstdio>

namespace xdb {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(n));
  } else if (n > 0) {
    const size_t old = out->size();
    out->resize(old + static_cast<size_t>(n));
    // Writes n bytes plus the terminator into the string's own NUL slot.
    std::vsnprintf(out->data() + old, static_cast<size_t>(n) + 1, fmt, again);
  }
  va_end(again);
}

}  // namespace xdb
