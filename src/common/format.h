// Appendf: printf-style appending to a std::string that never truncates.
#ifndef XDB_COMMON_FORMAT_H_
#define XDB_COMMON_FORMAT_H_

#include <string>

namespace xdb {

/// Appends the printf-formatted text to `out`, whole. Output that fits a
/// stack buffer is formatted once; longer output is formatted again
/// straight into the grown string.
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace xdb

#endif  // XDB_COMMON_FORMAT_H_
