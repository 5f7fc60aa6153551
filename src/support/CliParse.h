//===- support/CliParse.h - Strict command-line number parsing --*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict numeric parsing for command-line flags, replacing the silent
/// atoi/atof calls that turned "--executors=abc" into 0 and "--heap=x" into
/// a 0-GB heap. Every parser rejects empty input, trailing garbage,
/// out-of-range values, and (for the unsigned parser) negative numbers,
/// returning false instead of fabricating a zero; callers print a
/// diagnostic naming the flag and its accepted range.
///
//===----------------------------------------------------------------------===//

#ifndef PANTHERA_SUPPORT_CLIPARSE_H
#define PANTHERA_SUPPORT_CLIPARSE_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace panthera {
namespace support {

/// Parses \p S as an unsigned integer in [Min, Max]. Returns false on
/// empty input, a leading sign, trailing garbage, or range overflow
/// (strtoull silently wraps negatives, so the sign check is explicit).
inline bool parseUnsigned(const char *S, uint64_t Min, uint64_t Max,
                          uint64_t &Out) {
  if (!S || *S == '\0' || !std::isdigit(static_cast<unsigned char>(*S)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  if (V < Min || V > Max)
    return false;
  Out = static_cast<uint64_t>(V);
  return true;
}

/// Parses \p S as a finite double in [Min, Max]. Rejects empty input,
/// trailing garbage, overflow, and inf/nan spellings.
inline bool parseF64(const char *S, double Min, double Max, double &Out) {
  if (!S || *S == '\0')
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0' || errno == ERANGE || !std::isfinite(V))
    return false;
  if (V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace support
} // namespace panthera

#endif // PANTHERA_SUPPORT_CLIPARSE_H
