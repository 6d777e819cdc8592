#ifndef HYGRAPH_COMMON_STRINGS_H_
#define HYGRAPH_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace hygraph {

/// Splits on a single-character delimiter; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Shortest decimal text that parses back (strtod) to the same double, bit
/// for bit: 23.4 prints as "23.4", not "23.399999999999999". -0.0, ±inf
/// and NaN keep their sign ("-0", "-inf", "-nan").
std::string FormatDouble(double d);
/// FormatDouble appended to `out`, without a temporary string.
void AppendDouble(std::string* out, double d);

}  // namespace hygraph

#endif  // HYGRAPH_COMMON_STRINGS_H_
