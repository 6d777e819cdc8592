#include "common/time.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace hygraph {

Interval Interval::Intersect(const Interval& other) const {
  return Interval{std::max(start, other.start), std::min(end, other.end)};
}

Duration Interval::length() const {
  if (empty()) return 0;
  // Avoid signed overflow when one bound is a sentinel.
  if (start <= kMinTimestamp / 2 || end >= kMaxTimestamp / 2) {
    return kMaxTimestamp;
  }
  return end - start;
}

std::string Interval::ToString() const {
  std::string out = "[";
  out += FormatTimestamp(start);
  out += ", ";
  out += FormatTimestamp(end);
  out += ')';
  return out;
}

std::string FormatTimestamp(Timestamp t) {
  if (t == kMaxTimestamp) return "+inf";
  if (t == kMinTimestamp) return "-inf";
  const std::time_t secs = static_cast<std::time_t>(t / 1000);
  const int millis = static_cast<int>(((t % 1000) + 1000) % 1000);
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03d",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec, millis);
  return buf;
}

}  // namespace hygraph
