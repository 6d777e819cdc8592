// In-memory span recorder for the benchmark's traced replay. Spans are
// recorded around calls into the program's public functions from the
// benchmark's own code and written out once, at the end of the run.
#ifndef HGBENCH_SPANS_H_
#define HGBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace hgbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  uint64_t start = 0;
  uint64_t end = 0;
  int64_t parent = -1;  ///< index into the recorder's spans, -1 for a root
  uint64_t request = 0;
  uint64_t duration() const { return end - start; }
};

class SpanRecorder {
 public:
  /// A disabled recorder reads no clock and keeps nothing.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span and returns its index (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNanos(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end = NowNanos();
  }

  /// Runs `fn` inside a span named `name`.
  template <typename Fn>
  auto Around(const char* name, int64_t parent, uint64_t request, Fn&& fn) {
    const int64_t s = Begin(name, parent, request);
    auto out = fn();
    End(s);
    return out;
  }

  /// One JSON object per line: name, start, end, parent, request.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld,\"request\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace hgbench

#endif  // HGBENCH_SPANS_H_
