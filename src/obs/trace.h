#ifndef HYGRAPH_OBS_TRACE_H_
#define HYGRAPH_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace hygraph::obs {

/// One aggregated operator in a trace tree. Repeated spans with the same
/// name under the same parent merge into a single node (EXPLAIN
/// ANALYZE-style "loops" aggregation): `count` is how many times the span
/// ran, `total_nanos` the summed wall time across runs. Plain value type —
/// copyable, no pointers — so a finished trace can be returned, stored,
/// and compared in tests.
struct TraceNode {
  std::string name;
  uint64_t count = 0;
  uint64_t total_nanos = 0;
  /// Work attributed to this span (rows, points scanned, cache hits, ...).
  std::map<std::string, uint64_t> counters;
  std::vector<TraceNode> children;

  /// Time spent in this span itself, excluding child spans.
  uint64_t self_nanos() const;
  /// Child with `child_name`, or nullptr. Linear scan; trees are small.
  const TraceNode* FindChild(const std::string& child_name) const;
  /// Sum of self_nanos over this node and all descendants (== total_nanos
  /// when children's time telescopes, i.e. children never outlive parent).
  uint64_t SumSelfNanos() const;

  /// Indented one-line-per-node rendering:
  ///   match: count=1 total_ns=500 self_ns=200 rows=10
  std::string ToString(int indent = 0) const;
};

/// Builds a TraceNode tree from nested Begin/End calls. Spans must nest
/// strictly (End only the most recent unfinished span) — enforced by the
/// RAII ScopedSpan wrapper, which is the only intended way to use this.
///
/// Not thread-safe: one Tracer per operation, used from one thread. The
/// null Tracer is the disabled state — ScopedSpan(nullptr, ...) performs
/// no clock reads and no allocation, so instrumented code pays nothing
/// when tracing is off.
class Tracer {
 public:
  using SpanId = size_t;

  explicit Tracer(const Clock* clock = SystemClock::Instance())
      : clock_(clock) {
    root_.name = "root";
    root_.count = 1;
  }

  SpanId Begin(const std::string& name);
  void End(SpanId id);
  /// Adds `delta` to a counter on the innermost open span (the root when
  /// no span is open).
  void AddCounter(const std::string& name, uint64_t delta);

  /// The synthetic root whose children are the top-level spans. Valid
  /// once all spans have ended; its total_nanos is the sum of top-level
  /// span times.
  const TraceNode& root() const { return root_; }
  size_t open_spans() const { return stack_.size(); }
  const Clock* clock() const { return clock_; }

 private:
  struct Frame {
    std::vector<size_t> path;  // child indices from root_ to the node
    uint64_t start_nanos = 0;
  };

  TraceNode* NodeAt(const std::vector<size_t>& path);

  const Clock* clock_;
  TraceNode root_;
  std::vector<Frame> stack_;
};

/// RAII span handle. Null tracer → every member is a no-op, which is the
/// "disabled" fast path the overhead budget is measured against.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddCounter(const std::string& name, uint64_t delta) {
    if (tracer_ != nullptr && delta != 0) tracer_->AddCounter(name, delta);
  }
  bool enabled() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_ = 0;
};

}  // namespace hygraph::obs

#endif  // HYGRAPH_OBS_TRACE_H_
