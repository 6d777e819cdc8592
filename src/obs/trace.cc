#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace hygraph::obs {

uint64_t TraceNode::self_nanos() const {
  uint64_t children_total = 0;
  for (const TraceNode& c : children) children_total += c.total_nanos;
  return children_total >= total_nanos ? 0 : total_nanos - children_total;
}

const TraceNode* TraceNode::FindChild(const std::string& child_name) const {
  for (const TraceNode& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

uint64_t TraceNode::SumSelfNanos() const {
  uint64_t total = self_nanos();
  for (const TraceNode& c : children) total += c.SumSelfNanos();
  return total;
}

std::string TraceNode::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += name;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ": count=%" PRIu64 " total_ns=%" PRIu64 " self_ns=%" PRIu64,
                count, total_nanos, self_nanos());
  out += buf;
  for (const auto& [k, v] : counters) {
    std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, k.c_str(), v);
    out += buf;
  }
  out.push_back('\n');
  for (const TraceNode& c : children) out += c.ToString(indent + 1);
  return out;
}

TraceNode* Tracer::NodeAt(const std::vector<size_t>& path) {
  TraceNode* node = &root_;
  for (size_t idx : path) node = &node->children[idx];
  return node;
}

Tracer::SpanId Tracer::Begin(const std::string& name) {
  std::vector<size_t> path =
      stack_.empty() ? std::vector<size_t>{} : stack_.back().path;
  TraceNode* parent = NodeAt(path);
  size_t child_idx = parent->children.size();
  for (size_t i = 0; i < parent->children.size(); ++i) {
    if (parent->children[i].name == name) {
      child_idx = i;
      break;
    }
  }
  if (child_idx == parent->children.size()) {
    TraceNode child;
    child.name = name;
    parent->children.push_back(std::move(child));
  }
  path.push_back(child_idx);
  Frame frame;
  frame.path = std::move(path);
  frame.start_nanos = clock_->NowNanos();
  stack_.push_back(std::move(frame));
  return stack_.size() - 1;
}

void Tracer::End(SpanId id) {
  // Out-of-order End indicates a bug in instrumentation; ignore rather
  // than corrupt the tree (ScopedSpan guarantees LIFO order).
  if (stack_.empty() || id != stack_.size() - 1) return;
  const uint64_t elapsed = clock_->NowNanos() - stack_.back().start_nanos;
  TraceNode* node = NodeAt(stack_.back().path);
  node->count += 1;
  node->total_nanos += elapsed;
  if (stack_.size() == 1) root_.total_nanos += elapsed;
  stack_.pop_back();
}

void Tracer::AddCounter(const std::string& name, uint64_t delta) {
  TraceNode* node =
      stack_.empty() ? &root_ : NodeAt(stack_.back().path);
  node->counters[name] += delta;
}

}  // namespace hygraph::obs
