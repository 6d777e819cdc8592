#include "query/executor.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "common/governor.h"
#include "obs/clock.h"
#include "obs/slow_query.h"
#include "query/functions.h"
#include "query/parser.h"
#include "query/profile.h"

namespace hygraph::query {

Result<Value> QueryResult::At(size_t row, const std::string& column) const {
  if (row >= rows.size()) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c] == column) return rows[row][c];
  }
  return Status::NotFound("no column named '" + column + "'");
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += "\t";
    out += columns[c];
  }
  out += "\n";
  const size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += "\t";
      out += rows[r][c].ToString();
    }
    out += "\n";
  }
  if (shown < rows.size()) {
    out += "... (" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  return out;
}

Result<QueryResult> Execute(const QueryBackend& backend,
                            const std::string& query_text,
                            const PlannerOptions& options) {
  auto ast = Parse(query_text);
  if (!ast.ok()) return ast.status();
  auto plan = CompileQuery(*ast, options);
  if (!plan.ok()) return plan.status();
  if (plan->mode != QueryMode::kNormal) return ExecutePlan(backend, *plan);

  obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();
  if (!slow.enabled()) return RunPlan(backend, *plan, nullptr);
  const obs::Clock* clock = obs::SystemClock::Instance();
  const uint64_t start = clock->NowNanos();
  auto result = RunPlan(backend, *plan, nullptr);
  slow.MaybeRecord(query_text, backend.name(), clock->NowNanos() - start);
  return result;
}

Result<QueryResult> ExecutePlan(const QueryBackend& backend,
                                const Plan& plan) {
  switch (plan.mode) {
    case QueryMode::kExplain:
      return ExplainPlan(backend, plan);
    case QueryMode::kProfile: {
      auto profiled = ProfilePlan(backend, plan);
      if (!profiled.ok()) return profiled.status();
      return profiled->ToResult();
    }
    case QueryMode::kNormal:
      break;
  }
  return RunPlan(backend, plan, nullptr);
}

namespace {

// The PROFILE cut marker stamped on the execute span when a governance
// interruption stops the query partway through.
const char* CutMarkerName(const Status& s) {
  if (s.IsDeadlineExceeded()) return "cut:deadline_exceeded";
  if (s.IsCancelled()) return "cut:cancelled";
  if (s.IsResourceExhausted()) return "cut:resource_exhausted";
  return nullptr;
}

Result<QueryResult> RunPlanImpl(const QueryBackend& backend, const Plan& plan,
                                obs::Tracer* tracer, QueryContext* context,
                                obs::ScopedSpan& execute_span) {
  // Pin one read view for the whole statement: every operator then sees a
  // single point-in-time state no matter what writers do concurrently.
  // Backends without snapshot support return null and are read live. The
  // snapshot shares the origin's registry, so Work()/PROFILE attribution
  // is unaffected.
  std::shared_ptr<const QueryBackend> snapshot = backend.BeginSnapshot();
  const QueryBackend& read = snapshot ? *snapshot : backend;

  QueryResult result;
  for (const ReturnItem& item : plan.returns) {
    result.columns.push_back(item.alias);
  }

  // Only short-circuit on the limit during matching when no post-match
  // work can change which rows survive.
  graph::MatchOptions match_options;
  match_options.context = context;
  const bool can_limit_early = plan.order_by.empty() &&
                               plan.residual_where == nullptr &&
                               !plan.distinct;
  if (can_limit_early) match_options.limit = plan.limit;

  Result<std::vector<graph::PatternMatch>> matches = [&] {
    obs::ScopedSpan match_span(tracer, "match");
    auto m = graph::MatchPattern(read.topology(), plan.pattern,
                                 match_options);
    if (m.ok()) match_span.AddCounter("rows", m->size());
    return m;
  }();
  if (!matches.ok()) return matches.status();

  Evaluator evaluator(&read);

  // PROFILE attributes storage-layer work to the span that caused it by
  // differencing the backend's cumulative counters around each evaluation.
  const bool traced = tracer != nullptr;
  auto attach_work = [&](obs::ScopedSpan& span, const BackendWork& before) {
    if (!traced) return;
    const BackendWork d = read.Work().Delta(before);
    span.AddCounter("points_scanned", d.series_points_scanned);
    span.AddCounter("chunks_decoded", d.chunks_decoded);
    span.AddCounter("chunks_cache_hits", d.chunks_cache_hits);
    span.AddCounter("chunks_zonemap_skipped", d.chunks_zonemap_skipped);
    // SPILL: chunk payloads that had to come back from the cold tier.
    // Zero on an all-in-RAM store, so the counter only appears when the
    // query actually paid for tiering.
    if (d.cold_chunks_loaded > 0) {
      span.AddCounter("cold_chunks_loaded", d.cold_chunks_loaded);
    }
    span.AddCounter("properties_scanned", d.properties_scanned);
  };
  // Multi-entity aggregate prefetch: a ts_* range aggregate with literal
  // interval bounds evaluates identically for every row binding the same
  // entity, so compute it for all matched entities in one backend batch
  // call and let per-row evaluation hit the memo.
  if (matches->size() >= 2) {
    std::vector<AggregateCallSite> sites;
    if (plan.residual_where) {
      CollectAggregateCallSites(*plan.residual_where, &sites);
    }
    for (const ReturnItem& item : plan.returns) {
      CollectAggregateCallSites(*item.expr, &sites);
    }
    for (const OrderItem& item : plan.order_by) {
      CollectAggregateCallSites(*item.expr, &sites);
    }
    if (!sites.empty()) {
      obs::ScopedSpan prefetch_span(tracer, "prefetch");
      const BackendWork before = traced ? read.Work() : BackendWork{};
      for (const AggregateCallSite& site : sites) {
        std::vector<Binding> entities;
        entities.reserve(matches->size());
        const auto edge_var = plan.edge_vars.find(site.var);
        for (const graph::PatternMatch& match : *matches) {
          if (edge_var != plan.edge_vars.end()) {
            entities.push_back(EntityRef::Edge(match.edges[edge_var->second]));
            continue;
          }
          const auto vertex = match.vertices.find(site.var);
          if (vertex != match.vertices.end()) {
            entities.push_back(EntityRef::Vertex(vertex->second));
          }
        }
        evaluator.PrefetchAggregates(entities, site.key, site.interval,
                                     site.kind);
      }
      attach_work(prefetch_span, before);
      prefetch_span.AddCounter("sites", sites.size());
    }
  }

  std::vector<std::string> return_span_names;
  if (traced) {
    return_span_names.reserve(plan.returns.size());
    for (const ReturnItem& item : plan.returns) {
      return_span_names.push_back("return:" + item.alias);
    }
  } else {
    return_span_names.assign(plan.returns.size(), std::string());
  }

  // Sort keys per row (evaluated against bindings + return aliases).
  struct PendingRow {
    std::vector<Value> cells;
    std::vector<Value> sort_keys;
  };
  std::vector<PendingRow> pending;

  {
    obs::ScopedSpan scan_span(tracer, "scan");
    for (const graph::PatternMatch& match : *matches) {
      // One governance unit per row; the deep scans the evaluator triggers
      // (hypertable decode, property sweeps) charge their own samples via
      // QueryContext::Current().
      if (context != nullptr) {
        HYGRAPH_RETURN_IF_ERROR(context->Charge());
      }
      Bindings bindings;
      for (const auto& [var, vertex] : match.vertices) {
        bindings[var] = EntityRef::Vertex(vertex);
      }
      for (const auto& [var, edge_idx] : plan.edge_vars) {
        bindings[var] = EntityRef::Edge(match.edges[edge_idx]);
      }
      if (plan.residual_where) {
        obs::ScopedSpan where_span(tracer, "where");
        const BackendWork before = traced ? read.Work() : BackendWork{};
        auto keep = evaluator.EvalPredicate(*plan.residual_where, bindings);
        attach_work(where_span, before);
        if (!keep.ok()) return keep.status();
        if (!*keep) continue;
      }
      PendingRow row;
      std::map<std::string, Value> aliases;
      for (size_t i = 0; i < plan.returns.size(); ++i) {
        const ReturnItem& item = plan.returns[i];
        obs::ScopedSpan return_span(tracer, return_span_names[i]);
        const BackendWork before = traced ? read.Work() : BackendWork{};
        auto value = evaluator.Eval(*item.expr, bindings);
        attach_work(return_span, before);
        if (!value.ok()) return value.status();
        aliases[item.alias] = *value;
        row.cells.push_back(std::move(*value));
      }
      if (!plan.order_by.empty()) {
        obs::ScopedSpan order_span(tracer, "order_keys");
        const BackendWork before = traced ? read.Work() : BackendWork{};
        for (const OrderItem& item : plan.order_by) {
          auto key = evaluator.Eval(*item.expr, bindings, &aliases);
          if (!key.ok()) return key.status();
          row.sort_keys.push_back(std::move(*key));
        }
        attach_work(order_span, before);
      }
      pending.push_back(std::move(row));
      if (can_limit_early && plan.limit != 0 && pending.size() >= plan.limit) {
        break;
      }
    }
    scan_span.AddCounter("rows", pending.size());
  }

  if (plan.distinct) {
    obs::ScopedSpan distinct_span(tracer, "distinct");
    // The de-dup set + staging vector roughly double the pending rows'
    // footprint; reserve the staging share against the memory budget.
    uint64_t distinct_staging = 0;
    if (context != nullptr) {
      distinct_staging = pending.size() * sizeof(PendingRow);
      HYGRAPH_RETURN_IF_ERROR(context->ReserveMemory(distinct_staging));
    }
    // Keep the first occurrence of each projected row (DISTINCT applies to
    // the RETURN columns, before ordering).
    auto row_less = [](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
      for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        const int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    };
    std::set<std::vector<Value>, decltype(row_less)> seen(row_less);
    std::vector<PendingRow> unique;
    unique.reserve(pending.size());
    for (PendingRow& row : pending) {
      if (seen.insert(row.cells).second) unique.push_back(std::move(row));
    }
    pending = std::move(unique);
    if (context != nullptr) context->ReleaseMemory(distinct_staging);
  }

  if (!plan.order_by.empty()) {
    obs::ScopedSpan sort_span(tracer, "sort");
    // Sort staging: the permutation index plus the reordered row vector.
    uint64_t sort_staging = 0;
    if (context != nullptr) {
      sort_staging = pending.size() * (sizeof(size_t) + sizeof(PendingRow));
      HYGRAPH_RETURN_IF_ERROR(context->ReserveMemory(sort_staging));
    }
    std::vector<size_t> order(pending.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < plan.order_by.size(); ++k) {
        const int c = pending[a].sort_keys[k].Compare(pending[b].sort_keys[k]);
        if (c != 0) return plan.order_by[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<PendingRow> sorted;
    sorted.reserve(pending.size());
    for (size_t i : order) sorted.push_back(std::move(pending[i]));
    pending = std::move(sorted);
    if (context != nullptr) context->ReleaseMemory(sort_staging);
  }

  {
    obs::ScopedSpan project_span(tracer, "project");
    const size_t keep = plan.limit == 0
                            ? pending.size()
                            : std::min(plan.limit, pending.size());
    result.rows.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      result.rows.push_back(std::move(pending[i].cells));
    }
    project_span.AddCounter("rows", result.rows.size());
  }

  const Evaluator::MemoStats& memo = evaluator.memo_stats();
  execute_span.AddCounter("rows", result.rows.size());
  execute_span.AddCounter("memo_hits", memo.hits);
  execute_span.AddCounter("memo_misses", memo.misses);
  if (obs::MetricsRegistry* registry = read.metrics()) {
    registry->counter("query.executions")->Increment();
    registry->counter("query.rows")->Add(result.rows.size());
    registry->counter("query.memo_hits")->Add(memo.hits);
    registry->counter("query.memo_misses")->Add(memo.misses);
  }
  return result;
}

}  // namespace

Result<QueryResult> RunPlan(const QueryBackend& backend, const Plan& plan,
                            obs::Tracer* tracer) {
  return RunPlan(backend, plan, tracer, nullptr);
}

Result<QueryResult> RunPlan(const QueryBackend& backend, const Plan& plan,
                            obs::Tracer* tracer, QueryContext* context) {
  // Admission gate: shed the statement up front when the process is
  // already past the governor's high-water mark (no-op by default).
  HYGRAPH_RETURN_IF_ERROR(ResourceGovernor::Global()->Admit());

  // A TIMEOUT on the statement arms the caller's context, or a local one
  // when the caller did not pass any (the Execute path).
  QueryContext local_context;
  if (plan.timeout_ms != 0) {
    QueryContext* target = context != nullptr ? context : &local_context;
    if (!target->has_deadline()) {
      target->SetTimeout(plan.timeout_ms, [] {
        return obs::SystemClock::Instance()->NowNanos();
      });
    }
    if (context == nullptr) {
      local_context.AttachGovernor(ResourceGovernor::Global());
      context = &local_context;
    }
  }

  obs::ScopedSpan execute_span(tracer, "execute");
  std::optional<QueryContext::Scope> scope;
  if (context != nullptr) scope.emplace(context);
  auto result = RunPlanImpl(backend, plan, tracer, context, execute_span);
  if (!result.ok()) {
    if (const char* marker = CutMarkerName(result.status())) {
      execute_span.AddCounter(marker, 1);
    }
  }
  return result;
}

}  // namespace hygraph::query
