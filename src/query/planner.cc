#include "query/planner.h"

#include <algorithm>

namespace hygraph::query {

namespace {

graph::CmpOp ToCmpOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return graph::CmpOp::kEq;
    case BinaryOp::kNe:
      return graph::CmpOp::kNe;
    case BinaryOp::kLt:
      return graph::CmpOp::kLt;
    case BinaryOp::kLe:
      return graph::CmpOp::kLe;
    case BinaryOp::kGt:
      return graph::CmpOp::kGt;
    case BinaryOp::kGe:
      return graph::CmpOp::kGe;
    default:
      return graph::CmpOp::kEq;  // caller guarantees a comparison op
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Splits an expression tree on top-level ANDs.
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr->kind == Expr::Kind::kBinary &&
      expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->lhs), out);
    SplitConjuncts(std::move(expr->rhs), out);
    return;
  }
  out->push_back(std::move(expr));
}

// Recombines conjuncts with AND; null when empty.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (ExprPtr& c : conjuncts) {
    if (!result) {
      result = std::move(c);
    } else {
      result = Expr::Binary(BinaryOp::kAnd, std::move(result), std::move(c));
    }
  }
  return result;
}

// Recognizes `var.key <cmp> literal` or `literal <cmp> var.key`; fills the
// normalized (var, predicate) form.
bool AsPushablePredicate(const Expr& expr, std::string* var,
                         graph::PropertyPredicate* pred) {
  if (expr.kind != Expr::Kind::kBinary || !IsComparison(expr.binary_op)) {
    return false;
  }
  // `<>` is not pushable: the matcher's predicate semantics make a missing
  // key fail the match, while expression semantics make `null <> lit` true.
  if (expr.binary_op == BinaryOp::kNe) return false;
  const Expr* prop = nullptr;
  const Expr* lit = nullptr;
  bool flipped = false;
  if (expr.lhs->kind == Expr::Kind::kPropertyRef &&
      expr.rhs->kind == Expr::Kind::kLiteral) {
    prop = expr.lhs.get();
    lit = expr.rhs.get();
  } else if (expr.rhs->kind == Expr::Kind::kPropertyRef &&
             expr.lhs->kind == Expr::Kind::kLiteral) {
    prop = expr.rhs.get();
    lit = expr.lhs.get();
    flipped = true;
  } else {
    return false;
  }
  BinaryOp op = expr.binary_op;
  if (flipped) {
    switch (op) {
      case BinaryOp::kLt:
        op = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        op = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        op = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        op = BinaryOp::kLe;
        break;
      default:
        break;  // Eq/Ne are symmetric
    }
  }
  *var = prop->var;
  pred->key = prop->key;
  pred->op = ToCmpOp(op);
  pred->value = lit->literal;
  return true;
}

}  // namespace

std::string Plan::ToString() const {
  std::string out = "Plan{vertices=[";
  for (size_t i = 0; i < pattern.vertices.size(); ++i) {
    if (i > 0) out += ", ";
    out += pattern.vertices[i].var;
    if (!pattern.vertices[i].label.empty()) {
      out += ":" + pattern.vertices[i].label;
    }
    if (!pattern.vertices[i].predicates.empty()) {
      out += '(';
      out += std::to_string(pattern.vertices[i].predicates.size());
      out += " preds)";
    }
  }
  out += "], edges=" + std::to_string(pattern.edges.size());
  out += ", residual=";
  out += residual_where ? residual_where->ToString() : "none";
  out += ", limit=" + std::to_string(limit);
  if (timeout_ms != 0) {
    out += ", timeout=" + std::to_string(timeout_ms) + "ms";
  }
  out += "}";
  return out;
}

Result<Plan> CompileQuery(const QueryAst& ast, const PlannerOptions& options) {
  Plan plan;
  if (ast.paths.empty()) {
    return Status::InvalidArgument("query has no MATCH patterns");
  }
  if (ast.returns.empty()) {
    return Status::InvalidArgument("query has no RETURN items");
  }

  // Merge all path nodes into pattern vertices, unifying repeated variables.
  std::map<std::string, size_t> vertex_index;
  size_t anon_counter = 0;
  auto intern_node = [&](const NodeAst& node) -> Result<size_t> {
    std::string var = node.var;
    if (var.empty()) var = "_anon" + std::to_string(anon_counter++);
    auto it = vertex_index.find(var);
    if (it == vertex_index.end()) {
      graph::VertexPattern vp;
      vp.var = var;
      vp.label = node.label;
      for (const auto& [key, value] : node.properties) {
        vp.predicates.push_back(
            graph::PropertyPredicate{key, graph::CmpOp::kEq, value});
      }
      plan.pattern.vertices.push_back(std::move(vp));
      vertex_index[var] = plan.pattern.vertices.size() - 1;
      return plan.pattern.vertices.size() - 1;
    }
    // Repeated variable: merge constraints.
    graph::VertexPattern& vp = plan.pattern.vertices[it->second];
    if (!node.label.empty()) {
      if (vp.label.empty()) {
        vp.label = node.label;
      } else if (vp.label != node.label) {
        return Status::InvalidArgument("variable '" + var +
                                       "' bound to conflicting labels '" +
                                       vp.label + "' and '" + node.label +
                                       "'");
      }
    }
    for (const auto& [key, value] : node.properties) {
      vp.predicates.push_back(
          graph::PropertyPredicate{key, graph::CmpOp::kEq, value});
    }
    return it->second;
  };

  for (const PathAst& path : ast.paths) {
    std::vector<size_t> node_ids;
    for (const NodeAst& node : path.nodes) {
      auto id = intern_node(node);
      if (!id.ok()) return id.status();
      node_ids.push_back(*id);
    }
    for (size_t i = 0; i < path.edges.size(); ++i) {
      const EdgeAst& edge = path.edges[i];
      graph::EdgePattern ep;
      ep.label = edge.label;
      for (const auto& [key, value] : edge.properties) {
        ep.predicates.push_back(
            graph::PropertyPredicate{key, graph::CmpOp::kEq, value});
      }
      const std::string& src_var = plan.pattern.vertices[node_ids[i]].var;
      const std::string& dst_var = plan.pattern.vertices[node_ids[i + 1]].var;
      switch (edge.dir) {
        case EdgeAst::Dir::kRight:
          ep.src_var = src_var;
          ep.dst_var = dst_var;
          ep.direction = graph::Direction::kOut;
          break;
        case EdgeAst::Dir::kLeft:
          ep.src_var = dst_var;
          ep.dst_var = src_var;
          ep.direction = graph::Direction::kOut;
          break;
        case EdgeAst::Dir::kUndirected:
          ep.src_var = src_var;
          ep.dst_var = dst_var;
          ep.direction = graph::Direction::kAny;
          break;
      }
      plan.pattern.edges.push_back(std::move(ep));
      if (!edge.var.empty()) {
        if (plan.edge_vars.count(edge.var) || vertex_index.count(edge.var)) {
          return Status::InvalidArgument("duplicate variable '" + edge.var +
                                         "'");
        }
        plan.edge_vars[edge.var] = plan.pattern.edges.size() - 1;
      }
    }
  }

  // WHERE pushdown.
  if (ast.where) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(ast.where->Clone(), &conjuncts);
    std::vector<ExprPtr> residual;
    for (ExprPtr& conjunct : conjuncts) {
      std::string var;
      graph::PropertyPredicate pred;
      if (options.enable_pushdown &&
          AsPushablePredicate(*conjunct, &var, &pred)) {
        auto vit = vertex_index.find(var);
        if (vit != vertex_index.end()) {
          plan.pattern.vertices[vit->second].predicates.push_back(
              std::move(pred));
          continue;
        }
        auto eit = plan.edge_vars.find(var);
        if (eit != plan.edge_vars.end()) {
          plan.pattern.edges[eit->second].predicates.push_back(
              std::move(pred));
          continue;
        }
      }
      residual.push_back(std::move(conjunct));
    }
    plan.residual_where = CombineConjuncts(std::move(residual));
  }

  for (const ReturnItem& item : ast.returns) {
    plan.returns.push_back(ReturnItem{item.expr->Clone(), item.alias});
  }
  for (const OrderItem& item : ast.order_by) {
    plan.order_by.push_back(OrderItem{item.expr->Clone(), item.descending});
  }
  plan.distinct = ast.distinct;
  plan.limit = ast.limit;
  plan.mode = ast.mode;
  plan.timeout_ms = ast.timeout_ms;
  return plan;
}

}  // namespace hygraph::query
