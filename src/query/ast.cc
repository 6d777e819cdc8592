#include "query/ast.h"

namespace hygraph::query {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::PropertyRef(std::string var, std::string key) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kPropertyRef;
  e->var = std::move(var);
  e->key = std::move(key);
  return e;
}

ExprPtr Expr::Variable(std::string var) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kVariable;
  e->var = std::move(var);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->binary_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->unary_op = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::Call(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kCall;
  e->call_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->var = var;
  e->key = key;
  e->binary_op = binary_op;
  e->unary_op = unary_op;
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  e->call_name = call_name;
  for (const ExprPtr& arg : args) e->args.push_back(arg->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral: {
      if (!literal.is_string()) return literal.ToString();
      std::string out = "'";
      out += literal.ToString();
      out += '\'';
      return out;
    }
    case Kind::kPropertyRef:
      return var + "." + key;
    case Kind::kVariable:
      return var;
    case Kind::kBinary: {
      std::string out = "(";
      out += lhs->ToString();
      out += ' ';
      out += BinaryOpName(binary_op);
      out += ' ';
      out += rhs->ToString();
      out += ')';
      return out;
    }
    case Kind::kUnary: {
      std::string out = unary_op == UnaryOp::kNot ? "NOT " : "-";
      out += lhs->ToString();
      return out;
    }
    case Kind::kCall: {
      std::string out = call_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace hygraph::query
