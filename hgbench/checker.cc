#include "checker.h"

#include <cmath>
#include <cstring>

namespace hgbench {
namespace {

using hygraph::Value;
using hygraph::query::QueryResult;

template <typename CellEq>
bool Compare(const QueryResult& expected, const QueryResult& got,
             std::string* why, CellEq cell_eq) {
  if (expected.columns != got.columns) {
    *why = "columns differ";
    return false;
  }
  if (expected.row_count() != got.row_count()) {
    *why = "row count " + std::to_string(got.row_count()) + ", expected " +
           std::to_string(expected.row_count());
    return false;
  }
  for (size_t r = 0; r < expected.row_count(); ++r) {
    if (expected.rows[r].size() != got.rows[r].size()) {
      *why = "row " + std::to_string(r) + " width differs";
      return false;
    }
    for (size_t c = 0; c < expected.rows[r].size(); ++c) {
      if (!cell_eq(expected.rows[r][c], got.rows[r][c])) {
        *why = "row " + std::to_string(r) + " column " + expected.columns[c] +
               ": got " + got.rows[r][c].ToString() + ", expected " +
               expected.rows[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool AnswersAgree(const QueryResult& expected, const QueryResult& got,
                  std::string* why) {
  return Compare(expected, got, why, [](const Value& x, const Value& y) {
    if (x.is_numeric() && y.is_numeric()) {
      const double dx = x.ToDouble().value();
      const double dy = y.ToDouble().value();
      return std::abs(dx - dy) <= 1e-9 * (1.0 + std::abs(dx));
    }
    return x == y;
  });
}

bool AnswersIdentical(const QueryResult& expected, const QueryResult& got,
                      std::string* why) {
  return Compare(expected, got, why, [](const Value& x, const Value& y) {
    if (x.type() != y.type()) return false;
    if (x.is_double()) {
      const double dx = x.ToDouble().value();
      const double dy = y.ToDouble().value();
      return std::memcmp(&dx, &dy, sizeof(double)) == 0;
    }
    return x == y;
  });
}

}  // namespace hgbench
