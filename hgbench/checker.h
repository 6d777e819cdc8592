// Answer checking for the served-workload benchmark.
#ifndef HGBENCH_CHECKER_H_
#define HGBENCH_CHECKER_H_

#include <string>

#include "query/executor.h"

namespace hgbench {

/// bench_table1's cross-engine rule: same shape, non-numeric cells equal,
/// numeric cells within 1e-9 relative (|x - y| <= 1e-9 * (1 + |x|)), which
/// absorbs floating-point association differences between engines.
bool AnswersAgree(const hygraph::query::QueryResult& expected,
                  const hygraph::query::QueryResult& got, std::string* why);

/// Exact equality for repeated answers from one engine: same columns, same
/// rows, same value types, doubles bit-identical.
bool AnswersIdentical(const hygraph::query::QueryResult& expected,
                      const hygraph::query::QueryResult& got,
                      std::string* why);

}  // namespace hgbench

#endif  // HGBENCH_CHECKER_H_
