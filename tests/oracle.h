// Reference semantics for the planner tests: a naive bottom-up evaluator on
// the parser's ProgramAst and Value alone, sharing no planner or dataflow code.
//
// Fragment: infinite-lifetime tables; pure-table rules over positive table
// predicates, comparisons, assignments and constants, with an optional
// count/sum/min/max table aggregate in the head; rules triggered by one
// stream predicate. Body terms read only variables bound earlier in source
// order. Anything else sets Result::error.
//
// Semantics: driven rows and stream-rule heads on tables are stored, keyed
// by primary key; a table holds them plus the least fixpoint of the
// pure-table rules over them. Stream tuples run first in first out against
// the state when dequeued; stream heads re-enter the queue.
#ifndef P2_TESTS_ORACLE_H_
#define P2_TESTS_ORACLE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/overlog/ast.h"
#include "src/runtime/value.h"

namespace p2::oracle {

using Row = std::vector<Value>;

struct Step {
  enum class Kind { kInsert, kDelete, kInject };
  Kind kind;
  std::string rel;
  Row fields;  // the whole tuple (insert, inject) or its key values (delete)
};

struct Result {
  std::map<std::string, std::vector<Row>> tables;    // sorted rows per table
  std::vector<std::pair<std::string, Row>> streams;  // in emission order
  std::string error;  // non-empty when the program or drive leaves the fragment
};

Result Run(const ProgramAst& program, const std::vector<Step>& steps);

}  // namespace p2::oracle

#endif  // P2_TESTS_ORACLE_H_
