// The P2 planner (§3.5): translates a parsed, localized OverLog program
// into tables, indices and a dataflow element graph inside a P2Node.
//
// Per rule, the planner emits one or more *variants*: a RuleDriver fed by
// an event source (periodic timer, stream demux port, or a table's delta
// stream), one RuleBody element that runs the remaining body terms
// (equijoins, anti-joins, filters, assignments) and the head projection
// over a single binding frame, optional per-event aggregation (AggWrap),
// and finally either a table delete, or the node's output router which
// sends remote tuples over the network and loops local ones back into the
// input queue.
//
// Rules are compiled semi-naively. A rule whose body is all materialized
// predicates is rewritten into per-delta variants: one insert-triggered
// chain per body predicate (any table gaining a row can complete a join,
// so each gets its own trigger), plus — when the head is itself
// materialized and the rule is non-recursive and deterministic — one
// remove-triggered chain per body predicate that re-derives the head tuple
// from the retracted row and decrements its support count, deleting the
// head row when its last support is gone. Retractions thus propagate
// instead of waiting for soft-state expiry. Join order within each chain
// is chosen greedily by estimated fanout (Table::EstimateFanout) rather
// than rule-text order, every probed index is declared at plan time, and
// whole-table aggregates are maintained incrementally. The randomized
// tests check the result against a naive bottom-up reference evaluator
// (tests/oracle.h).
#ifndef P2_OVERLOG_PLANNER_H_
#define P2_OVERLOG_PLANNER_H_

#include <string>

#include "src/overlog/ast.h"

namespace p2 {

class P2Node;

class Planner {
 public:
  // Installs `program` into `node`. On failure returns false with a
  // diagnostic in *err; the node is then in an unusable state.
  static bool Install(const ProgramAst& program, P2Node* node, std::string* err);
};

}  // namespace p2

#endif  // P2_OVERLOG_PLANNER_H_
