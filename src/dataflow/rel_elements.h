// Relational dataflow elements (§3.4): selections, projections, stream ×
// table equijoins, aggregation, table insert/delete bridges, and duplicate
// elimination. These are the operators the planner assembles rule chains
// from; most are parameterized by PEL programs.
#ifndef P2_DATAFLOW_REL_ELEMENTS_H_
#define P2_DATAFLOW_REL_ELEMENTS_H_

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/dataflow/element.h"
#include "src/pel/vm.h"
#include "src/table/support_counts.h"
#include "src/table/table.h"

namespace p2 {

// Drops tuples for which the PEL predicate evaluates false.
class FilterElement : public Element {
 public:
  FilterElement(std::string name, PelEnv env, PelProgram program)
      : Element(std::move(name)), vm_(env), program_(std::move(program)) {
    program_.Lower();  // compile to register form once, at plan time
  }
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  PelVm vm_;
  PelProgram program_;
};

// Appends the PEL program's result as a new trailing field (implements
// OverLog assignments, e.g. "D := S - N - 1").
class ExtendElement : public Element {
 public:
  ExtendElement(std::string name, PelEnv env, PelProgram program)
      : Element(std::move(name)), vm_(env), program_(std::move(program)) {
    program_.Lower();
  }
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  PelVm vm_;
  PelProgram program_;
};

// Builds the output tuple from one PEL program per field.
class ProjectElement : public Element {
 public:
  ProjectElement(std::string name, PelEnv env, std::string out_name,
                 std::vector<PelProgram> field_programs)
      : Element(std::move(name)),
        vm_(env),
        out_schema_(InternSchema(out_name)),
        field_programs_(std::move(field_programs)) {
    for (const PelProgram& p : field_programs_) {
      p.Lower();
    }
  }
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  PelVm vm_;
  SchemaId out_schema_;  // interned once; tuple construction skips the string
  std::vector<PelProgram> field_programs_;
};

// One equality constraint of a join: table column `table_col` must equal
// the value computed from the incoming tuple by `expr`.
struct JoinKey {
  size_t table_col;
  PelProgram expr;
};

// Stream × table equijoin (§2.5): for each tuple pushed in, finds all rows
// of `table` matching the key constraints (via a secondary index installed
// at plan time) and pushes one concatenated tuple (input fields then table
// fields) per match.
class JoinElement : public Element {
 public:
  // How a delta chain's self-join treats the table row that triggered the
  // chain, which every tuple carries in its leading fields. The planner
  // sets a mode only on joins against the trigger's own table, so that a
  // derivation using the row at several body positions is counted once.
  enum class TriggerRow {
    kNone,
    kExclude,  // skip it: an earlier occurrence, post-insert state
    kInclude,  // also match it: a later occurrence, post-removal state
  };

  JoinElement(std::string name, PelEnv env, Table* table, std::vector<JoinKey> keys,
              std::string out_name, TriggerRow trigger = TriggerRow::kNone);
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  PelVm vm_;
  Table* table_;
  std::vector<JoinKey> keys_;
  std::vector<size_t> key_cols_;
  SchemaId out_schema_;
  TriggerRow trigger_;
};

// Anti-join (OverLog "not"): passes the input through unchanged iff the
// table holds NO matching row.
class AntiJoinElement : public Element {
 public:
  AntiJoinElement(std::string name, PelEnv env, Table* table, std::vector<JoinKey> keys);
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  PelVm vm_;
  Table* table_;
  std::vector<JoinKey> keys_;
  std::vector<size_t> key_cols_;
};

// Inserts pushed tuples into a table. When the table content changes, the
// tuple continues downstream on port 0 as the table's delta stream.
class InsertElement : public Element {
 public:
  InsertElement(std::string name, Table* table) : Element(std::move(name)), table_(table) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  Table* table_;
};

// Deletes the row whose primary key matches the pushed (derived) tuple.
class DeleteElement : public Element {
 public:
  DeleteElement(std::string name, Table* table) : Element(std::move(name)), table_(table) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  Table* table_;
};

// Suppresses tuples identical to one seen recently (bounded memory).
class DedupElement : public Element {
 public:
  DedupElement(std::string name, size_t max_entries = 4096)
      : Element(std::move(name)), max_entries_(max_entries) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

 private:
  size_t max_entries_;
  std::unordered_set<std::string> seen_;
  std::vector<std::string> order_;
  size_t next_evict_ = 0;
};

// Counting planner, derivation side: records one support for each locally
// addressed head tuple flowing to the router, then passes it through.
// `counting` is a per-push mode the planner's delta listener sets before
// driving the chain: a TTL refresh of an identical body row re-derives the
// head (the refresh must propagate) but is NOT a new support.
class SupportCountElement : public Element {
 public:
  SupportCountElement(std::string name, SupportCounts* counts, std::string local_addr)
      : Element(std::move(name)), counts_(counts), local_addr_(std::move(local_addr)) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

  void set_counting(bool on) { counting_ = on; }
  bool counting() const { return counting_; }

 private:
  SupportCounts* counts_;
  std::string local_addr_;
  bool counting_ = true;
};

// Counting planner, retraction side: terminal element of a counted remove
// chain. Decrements the support count of the re-derived head tuple;
// deletes the head row when the count reaches zero — unless `retracting`
// is false (the support merely expired), in which case the count drops but
// the row is left to age out by its own TTL.
class CountedRetractElement : public Element {
 public:
  CountedRetractElement(std::string name, SupportCounts* counts)
      : Element(std::move(name)), counts_(counts) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

  void set_retracting(bool on) { retracting_ = on; }
  bool retracting() const { return retracting_; }

 private:
  SupportCounts* counts_;
  bool retracting_ = true;
};

// Fans a rule's event stream into exactly one of N pre-compiled body
// variants (alternate join orders). The adaptive replan loop flips
// `active` when live table statistics invert the install-time cost order;
// tuples only ever flow down one branch, so a swap is a single int store,
// not a graph rebuild.
class VariantSwitchElement : public Element {
 public:
  explicit VariantSwitchElement(std::string name) : Element(std::move(name)) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override {
    (void)port;
    return PushOut(active_, t, cb);
  }

  void set_active(int branch) { active_ = branch; }
  int active() const { return active_; }

 private:
  int active_ = 0;
};

enum class AggKind { kMin, kMax, kCount, kSum, kAvg };

// Per-event aggregation ("AggWrap"). The rule driver brackets each event
// with Begin/Flush; candidate pre-head tuples pushed in between are reduced
// to a single output tuple. min/max have *selection* semantics: the output
// carries the fields of the winning candidate (this is what makes OverLog
// patterns like Narada's "pick the member with max<R>, R := f_rand()" and
// Chord's "forward to the finger with min<D>" work). count/sum/avg
// accumulate over all candidates, taking the non-aggregate fields from the
// first one. With `emit_empty` set (used for count<*>), an event yielding
// no candidates still emits one tuple with aggregate 0, its remaining
// fields computed from the event itself.
class AggWrapElement : public Element {
 public:
  AggWrapElement(std::string name, PelEnv env, AggKind kind, size_t agg_position,
                 std::string out_name, bool emit_empty,
                 std::vector<PelProgram> empty_field_programs);

  void Begin(const TuplePtr& event);
  int Push(int port, const TuplePtr& t, const Callback& cb) override;
  void Flush();

 private:
  PelVm vm_;
  AggKind kind_;
  size_t agg_position_;
  SchemaId out_schema_;
  bool emit_empty_;
  std::vector<PelProgram> empty_field_programs_;
  TuplePtr current_event_;
  TuplePtr best_;     // representative candidate (winner for min/max, first otherwise)
  Value acc_;         // accumulator for count/sum/avg
  int64_t count_ = 0;
};

// Chain entry point inserted by the planner at the head of every rule:
// brackets aggregate rules with Begin/Flush, counts rule firings, and
// drops events narrower than the rule's event predicate (wire data is
// untrusted — a well-framed tuple with a known name but the wrong arity
// must not reach field-indexing elements).
class RuleDriver : public Element {
 public:
  RuleDriver(std::string name, AggWrapElement* agg /* nullable */)
      : Element(std::move(name)), agg_(agg) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

  // The planner wires the aggregate bracket after the chain is built.
  void set_agg(AggWrapElement* agg) { agg_ = agg; }
  void set_min_arity(size_t n) { min_arity_ = n; }

  // Per-rule metric handles (Graph::ObserveElement): fire count, sampled
  // fire-to-output latency, malformed-input drops. All nullable.
  void set_obs(obs::Counter* fires, obs::LogHistogram* fire_ns, obs::Counter* malformed) {
    obs_fires_ = fires;
    obs_fire_ns_ = fire_ns;
    obs_malformed_ = malformed;
  }

  uint64_t fires() const { return fires_; }
  uint64_t malformed() const { return malformed_; }

 private:
  AggWrapElement* agg_;
  size_t min_arity_ = 0;
  uint64_t fires_ = 0;
  uint64_t malformed_ = 0;
  obs::Counter* obs_fires_ = nullptr;
  obs::LogHistogram* obs_fire_ns_ = nullptr;
  obs::Counter* obs_malformed_ = nullptr;
};

// Maintains an aggregate over a whole table (§3.4 "aggregation elements
// that maintain an up-to-date aggregate on a table and emit it whenever it
// changes"). Groups by `group_cols` of the table's rows and emits tuples
// (group fields..., aggregate) under `out_name` for groups whose aggregate
// changed.
//
// The watcher is incremental over the table's typed delta stream:
// count/sum/avg update in O(1) per delta; min/max keep a per-group ordered
// support multiset so retracting the current extremum finds its successor
// in O(log n) instead of rescanning the table. A key replacement carries
// the displaced row in the delta, so its contribution is retracted exactly.
class TableAggWatcher : public Element {
 public:
  TableAggWatcher(std::string name, Table* table, std::vector<size_t> group_cols,
                  AggKind kind, size_t agg_col, std::string out_name);

  // Subscribes to the table (inserts AND removals — aggregates must shrink
  // when rows are deleted, evicted or expire). Call once after wiring.
  // Seeds the running state from the table's current rows without
  // emitting; the first report happens on the first post-attach delta.
  void Attach();

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return Value::Compare(a, b) < 0;
    }
  };
  struct Group {
    int64_t rows = 0;
    Value sum;  // kSum/kAvg running accumulator
    // kMin/kMax: aggregate value -> live multiplicity. Ordered so the
    // extremum is begin()/rbegin().
    std::map<Value, int64_t, ValueLess> support;
  };

  void OnDelta(const TableDelta& d);
  void ProcessDelta(const TableDelta& d);
  // Applies one row's contribution (sign = +1 insert / -1 retract) and
  // returns the group key it touched.
  std::vector<Value> ApplyRow(const TuplePtr& row, int sign);
  // Emits the group's aggregate if it changed since last reported; emits
  // (key..., 0) for a vanished count group so downstream thresholds reset.
  void EmitGroup(const std::vector<Value>& key);

  Table* table_;
  std::vector<size_t> group_cols_;
  AggKind kind_;
  size_t agg_col_;
  SchemaId out_schema_;
  // Deltas arriving while one is being processed (e.g. a downstream rule
  // writing back into this table) are queued and drained in order by the
  // active invocation.
  bool processing_ = false;
  std::deque<TableDelta> pending_;
  std::unordered_map<std::vector<Value>, Group, ValueVecHash, ValueVecEq> groups_;
  std::unordered_map<std::vector<Value>, Value, ValueVecHash, ValueVecEq> last_;
};

// Accumulates one aggregation step.
Value AggStep(AggKind kind, const Value& acc, const Value& next, int64_t count_so_far);
// Finalizes (only kAvg differs from the accumulator).
Value AggFinal(AggKind kind, const Value& acc, int64_t count);
// Initial accumulator for the first row.
Value AggInit(AggKind kind, const Value& first);

}  // namespace p2

#endif  // P2_DATAFLOW_REL_ELEMENTS_H_
