// Relational dataflow elements (§3.4): rule bodies (stream × table
// equijoins, anti-joins, selections, assignments and the head projection,
// fused into one operator), aggregation, table insert/delete bridges, and
// duplicate elimination. These are the operators the planner assembles
// rule chains from; most are parameterized by PEL programs.
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

class AggWrapElement;

// One step of a rule body (see RuleBody). Steps read and write the body's
// binding frame: the event's fields, then each join's table row, then each
// assignment's value, at the slots the planner's variable environment gave
// them.
struct BodyOp {
  enum class Kind {
    kJoin,      // for each matching row of `table`: bind it at `slot`, run the rest
    kAntiJoin,  // stop unless `table` holds no matching row (OverLog "not")
    kAssign,    // frame[slot] = expr (OverLog assignment, e.g. "D := S - N - 1")
    kFilter,    // stop unless expr is true (selection)
  };
  // How a delta chain's self-join treats the table row that triggered the
  // chain, which the frame holds in its leading slots. The planner sets a
  // mode only on joins against the trigger's own table, so that a
  // derivation using the row at several body positions is counted once.
  enum class TriggerRow {
    kNone,
    kExclude,  // skip it: an earlier occurrence, post-insert state
    kInclude,  // also match it: a later occurrence, post-removal state
  };

  Kind kind = Kind::kFilter;
  // Joins and anti-joins: the probed table, its key columns, and one
  // program per key column computing the value that column must equal.
  // No key columns means a full scan.
  Table* table = nullptr;
  std::vector<size_t> key_cols;
  std::vector<PelProgram> keys;
  TriggerRow trigger = TriggerRow::kNone;
  // kJoin: the frame slot of the row's first field, and the row's arity
  // (rows of any other width never match); kAssign: the slot set.
  size_t slot = 0;
  size_t arity = 0;
  // kAssign and kFilter.
  PelProgram expr;
};

// A rule's body and head as one operator: the join / select / project
// chain of §3.4, fused. For each event pushed in, it runs `ops` as nested
// loops over one binding frame of `width` slots (the event's first
// `event_arity` fields come first) and builds a tuple only for the
// projected head, which it pushes out of port 0.
//
// Evaluation order is the unfused chain's, depth first: a join evaluates
// its keys, takes a snapshot of its matches (Table::LookupByCols copies),
// then runs the rest of the body once per match, so every head is pushed
// before the next match is bound. A head pushed downstream can insert into
// a table and re-enter this body synchronously; each activation therefore
// gets its own frame.
class RuleBody : public Element {
 public:
  RuleBody(std::string name, PelEnv env, std::vector<BodyOp> ops, size_t event_arity,
           size_t width, std::string head_name, std::vector<PelProgram> head);

  int Push(int port, const TuplePtr& t, const Callback& cb) override;

  // Feeds the candidates of a per-event aggregate to `agg` (also wired to
  // port 0). When no head program reads randomness or the clock, a
  // candidate's head is built only if `agg` takes it as its new
  // representative; the body then evaluates just the aggregate field per
  // candidate. A volatile head is built and pushed for every candidate, so
  // the node's Rng advances as it would without the shortcut.
  void set_agg(AggWrapElement* agg);

  // Join matches bound into the frame (all activations).
  uint64_t rows() const { return rows_; }
  // Per-rule work counter (Graph::ObserveElement); nullable. Bumped once
  // per activation.
  void set_obs_rows(obs::Counter* rows) { obs_rows_ = rows; }

 private:
  // The frame and snapshot stacks of the activations on one thread.
  struct Scratch;
  struct Activation {
    Scratch* scratch;
    size_t base;  // offset of the frame in scratch->frames
    uint64_t rows = 0;
  };

  // The activation's frame. Re-read after any call that can re-enter a
  // body (a table lookup or a push): the frames stack may have moved.
  static Value* Frame(const Activation& a);
  // Runs ops [op, end) and the head over `a`'s frame.
  int Run(size_t op, Activation* a, const Callback& cb);
  int Join(size_t op, Activation* a, const Callback& cb);
  std::vector<Value> EvalKeys(const BodyOp& op, const Value* frame);
  int EmitHead(const Value* frame, const Callback& cb);
  // Evaluates `prog` over `frame`; a bare variable is copied from its slot
  // without the VM.
  Value Eval(const PelProgram& prog, const Value* frame) {
    int lone = prog.LoneField();
    return lone >= 0 ? frame[lone] : vm_.Eval(prog, frame, width_);
  }
  // `agg_value`, when set, is the aggregate field's already computed value.
  TuplePtr BuildHead(const Value* frame, const Value* agg_value);

  PelVm vm_;
  std::vector<BodyOp> ops_;
  size_t event_arity_;
  size_t width_;
  SchemaId head_schema_;  // interned once; tuple construction skips the string
  std::vector<PelProgram> head_;
  bool head_volatile_ = false;
  AggWrapElement* lazy_agg_ = nullptr;
  size_t agg_position_ = 0;
  uint64_t rows_ = 0;
  obs::Counter* obs_rows_ = nullptr;
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
// the row is left to age out by its own TTL. Only locally addressed heads
// are retracted: a remote head ages out by soft-state expiry (there is no
// wire delete), matching SupportCountElement, which counts only local ones.
class CountedRetractElement : public Element {
 public:
  CountedRetractElement(std::string name, SupportCounts* counts, std::string local_addr)
      : Element(std::move(name)), counts_(counts), local_addr_(std::move(local_addr)) {}
  int Push(int port, const TuplePtr& t, const Callback& cb) override;

  void set_retracting(bool on) { retracting_ = on; }
  bool retracting() const { return retracting_; }

 private:
  SupportCounts* counts_;
  std::string local_addr_;
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

  // The two halves of Push, for a caller that builds a candidate's tuple
  // only when it is needed: Offer takes the candidate's aggregate value and
  // returns true when the candidate becomes the representative (the first
  // candidate, or a strictly better min/max: ties keep the earlier one).
  // The caller must then hand that candidate's tuple to Represent before
  // offering another.
  bool Offer(const Value& v);
  void Represent(TuplePtr candidate) { best_ = std::move(candidate); }

  size_t agg_position() const { return agg_position_; }

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
