#include "src/dataflow/rel_elements.h"

#include <algorithm>
#include <chrono>

#include "src/obs/registry.h"
#include "src/runtime/logging.h"
#include "src/runtime/marshal.h"

namespace p2 {

// --- Aggregate arithmetic ---

Value AggInit(AggKind kind, const Value& first) {
  switch (kind) {
    case AggKind::kMin:
    case AggKind::kMax:
      return first;
    case AggKind::kCount:
      return Value::Int(1);
    case AggKind::kSum:
    case AggKind::kAvg:
      return first;
  }
  return first;
}

Value AggStep(AggKind kind, const Value& acc, const Value& next, int64_t count_so_far) {
  (void)count_so_far;
  switch (kind) {
    case AggKind::kMin:
      return Value::Compare(next, acc) < 0 ? next : acc;
    case AggKind::kMax:
      return Value::Compare(next, acc) > 0 ? next : acc;
    case AggKind::kCount:
      return Value::Add(acc, Value::Int(1));
    case AggKind::kSum:
    case AggKind::kAvg:
      return Value::Add(acc, next);
  }
  return acc;
}

Value AggFinal(AggKind kind, const Value& acc, int64_t count) {
  if (kind == AggKind::kAvg && count > 0) {
    return Value::Div(acc, Value::Int(count));
  }
  return acc;
}

// --- RuleBody ---

// Working storage of the rule-body activations running on one thread: a
// stack of binding frames and a stack of join snapshots. A head pushed
// downstream can re-enter a body synchronously, so activations nest on the
// call stack and use both stacks strictly last-in first-out. An activation
// addresses its part by offset, since a nested one may grow the storage.
// Between events both stacks are empty: no value outlives its activation.
struct RuleBody::Scratch {
  std::vector<Value> frames;
  std::vector<TuplePtr> matches;
};

Value* RuleBody::Frame(const Activation& a) { return a.scratch->frames.data() + a.base; }

RuleBody::RuleBody(std::string name, PelEnv env, std::vector<BodyOp> ops, size_t event_arity,
                   size_t width, std::string head_name, std::vector<PelProgram> head)
    : Element(std::move(name)),
      vm_(env),
      ops_(std::move(ops)),
      event_arity_(event_arity),
      width_(width),
      head_schema_(InternSchema(head_name)),
      head_(std::move(head)) {
  P2_CHECK(event_arity_ <= width_);
  // Compile every program to register form once, at plan time, and declare
  // every probed index. Eval copies a bare variable's slot without the VM,
  // so the VM's field bound check happens here instead.
  auto lower = [this](const PelProgram& p) {
    p.Lower();
    P2_CHECK(p.LoneField() < static_cast<int>(width_));
  };
  for (const BodyOp& op : ops_) {
    P2_CHECK(op.kind != BodyOp::Kind::kJoin || op.slot + op.arity <= width_);
    P2_CHECK(op.kind != BodyOp::Kind::kAssign || op.slot < width_);
    P2_CHECK(op.keys.size() == op.key_cols.size());
    op.expr.Lower();
    for (const PelProgram& k : op.keys) {
      lower(k);
    }
    if (op.table != nullptr && !op.key_cols.empty()) {
      op.table->AddIndex(op.key_cols);
    }
  }
  for (const PelProgram& p : head_) {
    lower(p);
    head_volatile_ = head_volatile_ || p.Volatile();
  }
}

void RuleBody::set_agg(AggWrapElement* agg) {
  if (!head_volatile_) {
    lazy_agg_ = agg;
    agg_position_ = agg->agg_position();
    P2_CHECK(agg_position_ < head_.size());
  }
}

int RuleBody::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  // The rule driver in front drops events narrower than the event predicate.
  P2_CHECK(t->size() >= event_arity_);
  thread_local Scratch scratch;
  std::vector<Value>& frames = scratch.frames;
  Activation a{&scratch, frames.size()};
  frames.resize(a.base + width_);
  std::copy(t->fields().begin(), t->fields().begin() + static_cast<std::ptrdiff_t>(event_arity_),
            frames.begin() + static_cast<std::ptrdiff_t>(a.base));
  int signal = Run(0, &a, cb);
  frames.resize(a.base);  // nested activations have already popped theirs
  if (a.rows > 0) {
    rows_ += a.rows;
    if (obs_rows_ != nullptr) {
      obs_rows_->Inc(a.rows);
    }
  }
  return signal;
}

int RuleBody::Run(size_t op, Activation* a, const Callback& cb) {
  for (; op < ops_.size(); ++op) {
    const BodyOp& o = ops_[op];
    Value* frame = Frame(*a);
    switch (o.kind) {
      case BodyOp::Kind::kJoin:
        return Join(op, a, cb);
      case BodyOp::Kind::kAntiJoin: {
        bool any;
        if (o.key_cols.empty()) {
          any = o.table->size() > 0;
        } else {
          std::vector<TuplePtr>& matches = a->scratch->matches;
          size_t begin = matches.size();
          o.table->LookupByCols(o.key_cols, EvalKeys(o, frame), &matches);
          any = matches.size() > begin;
          matches.resize(begin);
        }
        if (any) {
          return 1;
        }
        break;
      }
      case BodyOp::Kind::kAssign:
        frame[o.slot] = vm_.Eval(o.expr, frame, width_);
        break;
      case BodyOp::Kind::kFilter:
        if (!vm_.EvalBool(o.expr, frame, width_)) {
          return 1;
        }
        break;
    }
  }
  return EmitHead(Frame(*a), cb);
}

std::vector<Value> RuleBody::EvalKeys(const BodyOp& op, const Value* frame) {
  std::vector<Value> keys;
  keys.reserve(op.keys.size());
  for (const PelProgram& k : op.keys) {
    keys.push_back(Eval(k, frame));
  }
  return keys;
}

int RuleBody::Join(size_t op, Activation* a, const Callback& cb) {
  const BodyOp& o = ops_[op];
  const size_t arity = o.arity;
  // Snapshot the matches on top of the shared stack. A lookup can re-enter
  // bodies (expiry purges notify listeners), which push and pop above it.
  std::vector<TuplePtr>& matches = a->scratch->matches;
  const size_t begin = matches.size();
  std::vector<Value> keys;
  if (o.key_cols.empty()) {
    for (TuplePtr& row : o.table->Scan()) {
      matches.push_back(std::move(row));
    }
  } else {
    keys = EvalKeys(o, Frame(*a));
    o.table->LookupByCols(o.key_cols, keys, &matches);
  }
  const size_t end = matches.size();
  // A self-join's trigger row sits in the frame's leading slots (the event
  // is a row of this table).
  const bool self_join = o.trigger != BodyOp::TriggerRow::kNone;
  bool include_trigger = o.trigger == BodyOp::TriggerRow::kInclude;
  const Value* frame = Frame(*a);
  for (size_t i = 0; i < o.key_cols.size() && include_trigger; ++i) {
    include_trigger = o.key_cols[i] < arity && frame[o.key_cols[i]] == keys[i];
  }
  int signal = 1;
  for (size_t i = begin; i < end; ++i) {
    // The snapshot keeps the row alive while nested activations grow the
    // stack above it; the pointer stays valid, the vector slot may move.
    const Tuple* row = matches[i].get();
    Value* f = Frame(*a);
    if (row->size() != arity ||
        (self_join && std::equal(f, f + arity, row->fields().begin()))) {
      continue;
    }
    std::copy(row->fields().begin(), row->fields().end(), f + o.slot);
    ++a->rows;
    signal &= Run(op + 1, a, cb);
  }
  matches.resize(begin);
  if (include_trigger) {
    Value* f = Frame(*a);
    std::copy(f, f + arity, f + o.slot);
    ++a->rows;
    signal &= Run(op + 1, a, cb);
  }
  return signal;
}

int RuleBody::EmitHead(const Value* frame, const Callback& cb) {
  if (lazy_agg_ != nullptr) {
    Value v = Eval(head_[agg_position_], frame);
    if (lazy_agg_->Offer(v)) {
      CountOut();
      lazy_agg_->Represent(BuildHead(frame, &v));
    }
    return 1;
  }
  return PushOut(0, BuildHead(frame, nullptr), cb);
}

TuplePtr RuleBody::BuildHead(const Value* frame, const Value* agg_value) {
  std::vector<Value> fields;
  fields.reserve(head_.size());
  for (size_t i = 0; i < head_.size(); ++i) {
    if (agg_value != nullptr && i == agg_position_) {
      fields.push_back(*agg_value);
    } else {
      fields.push_back(Eval(head_[i], frame));
    }
  }
  return Tuple::Make(head_schema_, std::move(fields));
}

// --- InsertElement / DeleteElement ---

int InsertElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  (void)cb;
  table_->Insert(t);
  // Delta propagation happens through the table's listeners (so that every
  // writer of the table feeds the same delta stream); nothing to push here.
  return 1;
}

int DeleteElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  (void)cb;
  table_->DeleteMatching(*t);
  return 1;
}

// --- SupportCountElement / CountedRetractElement ---

int SupportCountElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  // Only locally addressed heads are counted: a remotely addressed tuple is
  // stored (and counted, if at all) by the node it ships to, and remove
  // chains are local-only to match.
  if (counting_ && t->size() > 0 && t->field(0).type() == ValueType::kAddr &&
      t->field(0).AsAddr() == local_addr_) {
    counts_->Inc(*t);
  }
  return PushOut(0, t, cb);
}

int CountedRetractElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  (void)cb;
  if (t->size() > 0 && t->field(0).type() == ValueType::kAddr &&
      t->field(0).AsAddr() == local_addr_) {
    counts_->Dec(*t, retracting_);
  }
  return 1;
}

// --- DedupElement ---

int DedupElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  ByteWriter w;
  if (!MarshalTuple(*t, &w)) {
    // No wire signature for an oversize tuple; pass it through undeduped.
    return PushOut(0, t, cb);
  }
  std::string key(reinterpret_cast<const char*>(w.buffer().data()), w.size());
  if (seen_.count(key) > 0) {
    return 1;
  }
  if (seen_.size() >= max_entries_) {
    // Ring eviction of the oldest remembered signatures.
    seen_.erase(order_[next_evict_]);
    order_[next_evict_] = key;
    next_evict_ = (next_evict_ + 1) % max_entries_;
  } else {
    order_.push_back(key);
  }
  seen_.insert(std::move(key));
  return PushOut(0, t, cb);
}

// --- AggWrapElement ---

AggWrapElement::AggWrapElement(std::string name, PelEnv env, AggKind kind, size_t agg_position,
                               std::string out_name, bool emit_empty,
                               std::vector<PelProgram> empty_field_programs)
    : Element(std::move(name)),
      vm_(env),
      kind_(kind),
      agg_position_(agg_position),
      out_schema_(InternSchema(out_name)),
      emit_empty_(emit_empty),
      empty_field_programs_(std::move(empty_field_programs)) {
  for (const PelProgram& p : empty_field_programs_) {
    p.Lower();
  }
}

void AggWrapElement::Begin(const TuplePtr& event) {
  current_event_ = event;
  best_ = nullptr;
  acc_ = Value::Null();
  count_ = 0;
}

int AggWrapElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  (void)cb;
  P2_CHECK(agg_position_ < t->size());
  if (Offer(t->field(agg_position_))) {
    Represent(t);
  }
  return 1;
}

bool AggWrapElement::Offer(const Value& v) {
  if (best_ == nullptr) {
    acc_ = AggInit(kind_, v);
    count_ = 1;
    return true;
  }
  bool wins = false;
  switch (kind_) {
    case AggKind::kMin:
      wins = Value::Compare(v, best_->field(agg_position_)) < 0;
      break;
    case AggKind::kMax:
      wins = Value::Compare(v, best_->field(agg_position_)) > 0;
      break;
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg:
      acc_ = AggStep(kind_, acc_, v, count_);
      break;
  }
  ++count_;
  return wins;
}

void AggWrapElement::Flush() {
  if (best_ == nullptr) {
    if (emit_empty_ && !empty_field_programs_.empty() && current_event_ != nullptr) {
      std::vector<Value> fields;
      fields.reserve(empty_field_programs_.size() + 1);
      for (size_t i = 0; i < empty_field_programs_.size() + 1; ++i) {
        if (i == agg_position_) {
          fields.push_back(Value::Int(0));
        } else {
          size_t pi = i < agg_position_ ? i : i - 1;
          fields.push_back(vm_.Eval(empty_field_programs_[pi], current_event_.get()));
        }
      }
      PushOut(0, Tuple::Make(out_schema_, std::move(fields)));
    }
    current_event_ = nullptr;
    return;
  }
  std::vector<Value> fields = best_->fields();
  if (kind_ == AggKind::kCount || kind_ == AggKind::kSum || kind_ == AggKind::kAvg) {
    fields[agg_position_] = AggFinal(kind_, acc_, count_);
  }
  PushOut(0, Tuple::Make(out_schema_, std::move(fields)));
  best_ = nullptr;
  current_event_ = nullptr;
}

// --- RuleDriver ---

int RuleDriver::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  if (t->size() < min_arity_) {
    ++malformed_;
    if (obs_malformed_ != nullptr) {
      obs_malformed_->Inc();
    }
    return 1;
  }
  ++fires_;
  if (obs_fires_ != nullptr) {
    obs_fires_->Inc();
  }
  // Latency is sampled (every 16th fire) so the steady_clock reads stay off
  // the common path; the histogram is log-scale, so sampling loses little.
  const bool timed = obs_fire_ns_ != nullptr && (fires_ & 0xF) == 0;
  std::chrono::steady_clock::time_point t0;
  if (timed) {
    t0 = std::chrono::steady_clock::now();
  }
  int signal;
  if (agg_ != nullptr) {
    agg_->Begin(t);
    PushOut(0, t, cb);
    agg_->Flush();
    signal = 1;
  } else {
    signal = PushOut(0, t, cb);
  }
  if (timed) {
    obs_fire_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return signal;
}

// --- TableAggWatcher ---

TableAggWatcher::TableAggWatcher(std::string name, Table* table, std::vector<size_t> group_cols,
                                 AggKind kind, size_t agg_col, std::string out_name)
    : Element(std::move(name)),
      table_(table),
      group_cols_(std::move(group_cols)),
      kind_(kind),
      agg_col_(agg_col),
      out_schema_(InternSchema(out_name)) {}

void TableAggWatcher::Attach() {
  // Seed running state from the live rows (Scan purges expired ones first),
  // then subscribe. In practice the planner attaches before any facts are
  // installed, so the table is empty here.
  for (const TuplePtr& row : table_->Scan()) {
    ApplyRow(row, +1);
  }
  table_->AddTypedListener([this](const TableDelta& d) { OnDelta(d); });
}

void TableAggWatcher::OnDelta(const TableDelta& d) {
  pending_.push_back(d);
  if (processing_) {
    return;  // the active invocation drains the queue in arrival order
  }
  processing_ = true;
  while (!pending_.empty()) {
    TableDelta next = std::move(pending_.front());
    pending_.pop_front();
    ProcessDelta(next);
  }
  processing_ = false;
}

void TableAggWatcher::ProcessDelta(const TableDelta& d) {
  switch (d.kind) {
    case TableDelta::Kind::kInsert:
      EmitGroup(ApplyRow(d.tuple, +1));
      break;
    case TableDelta::Kind::kRemove:
      EmitGroup(ApplyRow(d.tuple, -1));
      break;
    case TableDelta::Kind::kReplace: {
      if (d.old_tuple->SameAs(*d.tuple)) {
        return;  // TTL refresh of an identical row: no aggregate change
      }
      std::vector<Value> old_key = ApplyRow(d.old_tuple, -1);
      std::vector<Value> new_key = ApplyRow(d.tuple, +1);
      if (!(old_key == new_key)) {
        EmitGroup(old_key);
      }
      EmitGroup(new_key);
      break;
    }
  }
}

std::vector<Value> TableAggWatcher::ApplyRow(const TuplePtr& row, int sign) {
  std::vector<Value> key = row->KeyOf(group_cols_);
  Value input = agg_col_ < row->size() ? row->field(agg_col_) : Value::Null();
  Group& g = groups_[key];
  g.rows += sign;
  switch (kind_) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (sign > 0) {
        // A fresh group takes the first value as-is, so the accumulator
        // keeps the input's numeric type (int sums stay int).
        g.sum = g.rows == 1 ? input : Value::Add(g.sum, input);
      } else {
        g.sum = Value::Sub(g.sum, input);
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      auto it = g.support.try_emplace(input, 0).first;
      it->second += sign;
      if (it->second <= 0) {
        g.support.erase(it);
      }
      break;
    }
  }
  if (g.rows <= 0) {
    groups_.erase(key);
  }
  return key;
}

void TableAggWatcher::EmitGroup(const std::vector<Value>& key) {
  auto git = groups_.find(key);
  if (git == groups_.end()) {
    // Group vanished: for counts, report 0 so downstream thresholds reset;
    // extremal/sum aggregates have no meaningful "empty" output — just
    // forget them so a future row re-emits.
    auto prev = last_.find(key);
    if (prev == last_.end()) {
      return;
    }
    if (kind_ == AggKind::kCount) {
      std::vector<Value> fields = key;
      fields.push_back(Value::Int(0));
      PushOut(0, Tuple::Make(out_schema_, std::move(fields)));
    }
    last_.erase(prev);
    return;
  }
  const Group& g = git->second;
  Value v;
  switch (kind_) {
    case AggKind::kCount:
      v = Value::Int(g.rows);
      break;
    case AggKind::kSum:
      v = g.sum;
      break;
    case AggKind::kAvg:
      v = Value::Div(g.sum, Value::Int(g.rows));
      break;
    case AggKind::kMin:
      v = g.support.begin()->first;
      break;
    case AggKind::kMax:
      v = g.support.rbegin()->first;
      break;
  }
  auto prev = last_.find(key);
  if (prev != last_.end() && prev->second == v) {
    return;
  }
  last_[key] = v;
  std::vector<Value> fields = key;
  fields.push_back(v);
  PushOut(0, Tuple::Make(out_schema_, std::move(fields)));
}

}  // namespace p2
