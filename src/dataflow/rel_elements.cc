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

// --- FilterElement ---

int FilterElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  if (!vm_.EvalBool(program_, t.get())) {
    return 1;
  }
  return PushOut(0, t, cb);
}

// --- ExtendElement ---

int ExtendElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  Value v = vm_.Eval(program_, t.get());
  std::vector<Value> fields = t->fields();
  fields.push_back(std::move(v));
  return PushOut(0, Tuple::Make(t->schema(), std::move(fields)), cb);
}

// --- ProjectElement ---

int ProjectElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  std::vector<Value> fields;
  fields.reserve(field_programs_.size());
  for (const PelProgram& p : field_programs_) {
    fields.push_back(vm_.Eval(p, t.get()));
  }
  return PushOut(0, Tuple::Make(out_schema_, std::move(fields)), cb);
}

// --- JoinElement ---

JoinElement::JoinElement(std::string name, PelEnv env, Table* table, std::vector<JoinKey> keys,
                         std::string out_name, TriggerRow trigger)
    : Element(std::move(name)),
      vm_(env),
      table_(table),
      keys_(std::move(keys)),
      out_schema_(InternSchema(out_name)),
      trigger_(trigger) {
  for (const JoinKey& k : keys_) {
    k.expr.Lower();
    key_cols_.push_back(k.table_col);
  }
  if (!key_cols_.empty()) {
    table_->AddIndex(key_cols_);
  }
}

int JoinElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  std::vector<Value> key_vals;
  key_vals.reserve(keys_.size());
  for (const JoinKey& k : keys_) {
    key_vals.push_back(vm_.Eval(k.expr, t.get()));
  }
  std::vector<TuplePtr> matches = key_cols_.empty()
                                      ? table_->Scan()
                                      : table_->LookupByCols(key_cols_, key_vals);
  int signal = 1;
  auto emit = [&](const std::vector<Value>& row) {
    std::vector<Value> fields;
    fields.reserve(t->size() + row.size());
    fields.insert(fields.end(), t->fields().begin(), t->fields().end());
    fields.insert(fields.end(), row.begin(), row.end());
    signal &= PushOut(0, Tuple::Make(out_schema_, std::move(fields)), cb);
  };
  if (trigger_ == TriggerRow::kNone) {
    for (const TuplePtr& row : matches) {
      emit(row->fields());
    }
    return signal;
  }
  size_t arity = std::min(t->size(), table_->spec().arity);
  std::vector<Value> trigger(t->fields().begin(),
                             t->fields().begin() + static_cast<std::ptrdiff_t>(arity));
  for (const TuplePtr& row : matches) {
    if (!(row->fields() == trigger)) {
      emit(row->fields());
    }
  }
  bool trigger_matches = trigger_ == TriggerRow::kInclude;
  for (size_t i = 0; i < key_cols_.size() && trigger_matches; ++i) {
    trigger_matches = key_cols_[i] < trigger.size() && trigger[key_cols_[i]] == key_vals[i];
  }
  if (trigger_matches) {
    emit(trigger);
  }
  return signal;
}

// --- AntiJoinElement ---

AntiJoinElement::AntiJoinElement(std::string name, PelEnv env, Table* table,
                                 std::vector<JoinKey> keys)
    : Element(std::move(name)), vm_(env), table_(table), keys_(std::move(keys)) {
  for (const JoinKey& k : keys_) {
    k.expr.Lower();
    key_cols_.push_back(k.table_col);
  }
  if (!key_cols_.empty()) {
    table_->AddIndex(key_cols_);
  }
}

int AntiJoinElement::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  std::vector<Value> key_vals;
  key_vals.reserve(keys_.size());
  for (const JoinKey& k : keys_) {
    key_vals.push_back(vm_.Eval(k.expr, t.get()));
  }
  bool any = key_cols_.empty() ? table_->size() > 0
                               : !table_->LookupByCols(key_cols_, key_vals).empty();
  if (any) {
    return 1;
  }
  return PushOut(0, t, cb);
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
  counts_->Dec(*t, retracting_);
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
  const Value& input = t->field(agg_position_);
  if (best_ == nullptr) {
    best_ = t;
    acc_ = AggInit(kind_, input);
    count_ = 1;
    return 1;
  }
  switch (kind_) {
    case AggKind::kMin:
      if (Value::Compare(input, best_->field(agg_position_)) < 0) {
        best_ = t;
      }
      break;
    case AggKind::kMax:
      if (Value::Compare(input, best_->field(agg_position_)) > 0) {
        best_ = t;
      }
      break;
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg:
      acc_ = AggStep(kind_, acc_, input, count_);
      break;
  }
  ++count_;
  return 1;
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
