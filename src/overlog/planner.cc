#include "src/overlog/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/rel_elements.h"
#include "src/obs/watch.h"
#include "src/overlog/compile_expr.h"
#include "src/p2/node.h"
#include "src/runtime/logging.h"

namespace p2 {
namespace {

struct AggInfo {
  bool present = false;
  size_t head_position = 0;
  AggKind kind = AggKind::kMin;
  std::string var;  // "*" for count<*>
};

bool AggKindFromName(const std::string& name, AggKind* out) {
  if (name == "min") {
    *out = AggKind::kMin;
  } else if (name == "max") {
    *out = AggKind::kMax;
  } else if (name == "count") {
    *out = AggKind::kCount;
  } else if (name == "sum") {
    *out = AggKind::kSum;
  } else if (name == "avg") {
    *out = AggKind::kAvg;
  } else {
    return false;
  }
  return true;
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

std::string ColsToString(const std::vector<size_t>& cols) {
  std::string out = "[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += std::to_string(cols[i]);
  }
  return out + "]";
}

std::string EstToString(double est) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", est);
  return buf;
}

// How a rule variant is driven.
enum class TriggerKind { kPeriodic, kStream, kDeltaInsert, kDeltaRemove };

// True if evaluating `e` twice can give different results (randomness,
// wall-clock). Cost-based reordering changes how many times each body term
// is evaluated per event, which is only sound for pure expressions —
// e.g. gossip's "pick member with max<R>, R := f_rand()" needs one draw
// per joined row, exactly where the rule text puts the assignment.
bool ExprVolatile(const Expr& e) {
  if (e.kind == ExprKind::kCall &&
      (e.name == "f_rand" || e.name == "f_randInt" || e.name == "f_coinFlip" ||
       e.name == "f_now")) {
    return true;
  }
  for (const ExprPtr& a : e.args) {
    if (a != nullptr && ExprVolatile(*a)) {
      return true;
    }
  }
  return false;
}

bool BodyHasVolatileTerm(const RuleAst& rule) {
  for (const BodyTerm& term : rule.body) {
    if (std::holds_alternative<AssignAst>(term)) {
      if (ExprVolatile(*std::get<AssignAst>(term).expr)) {
        return true;
      }
    } else if (std::holds_alternative<ExprPtr>(term)) {
      if (ExprVolatile(*std::get<ExprPtr>(term))) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

// Plans all the rules of one program into a node (friend of P2Node).
// Method-per-concern; the heavy lifting is PlanRuleVariant.
class PlanBuilder {
 public:
  PlanBuilder(const ProgramAst& program, P2Node* node)
      : program_(program),
        node_(node),
        graph_(node->graph_),
        replan_(node->replan_interval_s_ > 0) {}

  bool Run(std::string* err) {
    // Watched predicates: the program's watch() clauses plus any requested
    // at node construction (p2run --watch). Rule plans splice head taps for
    // these as they are built, so collect the set first.
    for (const std::string& w : program_.watches) {
      watched_.insert(w);
    }
    for (const std::string& w : node_->watches_) {
      watched_.insert(w);
    }
    if (!CreateTables(err)) {
      return false;
    }
    FindRecursiveTables();
    for (const RuleAst& rule : program_.rules) {
      if (rule.IsFact()) {
        if (!InstallFact(rule, err)) {
          return false;
        }
        continue;
      }
      if (!PlanRule(rule, err)) {
        return false;
      }
    }
    // Arrival-side taps: every watched tuple this node sees locally —
    // stored into its table ("store") or delivered as a stream event
    // ("recv") — is logged, covering tuples that arrive off the wire and
    // were derived by some other node's rules.
    for (const std::string& w : watched_) {
      const char* point = node_->GetTable(w) != nullptr ? "store" : "recv";
      Executor* executor = node_->executor_;
      std::string addr = node_->addr_;
      node_->Subscribe(w, [executor, addr, point, w](const TuplePtr& t) {
        obs::EmitWatch(obs::FormatWatchLine(executor->Now(), addr, point, w, *t));
      });
    }
    node_->plan_explain_ += explain_;
    return true;
  }

 private:
  PelEnv MakePelEnv() {
    return PelEnv{node_->executor_, &node_->rng_, &node_->addr_};
  }

  std::string Gensym(const std::string& base) {
    return base + "#" + std::to_string(gensym_++);
  }

  // Marks every materialized table that can transitively derive itself
  // through rule dependencies (body table -> materialized head, over any
  // rule shape — pure-table, event-driven, or aggregate, since deltas
  // propagate through all of them). Counting excludes such heads: a
  // retraction that re-derives its own support would oscillate.
  void FindRecursiveTables() {
    std::map<std::string, std::set<std::string>> deps;  // body table -> heads
    for (const RuleAst& rule : program_.rules) {
      if (rule.IsFact() || !program_.IsMaterialized(rule.head.name)) {
        continue;
      }
      for (const BodyTerm& term : rule.body) {
        if (!std::holds_alternative<PredicateAst>(term)) {
          continue;
        }
        const PredicateAst& p = std::get<PredicateAst>(term);
        if (program_.IsMaterialized(p.name)) {
          deps[p.name].insert(rule.head.name);
        }
      }
    }
    for (const auto& [start, unused] : deps) {
      (void)unused;
      // DFS: does `start` reach itself?
      std::set<std::string> seen;
      std::vector<std::string> stack{start};
      bool cyclic = false;
      while (!stack.empty() && !cyclic) {
        std::string at = std::move(stack.back());
        stack.pop_back();
        auto it = deps.find(at);
        if (it == deps.end()) {
          continue;
        }
        for (const std::string& next : it->second) {
          if (next == start) {
            cyclic = true;
            break;
          }
          if (seen.insert(next).second) {
            stack.push_back(next);
          }
        }
      }
      if (cyclic) {
        recursive_tables_.insert(start);
      }
    }
  }

  // Infers each relation's arity from its (consistent) use across rule
  // heads and bodies, Datalog-style. Returns 0 for relations never used.
  bool InferArity(const std::string& name, size_t* arity, std::string* err) {
    *arity = 0;
    auto consider = [&](const PredicateAst& p) {
      if (p.name != name) {
        return true;
      }
      if (*arity == 0) {
        *arity = p.args.size();
      } else if (*arity != p.args.size()) {
        *err = "relation '" + name + "' used with inconsistent arity";
        return false;
      }
      return true;
    };
    for (const RuleAst& rule : program_.rules) {
      if (!consider(rule.head)) {
        return false;
      }
      for (const BodyTerm& term : rule.body) {
        if (std::holds_alternative<PredicateAst>(term) &&
            !consider(std::get<PredicateAst>(term))) {
          return false;
        }
      }
    }
    return true;
  }

  bool CreateTables(std::string* err) {
    for (const MaterializeAst& m : program_.materializations) {
      if (node_->tables_.count(m.name) > 0) {
        *err = "table '" + m.name + "' declared twice";
        return false;
      }
      TableSpec spec;
      spec.name = m.name;
      spec.lifetime_s = m.lifetime_s;
      spec.max_size = m.max_size;
      spec.key_positions = m.key_positions;
      if (!InferArity(m.name, &spec.arity, err)) {
        return false;
      }
      auto table = std::make_unique<Table>(spec, node_->executor_);
      Table* raw = table.get();
      node_->AddTable(m.name, std::move(table));
      // Tuples named after a table that arrive as events (from the network
      // or local loop-back) are stored: demux route -> insert element.
      auto* ins = graph_.Add<InsertElement>(Gensym("insert:" + m.name), raw);
      graph_.Connect(node_->demux_, node_->demux_->PortFor(m.name), ins, 0);
    }
    return true;
  }

  bool InstallFact(const RuleAst& rule, std::string* err) {
    Table* table = FindTable(rule.head.name);
    if (table == nullptr) {
      *err = "fact for non-materialized relation '" + rule.head.name + "'";
      return false;
    }
    std::vector<Value> fields;
    for (const ExprPtr& a : rule.head.args) {
      if (a->kind == ExprKind::kConst) {
        fields.push_back(a->value);
      } else if (a->kind == ExprKind::kVar && a->name == rule.head.locspec) {
        fields.push_back(Value::Addr(node_->addr_));
      } else {
        *err = "fact argument must be a constant or the location variable: " +
               RuleToString(rule);
        return false;
      }
    }
    table->Insert(Tuple::Make(rule.head.name, std::move(fields)));
    return true;
  }

  Table* FindTable(const std::string& name) {
    auto it = node_->tables_.find(name);
    return it == node_->tables_.end() ? nullptr : it->second.get();
  }

  // --- Rule planning ---

  // A chain under construction. Body terms lower to `ops` over a binding
  // frame of `width` slots; FinishChainTail turns them into one RuleBody
  // element and appends the terminal elements after it.
  struct Chain {
    RuleDriver* driver = nullptr;
    Element* tail = nullptr;
    // Output port of `tail` the next element attaches to. Almost always 0;
    // a variant switch fans one branch out of each of its ports.
    int tail_port = 0;
    std::vector<BodyOp> ops;
    size_t event_arity = 0;
    size_t width = 0;
  };

  void Append(Chain* chain, Element* el) {
    graph_.Connect(chain->tail, chain->tail_port, el, 0);
    chain->tail = el;
    chain->tail_port = 0;
  }

  // Lazily creates the per-head-table derivation count store (counting
  // planner); shared by every counted rule deriving into `head`.
  SupportCounts* GetSupportCounts(Table* head) {
    std::unique_ptr<SupportCounts>& slot = node_->support_counts_[head];
    if (slot == nullptr) {
      slot = std::make_unique<SupportCounts>(head);
    }
    return slot.get();
  }

  // Compiles `expr` against `env` into a standalone program (stack form;
  // the receiving element lowers it to register code at construction, so
  // every program in the plan is register-compiled before the first tuple
  // flows).
  bool Compile(const Expr& expr, const VarEnv& env, PelProgram* prog, std::string* err) {
    return CompileExpr(expr, env, prog, err);
  }

  static void AppendFilterOp(Chain* chain, PelProgram prog) {
    BodyOp op;
    op.kind = BodyOp::Kind::kFilter;
    op.expr = std::move(prog);
    chain->ops.push_back(std::move(op));
  }

  // Emits an equality filter: field `pos` == expr(env).
  bool AppendEqFilter(Chain* chain, size_t pos, const Expr& expr, const VarEnv& env,
                      std::string* err) {
    PelProgram prog;
    prog.Emit(PelOp::kPushField, static_cast<uint32_t>(pos));
    if (!Compile(expr, env, &prog, err)) {
      return false;
    }
    prog.Emit(PelOp::kEq);
    AppendFilterOp(chain, std::move(prog));
    return true;
  }

  // Binds the fields of an event predicate occupying positions
  // [0, arity) and appends equality filters for constants / repeated vars.
  bool BindEvent(const PredicateAst& pred, Chain* chain, VarEnv* env, std::string* err,
                 bool skip_constant_checks) {
    for (size_t i = 0; i < pred.args.size(); ++i) {
      const Expr& a = *pred.args[i];
      if (a.kind == ExprKind::kVar) {
        if (a.name == "_") {
          continue;
        }
        auto it = env->find(a.name);
        if (it == env->end()) {
          (*env)[a.name] = i;
        } else if (!AppendEqFilter(chain, i, a, *env, err)) {
          return false;
        }
      } else if (a.kind == ExprKind::kConst) {
        if (skip_constant_checks) {
          continue;  // periodic: generated fields match by construction
        }
        if (!AppendEqFilter(chain, i, a, *env, err)) {
          return false;
        }
      } else {
        *err = "unsupported event argument: " + ExprToString(a);
        return false;
      }
    }
    return true;
  }

  // Table columns an equality probe over `pred` can use given the bindings
  // in `env`: columns holding an already-bound variable or a constant /
  // bound expression. Mirrors the key set AppendTableTerm builds.
  std::vector<size_t> BoundCols(const PredicateAst& pred, const VarEnv& env) {
    std::vector<size_t> cols;
    for (size_t c = 0; c < pred.args.size(); ++c) {
      const Expr& a = *pred.args[c];
      if (a.kind == ExprKind::kVar) {
        if (a.name != "_" && env.count(a.name) > 0) {
          cols.push_back(c);
        }
      } else {
        cols.push_back(c);
      }
    }
    return cols;
  }

  // True when every non-variable argument of `pred` is computable from the
  // current bindings (a variable argument either probes or binds).
  bool PredArgsBound(const PredicateAst& pred, const VarEnv& env) {
    for (const ExprPtr& a : pred.args) {
      if (a->kind != ExprKind::kVar && !ExprBound(*a, env)) {
        return false;
      }
    }
    return true;
  }

  // Appends a join (or anti-join) against a table predicate. A join binds
  // the table row at the chain's current width, which grows by its arity.
  bool AppendTableTerm(const PredicateAst& pred, Chain* chain, VarEnv* env, std::string* err) {
    Table* table = FindTable(pred.name);
    if (table == nullptr) {
      *err = "predicate '" + pred.name + "' joins a non-materialized relation";
      return false;
    }
    BodyOp op;
    op.table = table;
    struct Pending {
      std::string var;
      size_t col;
    };
    std::vector<Pending> new_binds;
    std::vector<std::pair<size_t, size_t>> dup_checks;  // (col, earlier col)
    VarEnv local_new;  // vars first bound within this predicate
    for (size_t c = 0; c < pred.args.size(); ++c) {
      const Expr& a = *pred.args[c];
      if (a.kind == ExprKind::kVar) {
        if (a.name == "_") {
          continue;
        }
        if (env->count(a.name) > 0) {
          PelProgram prog;
          prog.Emit(PelOp::kPushField, static_cast<uint32_t>((*env)[a.name]));
          op.key_cols.push_back(c);
          op.keys.push_back(std::move(prog));
        } else if (local_new.count(a.name) > 0) {
          dup_checks.emplace_back(c, local_new[a.name]);
        } else {
          local_new[a.name] = c;
          new_binds.push_back(Pending{a.name, c});
        }
      } else {
        // Constant or bound expression: equality key.
        PelProgram prog;
        if (!Compile(a, *env, &prog, err)) {
          return false;
        }
        op.key_cols.push_back(c);
        op.keys.push_back(std::move(prog));
      }
    }
    const std::vector<size_t>& key_cols = op.key_cols;
    double est_static = table->EstimateFanoutStatic(key_cols);
    double est_live = table->EstimateFanout(key_cols);
    if (!key_cols.empty()) {
      // The body declares it too; declaring it now lets the replan probe
      // below resolve its handle.
      table->AddIndex(key_cols);
    }
    if (pred.negated) {
      if (!new_binds.empty()) {
        *err = "negated predicate '" + pred.name + "' binds new variables";
        return false;
      }
      explain_ += pad_ + "antijoin " + pred.name + " on " + ColsToString(key_cols) + "\n";
      op.kind = BodyOp::Kind::kAntiJoin;
      chain->ops.push_back(std::move(op));
      return true;  // width unchanged
    }
    op.trigger = TriggerRowFor(pred);
    explain_ += pad_ + "join " + pred.name + " on " + ColsToString(key_cols) +
                " est=" + EstToString(est_static) + " live=" + EstToString(est_live) +
                (op.trigger == BodyOp::TriggerRow::kExclude   ? " -trigger"
                 : op.trigger == BodyOp::TriggerRow::kInclude ? " +trigger"
                                                              : "") +
                "\n";
    if (probe_sink_ != nullptr) {
      // The index was declared above, so the handle resolves now and stays
      // valid (indices are append-only).
      probe_sink_->probes.push_back(ReplanProbe{table, table->IndexHandle(key_cols),
                                                table->PrimaryKeyCovered(key_cols),
                                                est_static});
      if (!probe_sink_->order.empty()) {
        probe_sink_->order += ",";
      }
      probe_sink_->order += pred.name;
    }
    size_t base = chain->width;
    for (const Pending& nb : new_binds) {
      (*env)[nb.var] = base + nb.col;
    }
    chain->width = base + pred.args.size();
    op.kind = BodyOp::Kind::kJoin;
    op.slot = base;
    op.arity = pred.args.size();
    chain->ops.push_back(std::move(op));
    // Repeated fresh variables inside the same predicate: post-join check.
    for (const auto& [col, first_col] : dup_checks) {
      PelProgram prog;
      prog.Emit(PelOp::kPushField, static_cast<uint32_t>(base + col));
      prog.Emit(PelOp::kPushField, static_cast<uint32_t>(base + first_col));
      prog.Emit(PelOp::kEq);
      AppendFilterOp(chain, std::move(prog));
    }
    return true;
  }

  bool AppendAssign(const AssignAst& assign, Chain* chain, VarEnv* env, std::string* err) {
    if (env->count(assign.var) > 0) {
      *err = "assignment to already-bound variable '" + assign.var + "'";
      return false;
    }
    PelProgram prog;
    if (!Compile(*assign.expr, *env, &prog, err)) {
      return false;
    }
    explain_ += pad_ + "assign " + assign.var + "\n";
    BodyOp op;
    op.kind = BodyOp::Kind::kAssign;
    op.slot = chain->width;
    op.expr = std::move(prog);
    chain->ops.push_back(std::move(op));
    (*env)[assign.var] = chain->width;
    chain->width += 1;
    return true;
  }

  bool AppendFilter(const ExprPtr& e, Chain* chain, const VarEnv& env, std::string* err) {
    PelProgram prog;
    if (!Compile(*e, env, &prog, err)) {
      return false;
    }
    explain_ += pad_ + "filter\n";
    AppendFilterOp(chain, std::move(prog));
    return true;
  }

  bool FindAgg(const PredicateAst& head, AggInfo* info, std::string* err) {
    for (size_t i = 0; i < head.args.size(); ++i) {
      if (head.args[i]->kind != ExprKind::kAgg) {
        continue;
      }
      if (info->present) {
        *err = "multiple aggregates in one head";
        return false;
      }
      info->present = true;
      info->head_position = i;
      info->var = head.args[i]->agg_var;
      if (!AggKindFromName(head.args[i]->name, &info->kind)) {
        *err = "unknown aggregate '" + head.args[i]->name + "'";
        return false;
      }
    }
    return true;
  }

  // Attempts to plan a rule whose body is a single materialized predicate
  // and whose head aggregates over the whole table (the paper's
  // "aggregate element over a table", e.g. Chord N3 / S1). Returns true if
  // the pattern matched (with *planned set), false on hard error.
  bool TryTableAggWatcher(const RuleAst& rule, const AggInfo& agg, bool* planned,
                          std::string* err) {
    *planned = false;
    if (rule.body.size() != 1 || !std::holds_alternative<PredicateAst>(rule.body[0])) {
      return true;
    }
    const PredicateAst& pred = std::get<PredicateAst>(rule.body[0]);
    if (pred.negated || pred.name == "periodic") {
      return true;
    }
    Table* table = FindTable(pred.name);
    if (table == nullptr) {
      return true;  // stream-triggered: regular path
    }
    if (agg.head_position != rule.head.args.size() - 1) {
      *err = "table aggregate must be the last head field: " + RuleToString(rule);
      return false;
    }
    // Map head group variables and the aggregate variable to table columns.
    VarEnv cols;
    for (size_t c = 0; c < pred.args.size(); ++c) {
      const Expr& a = *pred.args[c];
      if (a.kind == ExprKind::kVar && a.name != "_" && cols.count(a.name) == 0) {
        cols[a.name] = c;
      }
    }
    std::vector<size_t> group_cols;
    for (size_t i = 0; i + 1 < rule.head.args.size(); ++i) {
      const Expr& h = *rule.head.args[i];
      if (h.kind != ExprKind::kVar || cols.count(h.name) == 0) {
        *err = "table-aggregate head field must be a body variable: " + RuleToString(rule);
        return false;
      }
      group_cols.push_back(cols[h.name]);
    }
    size_t agg_col = 0;
    if (agg.var != "*") {
      if (cols.count(agg.var) == 0) {
        *err = "aggregate variable '" + agg.var + "' not bound by body";
        return false;
      }
      agg_col = cols[agg.var];
    }
    std::string label = rule.id.empty() ? Gensym("rule") : rule.id;
    explain_ += "rule " + label + ": table-aggregate " + AggKindName(agg.kind) + "(" +
                pred.name + ") group=" + ColsToString(group_cols) + " col=" +
                std::to_string(agg_col) + " -> " + rule.head.name + " (incremental)\n";
    auto* watcher = graph_.Add<TableAggWatcher>(Gensym("tableagg:" + rule.head.name), table,
                                                std::move(group_cols), agg.kind, agg_col,
                                                rule.head.name);
    if (WatchTapElement* tap = MaybeHeadTap(rule.head.name, label)) {
      graph_.Connect(watcher, 0, tap, 0);
      graph_.Connect(tap, 0, node_->route_out_, 0);
    } else {
      graph_.Connect(watcher, 0, node_->route_out_, 0);
    }
    watcher->Attach();
    *planned = true;
    return true;
  }

  bool PlanRule(const RuleAst& rule, std::string* err) {
    AggInfo agg;
    if (!FindAgg(rule.head, &agg, err)) {
      return false;
    }
    if (agg.present) {
      bool planned = false;
      if (!TryTableAggWatcher(rule, agg, &planned, err)) {
        return false;
      }
      if (planned) {
        return true;
      }
    }

    // Choose the event predicate: `periodic` wins; else the unique stream
    // predicate; else the body is all-materialized and is delta-triggered.
    int event_idx = -1;
    std::vector<int> table_idxs;  // non-negated materialized body predicates
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!std::holds_alternative<PredicateAst>(rule.body[i])) {
        continue;
      }
      const PredicateAst& p = std::get<PredicateAst>(rule.body[i]);
      if (p.negated) {
        continue;
      }
      if (p.name == "periodic") {
        event_idx = static_cast<int>(i);
        break;
      }
      if (FindTable(p.name) == nullptr) {
        if (event_idx >= 0) {
          *err = "rule " + rule.id + ": more than one stream predicate in body";
          return false;
        }
        event_idx = static_cast<int>(i);
      } else {
        table_idxs.push_back(static_cast<int>(i));
      }
    }
    std::string base_label = rule.id.empty() ? Gensym("rule") : rule.id;
    if (event_idx >= 0) {
      // Event (stream/periodic) rules keep a single trigger: events are
      // instantaneous, not stored, so there is nothing to re-join when a
      // table changes later.
      const PredicateAst& event = std::get<PredicateAst>(rule.body[event_idx]);
      TriggerKind trig = event.name == "periodic" ? TriggerKind::kPeriodic : TriggerKind::kStream;
      return PlanRuleVariant(rule, agg, event_idx, trig, base_label, /*counted=*/false, err);
    }
    if (table_idxs.empty()) {
      *err = "rule " + rule.id + ": no event predicate in body";
      return false;
    }
    if (agg.present) {
      // Per-event AggWrap rules: the bracket semantics are tied to a single
      // triggering event, so only the first table predicate triggers.
      return PlanRuleVariant(rule, agg, table_idxs[0], TriggerKind::kDeltaInsert, base_label,
                             /*counted=*/false, err);
    }
    bool counted = Counted(rule);
    // Semi-naive: a row arriving in ANY body table can complete the join,
    // so each materialized predicate gets its own insert-delta chain.
    std::unordered_set<std::string> used_labels;
    for (size_t v = 0; v < table_idxs.size(); ++v) {
      const PredicateAst& p = std::get<PredicateAst>(rule.body[table_idxs[v]]);
      std::string label = v == 0 ? base_label : base_label + "+" + p.name;
      while (used_labels.count(label) > 0) {
        label += "'";
      }
      used_labels.insert(label);
      if (!PlanRuleVariant(rule, agg, table_idxs[v], TriggerKind::kDeltaInsert, label, counted,
                           err)) {
        return false;
      }
    }
    // Remove path: when the head is itself materialized, a retracted body
    // row un-derives head tuples. Each remove-delta chain re-joins the
    // remaining predicates against current state, projects the head tuple
    // and retracts it locally — retractions propagate as deltas instead of
    // waiting for soft-state expiry. Each decrements the head's support
    // count and deletes the head row at zero.
    if (counted) {
      for (int idx : table_idxs) {
        const PredicateAst& p = std::get<PredicateAst>(rule.body[idx]);
        std::string label = base_label + "-" + p.name;
        while (used_labels.count(label) > 0) {
          label += "'";
        }
        used_labels.insert(label);
        if (!PlanRuleVariant(rule, agg, idx, TriggerKind::kDeltaRemove, label, counted, err)) {
          return false;
        }
      }
    }
    return true;
  }

  // Plans one delta/event variant of a rule: driver, body chain(s), head
  // projection, head routing, event wiring. With adaptive replanning
  // enabled, multi-join chains are lowered once per candidate join order
  // behind a VariantSwitchElement.
  bool PlanRuleVariant(const RuleAst& rule, const AggInfo& agg, int event_idx,
                       TriggerKind trig, const std::string& label, bool counted,
                       std::string* err) {
    const PredicateAst& event = std::get<PredicateAst>(rule.body[event_idx]);
    bool is_periodic = trig == TriggerKind::kPeriodic;
    switch (trig) {
      case TriggerKind::kPeriodic:
        explain_ += "rule " + label + ": trigger periodic\n";
        break;
      case TriggerKind::kStream:
        explain_ += "rule " + label + ": trigger stream(" + event.name + ")\n";
        break;
      case TriggerKind::kDeltaInsert:
        explain_ += "rule " + label + ": trigger delta-insert(" + event.name + ")" +
                    RankNote(rule, counted) + "\n";
        break;
      case TriggerKind::kDeltaRemove:
        explain_ += "rule " + label + ": trigger delta-remove(" + event.name + ")" +
                    RankNote(rule, counted) + "\n";
        break;
    }

    trigger_rule_ = &rule;
    trigger_idx_ =
        trig == TriggerKind::kDeltaInsert || trig == TriggerKind::kDeltaRemove ? event_idx : -1;
    trigger_kind_ = trig;

    // 1. Create the rule driver and bind the event.
    auto* driver = graph_.Add<RuleDriver>("rule:" + label, nullptr);
    driver->set_min_arity(event.args.size());
    node_->rule_drivers_.emplace_back(label, driver);
    Chain chain;
    chain.driver = driver;
    chain.tail = driver;
    chain.event_arity = event.args.size();
    chain.width = event.args.size();
    VarEnv env;
    if (!BindEvent(event, &chain, &env, err, /*skip_constant_checks=*/is_periodic)) {
      return false;
    }
    counters_current_.clear();
    retractors_current_.clear();

    // 2. Remaining body terms.
    std::vector<const BodyTerm*> remaining;
    size_t positive_joins = 0;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (static_cast<int>(i) != event_idx) {
        remaining.push_back(&rule.body[i]);
        if (std::holds_alternative<PredicateAst>(rule.body[i]) &&
            !std::get<PredicateAst>(rule.body[i]).negated) {
          ++positive_joins;
        }
      }
    }
    bool cost_order = !BodyHasVolatileTerm(rule);
    if (!cost_order) {
      explain_ += "    order=source (volatile exprs)\n";
    }

    // With replanning on, a cost-ordered chain with a real ordering choice
    // (≥ 2 positive joins, no per-event aggregate bracket) is lowered once
    // per distinct candidate order behind a switch; otherwise the single
    // greedy chain is built inline.
    if (replan_ && cost_order && !agg.present && positive_joins >= 2) {
      if (!BuildOrderVariants(rule, agg, trig, label, counted, remaining, &chain, env, err)) {
        return false;
      }
    } else {
      if (!LowerBody(rule, remaining, cost_order, nullptr, &chain, &env, err)) {
        return false;
      }
      if (!FinishChainTail(rule, agg, &event, trig, label, counted, &chain, env, err)) {
        return false;
      }
    }

    // 5. Event source wiring.
    return WireEvent(rule, event, trig, is_periodic, counted, driver, err);
  }

  // Lowers every distinct candidate join order as its own fully built body
  // chain off one VariantSwitchElement, recording per-variant probe
  // sequences for the replan loop. Branch 0 is the greedy static order and
  // starts active. Every branch's body starts with the ops lowered so far
  // (the event's equality filters).
  bool BuildOrderVariants(const RuleAst& rule, const AggInfo& agg, TriggerKind trig,
                          const std::string& label, bool counted,
                          const std::vector<const BodyTerm*>& remaining, Chain* chain,
                          const VarEnv& env, std::string* err) {
    // Candidate orders: greedy, plus greedy-with-forced-first for every
    // other join that could legally run first. Deduplicate by the positive
    // join sequence; cap at kMaxOrderVariants fully lowered branches.
    std::vector<const PredicateAst*> greedy_seq;
    if (!SimulateOrder(remaining, env, nullptr, &greedy_seq)) {
      *err = "rule " + rule.id + ": cannot order body terms (unbound variables)";
      return false;
    }
    std::vector<const PredicateAst*> forces{nullptr};
    std::vector<std::vector<const PredicateAst*>> seqs{greedy_seq};
    for (const BodyTerm* term : remaining) {
      if (static_cast<int>(forces.size()) >= kMaxOrderVariants) {
        break;
      }
      if (!std::holds_alternative<PredicateAst>(*term)) {
        continue;
      }
      const PredicateAst* p = &std::get<PredicateAst>(*term);
      if (p->negated || p == greedy_seq.front()) {
        continue;
      }
      std::vector<const PredicateAst*> seq;
      if (!SimulateOrder(remaining, env, p, &seq)) {
        continue;  // can't run first (would leave variables unbound)
      }
      if (std::find(seqs.begin(), seqs.end(), seq) != seqs.end()) {
        continue;
      }
      forces.push_back(p);
      seqs.push_back(std::move(seq));
    }
    if (forces.size() < 2) {
      // No real alternative: build the single greedy chain inline.
      Chain single = *chain;
      VarEnv benv = env;
      if (!LowerBody(rule, remaining, /*by_cost=*/true, nullptr, &single, &benv, err)) {
        return false;
      }
      return FinishChainTail(rule, agg, nullptr, trig, label, counted, &single, benv, err);
    }
    auto* sw = graph_.Add<VariantSwitchElement>(Gensym("plansel:" + label));
    Append(chain, sw);
    ReplanEntry entry;
    entry.label = label;
    entry.sw = sw;
    for (size_t k = 0; k < forces.size(); ++k) {
      Chain branch = *chain;
      branch.tail_port = static_cast<int>(k);
      VarEnv benv = env;
      if (k > 0) {
        explain_ += "    alt-plan " + std::to_string(k) + ":\n";
        pad_ = "      ";
      }
      ReplanVariant variant;
      probe_sink_ = &variant;
      bool ok = LowerBody(rule, remaining, /*by_cost=*/true, forces[k], &branch, &benv, err) &&
                FinishChainTail(rule, agg, nullptr, trig, label, counted, &branch, benv, err);
      probe_sink_ = nullptr;
      pad_ = "    ";
      if (!ok) {
        return false;
      }
      entry.variants.push_back(std::move(variant));
    }
    node_->replan_.AddEntry(std::move(entry));
    return true;
  }

  // The positive-join sequence LowerBody would produce with `force_first`
  // (when non-null) pinned as the first join, without building elements.
  // False when no legal order exists or the forced join cannot run first.
  bool SimulateOrder(const std::vector<const BodyTerm*>& terms, VarEnv env,
                     const PredicateAst* force_first,
                     std::vector<const PredicateAst*>* join_seq) {
    return WalkBody(terms, &env, /*by_cost=*/true, force_first, [&](const BodyTerm& term) {
      const auto* p = std::get_if<PredicateAst>(&term);
      if (p != nullptr && !p->negated) {
        join_seq->push_back(p);
      }
      Bind(term, &env);
      return true;
    });
  }

  // Steps 3 + 4 of rule planning: the rule body (the lowered ops plus the
  // head projection) as one element, then the aggregation bracket, watch
  // tap, head routing / retraction. Run once per body chain (so each order
  // variant carries its own body and tail).
  bool FinishChainTail(const RuleAst& rule, const AggInfo& agg, const PredicateAst* event,
                       TriggerKind trig, const std::string& label, bool counted, Chain* chain,
                       const VarEnv& env, std::string* err) {
    // 3. Head projection (+ aggregation).
    std::vector<PelProgram> head_programs;
    for (const ExprPtr& a : rule.head.args) {
      PelProgram prog;
      if (a->kind == ExprKind::kAgg) {
        if (a->agg_var == "*") {
          prog.Emit(PelOp::kPushConst, prog.AddConst(Value::Int(1)));
        } else {
          auto it = env.find(a->agg_var);
          if (it == env.end()) {
            *err = "aggregate variable '" + a->agg_var + "' unbound in rule " + rule.id;
            return false;
          }
          prog.Emit(PelOp::kPushField, static_cast<uint32_t>(it->second));
        }
      } else if (!Compile(*a, env, &prog, err)) {
        *err = "rule " + rule.id + ": " + *err;
        return false;
      }
      head_programs.push_back(std::move(prog));
    }
    auto* body = graph_.Add<RuleBody>("body:" + label, MakePelEnv(), std::move(chain->ops),
                                      chain->event_arity, chain->width, rule.head.name,
                                      std::move(head_programs));
    Append(chain, body);

    if (agg.present) {
      P2_CHECK(event != nullptr);  // agg rules never build order variants
      // Empty-group emission (count<*> over zero matches) requires every
      // group field to be computable from the event alone.
      VarEnv event_env;
      for (size_t i = 0; i < event->args.size(); ++i) {
        const Expr& a = *event->args[i];
        if (a.kind == ExprKind::kVar && a.name != "_" && event_env.count(a.name) == 0) {
          event_env[a.name] = i;
        }
      }
      bool emit_empty = agg.kind == AggKind::kCount;
      std::vector<PelProgram> empty_programs;
      if (emit_empty) {
        for (size_t i = 0; i < rule.head.args.size(); ++i) {
          if (i == agg.head_position) {
            continue;
          }
          PelProgram prog;
          std::string dummy;
          if (!Compile(*rule.head.args[i], event_env, &prog, &dummy)) {
            emit_empty = false;
            empty_programs.clear();
            break;
          }
          empty_programs.push_back(std::move(prog));
        }
      }
      explain_ += pad_ + "aggwrap " + AggKindName(agg.kind) + "\n";
      auto* aggwrap = graph_.Add<AggWrapElement>(Gensym("aggwrap:" + rule.head.name),
                                                 MakePelEnv(), agg.kind, agg.head_position,
                                                 rule.head.name, emit_empty,
                                                 std::move(empty_programs));
      Append(chain, aggwrap);
      body->set_agg(aggwrap);
      chain->driver->set_agg(aggwrap);
    }

    // 4. Head routing. A watched head gets its tap here — after projection,
    // before routing — so every derivation is logged exactly once with the
    // producing rule variant's label.
    if (WatchTapElement* tap = MaybeHeadTap(rule.head.name, label)) {
      Append(chain, tap);
    }
    if (trig == TriggerKind::kDeltaRemove) {
      Table* head_table = FindTable(rule.head.name);
      P2_CHECK(head_table != nullptr);  // caller builds remove variants only then
      // Retraction only un-derives rows stored on this node (the retractor
      // skips remote heads).
      auto* retractor = graph_.Add<CountedRetractElement>(
          Gensym("countretract:" + rule.head.name), GetSupportCounts(head_table), node_->addr_);
      Append(chain, retractor);
      retractors_current_.push_back(retractor);
      explain_ += pad_ + "project " + rule.head.name + " -> retract-count (local)\n";
    } else if (rule.delete_head) {
      Table* table = FindTable(rule.head.name);
      if (table == nullptr) {
        *err = "delete head on non-materialized relation '" + rule.head.name + "'";
        return false;
      }
      Append(chain, graph_.Add<DeleteElement>(Gensym("delete:" + rule.head.name), table));
      explain_ += pad_ + "project " + rule.head.name + " -> delete\n";
    } else if (counted && trig == TriggerKind::kDeltaInsert) {
      Table* head_table = FindTable(rule.head.name);
      P2_CHECK(head_table != nullptr);  // counted implies materialized head
      auto* counter = graph_.Add<SupportCountElement>(Gensym("count:" + rule.head.name),
                                                      GetSupportCounts(head_table),
                                                      node_->addr_);
      Append(chain, counter);
      counters_current_.push_back(counter);
      graph_.Connect(chain->tail, chain->tail_port, node_->route_out_, 0);
      explain_ += pad_ + "project " + rule.head.name + " -> count+route\n";
    } else {
      graph_.Connect(chain->tail, chain->tail_port, node_->route_out_, 0);
      explain_ += pad_ + "project " + rule.head.name + " -> route\n";
    }
    return true;
  }

  // Step 5 of rule planning: connects the rule driver to its event source.
  // Runs once per rule variant, after every body chain is built, so the
  // counting listeners capture the full set of per-branch mode elements.
  bool WireEvent(const RuleAst& rule, const PredicateAst& event, TriggerKind trig,
                 bool is_periodic, bool counted, RuleDriver* driver, std::string* err) {
    if (is_periodic) {
      double period = 0;
      uint64_t count = 0;
      if (event.args.size() < 3 || event.args[2]->kind != ExprKind::kConst) {
        *err = "rule " + rule.id + ": periodic() needs a literal period";
        return false;
      }
      period = event.args[2]->value.AsDouble();
      if (event.args.size() >= 4) {
        if (event.args[3]->kind != ExprKind::kConst) {
          *err = "rule " + rule.id + ": periodic() repeat count must be literal";
          return false;
        }
        count = static_cast<uint64_t>(event.args[3]->value.AsInt());
      }
      std::vector<Value> extras;
      for (size_t i = 2; i < event.args.size(); ++i) {
        extras.push_back(event.args[i]->value);
      }
      auto* src = graph_.Add<PeriodicSource>(Gensym("periodic"), node_->executor_,
                                             &node_->rng_, node_->addr_, period, count,
                                             /*initial_delay=*/0.0, std::move(extras));
      graph_.Connect(src, 0, driver, 0);
      node_->periodics_.push_back(src);
    } else if (trig == TriggerKind::kDeltaInsert) {
      Table* table = FindTable(event.name);
      P2_CHECK(table != nullptr);
      if (counted) {
        // Counting listener: a genuinely new body row (insert, or replace
        // that changed content) derives NEW supports; a TTL refresh of an
        // identical row re-derives the head — the refresh must propagate —
        // without touching counts. The mode is save/restored around the
        // synchronous push so re-entrant deltas nest correctly.
        std::vector<SupportCountElement*> counters = std::move(counters_current_);
        counters_current_.clear();
        P2_CHECK(!counters.empty());
        table->AddTypedListener([driver, counters](const TableDelta& d) {
          if (d.kind == TableDelta::Kind::kRemove) {
            return;
          }
          bool fresh = d.kind == TableDelta::Kind::kInsert ||
                       (d.old_tuple != nullptr && !d.old_tuple->SameAs(*d.tuple));
          bool saved = counters.front()->counting();
          for (SupportCountElement* c : counters) {
            c->set_counting(fresh);
          }
          driver->Push(0, d.tuple, nullptr);
          for (SupportCountElement* c : counters) {
            c->set_counting(saved);
          }
        }, CountedLevel(rule));
      } else {
        table->AddDeltaListener([driver](const TuplePtr& t) { driver->Push(0, t, nullptr); });
      }
    } else if (trig == TriggerKind::kDeltaRemove) {
      Table* table = FindTable(event.name);
      P2_CHECK(table != nullptr);
      // Counting remove listener. Three retraction sources: real removals
      // (delete/eviction) retract-and-delete-at-zero; a replace that
      // changed content retracts the OLD row's derivations (the insert
      // listener, attached earlier, already counted the new ones — inc
      // before dec, so a row passing through the same key never dips to
      // zero transiently); TTL expiry decrements WITHOUT deleting, so
      // counts track live supports exactly while expiry stays
      // non-retracting.
      std::vector<CountedRetractElement*> retractors = std::move(retractors_current_);
      retractors_current_.clear();
      P2_CHECK(!retractors.empty());
      table->AddTypedListener([driver, retractors](const TableDelta& d) {
        TuplePtr gone;
        bool retract = true;
        if (d.kind == TableDelta::Kind::kRemove) {
          gone = d.tuple;
          retract = d.cause != TableDelta::Cause::kExpiry;
        } else if (d.kind == TableDelta::Kind::kReplace && d.old_tuple != nullptr &&
                   !d.old_tuple->SameAs(*d.tuple)) {
          gone = d.old_tuple;
        } else {
          return;
        }
        bool saved = retractors.front()->retracting();
        for (CountedRetractElement* r : retractors) {
          r->set_retracting(retract);
        }
        driver->Push(0, gone, nullptr);
        for (CountedRetractElement* r : retractors) {
          r->set_retracting(saved);
        }
      }, CountedLevel(rule));
    } else {
      // Stream event: demux -> (shared per-name dup) -> driver.
      DupElement*& dup = node_->event_dups_[event.name];
      if (dup == nullptr) {
        dup = graph_.Add<DupElement>(Gensym("dup:" + event.name));
        graph_.Connect(node_->demux_, node_->demux_->PortFor(event.name), dup, 0);
      }
      graph_.Connect(dup, static_cast<int>(dup->num_outputs()), driver, 0);
    }
    return true;
  }

  // True when `term` can run under `env`: every variable it reads is bound.
  // Positive joins bind rather than read, so they count only with `joins`.
  bool CanRun(const BodyTerm& term, const VarEnv& env, bool joins) {
    if (const auto* p = std::get_if<PredicateAst>(&term)) {
      if (!p->negated) {
        return joins;
      }
      for (const ExprPtr& a : p->args) {
        if (a->kind == ExprKind::kVar && a->name != "_" && env.count(a->name) == 0) {
          return false;
        }
      }
      return true;
    }
    if (const auto* assign = std::get_if<AssignAst>(&term)) {
      return ExprBound(*assign->expr, env);
    }
    return ExprBound(*std::get<ExprPtr>(term), env);
  }

  // Marks the variables `term` binds (membership only: SimulateOrder).
  void Bind(const BodyTerm& term, VarEnv* env) {
    if (const auto* assign = std::get_if<AssignAst>(&term)) {
      env->emplace(assign->var, 0);
    } else if (const auto* p = std::get_if<PredicateAst>(&term); p != nullptr && !p->negated) {
      for (const ExprPtr& a : p->args) {
        if (a->kind == ExprKind::kVar && a->name != "_") {
          env->emplace(a->name, 0);
        }
      }
    }
  }

  // The next body term to lower, or -1 when none can run. In source order
  // (rules with volatile expressions) the first term that can run wins. By
  // cost, selective cheap terms (filters, assignments, anti-joins) run, in
  // source order, as soon as their variables are bound; otherwise the
  // positive join with the smallest estimated fanout runs next (ties:
  // source order), so the narrowest probe runs first and intermediate
  // results stay small. `force_first`, when set, is that join instead.
  int NextTerm(const std::vector<const BodyTerm*>& remaining, const VarEnv& env, bool by_cost,
               const PredicateAst* force_first) {
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (CanRun(*remaining[i], env, /*joins=*/!by_cost)) {
        return static_cast<int>(i);
      }
    }
    int best = -1;
    double best_est = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < remaining.size() && by_cost; ++i) {
      const auto* p = std::get_if<PredicateAst>(remaining[i]);
      if (p == nullptr || p->negated || !PredArgsBound(*p, env) ||
          (force_first != nullptr && p != force_first)) {
        continue;
      }
      Table* table = FindTable(p->name);
      double est = table == nullptr ? std::numeric_limits<double>::max()
                                    : table->EstimateFanout(BoundCols(*p, env));
      if (est < best_est) {
        best_est = est;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  // Visits `terms` in lowering order (see NextTerm). `visit` must bind the
  // term's variables into *env. False when some term can never run, or
  // when `visit` fails.
  bool WalkBody(std::vector<const BodyTerm*> remaining, VarEnv* env, bool by_cost,
                const PredicateAst* force_first,
                const std::function<bool(const BodyTerm&)>& visit) {
    while (!remaining.empty()) {
      int next = NextTerm(remaining, *env, by_cost, force_first);
      if (next < 0) {
        return false;
      }
      const BodyTerm& term = *remaining[next];
      if (std::holds_alternative<PredicateAst>(term) && !std::get<PredicateAst>(term).negated) {
        force_first = nullptr;  // only the first join is pinned
      }
      remaining.erase(remaining.begin() + next);
      if (!visit(term)) {
        return false;
      }
    }
    return true;
  }

  // Lowers the remaining body terms onto `chain` in WalkBody order.
  bool LowerBody(const RuleAst& rule, const std::vector<const BodyTerm*>& terms, bool by_cost,
                 const PredicateAst* force_first, Chain* chain, VarEnv* env, std::string* err) {
    bool applied = true;
    if (WalkBody(terms, env, by_cost, force_first, [&](const BodyTerm& term) {
          return applied = ApplyTerm(term, chain, env, err);
        })) {
      return true;
    }
    if (applied) {
      *err = "rule " + rule.id + ": cannot order body terms (unbound variables)";
    }
    return false;
  }

  bool ApplyTerm(const BodyTerm& term, Chain* chain, VarEnv* env, std::string* err) {
    if (std::holds_alternative<PredicateAst>(term)) {
      return AppendTableTerm(std::get<PredicateAst>(term), chain, env, err);
    }
    if (std::holds_alternative<AssignAst>(term)) {
      return AppendAssign(std::get<AssignAst>(term), chain, env, err);
    }
    return AppendFilter(std::get<ExprPtr>(term), chain, *env, err);
  }

  // How a join of the current delta variant treats its trigger row (see
  // BodyOp::TriggerRow). Only self-joins need care: each derivation is
  // credited to the FIRST body position holding the trigger row. After an
  // insert the table already holds it, so earlier positions skip it; after
  // a removal it is gone, so later positions must still match it.
  BodyOp::TriggerRow TriggerRowFor(const PredicateAst& pred) const {
    if (trigger_idx_ < 0 ||
        pred.name != std::get<PredicateAst>(trigger_rule_->body[trigger_idx_]).name) {
      return BodyOp::TriggerRow::kNone;
    }
    int idx = 0;
    while (std::get_if<PredicateAst>(&trigger_rule_->body[idx]) != &pred) {
      ++idx;
    }
    if (trigger_kind_ == TriggerKind::kDeltaInsert) {
      return idx < trigger_idx_ ? BodyOp::TriggerRow::kExclude : BodyOp::TriggerRow::kNone;
    }
    return idx < trigger_idx_ ? BodyOp::TriggerRow::kNone : BodyOp::TriggerRow::kInclude;
  }

  // Support counting: with per-head-row derivation counts a retracted
  // support decrements and deletes only at zero, so EVERY pure-table rule
  // with a materialized head — including projected-support shapes like
  // Chord's pingNode :- succ — gets remove chains. Volatile bodies stay
  // uncounted (re-deriving the retracted head is not reproducible), and so
  // do heads in a table-dependency cycle: counting is only sound for
  // non-recursive strata — a cyclic retract/re-derive (e.g. through an
  // aggregate that feeds its own support table) would oscillate forever.
  // Uncounted rules get no remove chains; their heads age out by TTL.
  bool Counted(const RuleAst& rule) {
    bool pure_table = !rule.IsFact() && !rule.delete_head;
    for (const ExprPtr& a : rule.head.args) {
      pure_table = pure_table && a->kind != ExprKind::kAgg;
    }
    for (const BodyTerm& term : rule.body) {
      const auto* p = std::get_if<PredicateAst>(&term);
      pure_table = pure_table && (p == nullptr || p->negated || FindTable(p->name) != nullptr);
    }
    return pure_table && FindTable(rule.head.name) != nullptr && !BodyHasVolatileTerm(rule) &&
           recursive_tables_.count(rule.head.name) == 0 && SelfJoinsKeyWholeRows(rule);
  }

  // A counted rule's listeners fire before those of the counted rules it
  // reads from, on every table both read: each delta then reaches a reader
  // before the head rows it causes do, so every derivation is counted and
  // retracted exactly once. Rules reading no counted head are level 0;
  // the rest sit one level above the highest rule they read from.
  int CountedLevel(const RuleAst& rule) {
    auto it = counted_levels_.find(&rule);
    if (it != counted_levels_.end()) {
      return it->second;
    }
    int level = 0;
    for (const BodyTerm& term : rule.body) {
      const auto* p = std::get_if<PredicateAst>(&term);
      for (const RuleAst& other : program_.rules) {
        if (p != nullptr && other.head.name == p->name && Counted(other)) {
          level = std::max(level, 1 + CountedLevel(other));
        }
      }
    }
    counted_levels_[&rule] = level;
    return level;
  }

  std::string RankNote(const RuleAst& rule, bool counted) {
    int level = counted ? CountedLevel(rule) : 0;
    return level > 0 ? " rank=" + std::to_string(level) : "";
  }

  // A table read at several body positions must be keyed on its whole row
  // (location aside): a content-changing replace would leave the old and
  // the new row in one self-join combination, which no chain can retract.
  // True when every table the rule's body reads more than once is keyed on
  // all its columns but the location, so replaces never change a row.
  bool SelfJoinsKeyWholeRows(const RuleAst& rule) {
    std::map<std::string, int> reads;
    for (const BodyTerm& term : rule.body) {
      const auto* p = std::get_if<PredicateAst>(&term);
      if (p == nullptr || p->negated || ++reads[p->name] < 2) {
        continue;
      }
      const TableSpec& spec = FindTable(p->name)->spec();
      std::set<size_t> key(spec.key_positions.begin(), spec.key_positions.end());
      for (size_t c = 1; c < spec.arity && !spec.key_positions.empty(); ++c) {
        if (key.count(c) == 0) {
          return false;
        }
      }
    }
    return true;
  }

  // Builds a head-side tap for `pred` when it is watched, or returns null.
  // `label` is the producing rule's chain label, so watch output attributes
  // every tuple to the exact rule variant that derived it.
  WatchTapElement* MaybeHeadTap(const std::string& pred, const std::string& label) {
    if (watched_.count(pred) == 0) {
      return nullptr;
    }
    explain_ += "    watch tap on head " + pred + "\n";
    return graph_.Add<WatchTapElement>(Gensym("watch:" + pred), node_->executor_,
                                       node_->addr_, "head", label);
  }

  const ProgramAst& program_;
  P2Node* node_;
  Graph& graph_;
  // Adaptive replanning: lower alternate join orders when the
  // node is configured with a replan interval.
  const bool replan_;
  // Explain indentation: deepened to six spaces inside alt-plan branches.
  std::string pad_ = "    ";
  // When non-null, AppendTableTerm records each join's probe into this
  // variant (alternate-order lowering).
  ReplanVariant* probe_sink_ = nullptr;
  // Mode elements built by the CURRENT rule variant's chains; WireEvent
  // moves them into the event listeners' closures.
  std::vector<SupportCountElement*> counters_current_;
  std::vector<CountedRetractElement*> retractors_current_;
  // At most this many fully lowered join orders per chain: the greedy
  // static order plus up to two forced-first alternates.
  static constexpr int kMaxOrderVariants = 3;
  // The rule variant being lowered, and its delta trigger's body position
  // (-1 for stream and periodic triggers).
  const RuleAst* trigger_rule_ = nullptr;
  int trigger_idx_ = -1;
  TriggerKind trigger_kind_ = TriggerKind::kPeriodic;
  std::map<const RuleAst*, int> counted_levels_;
  // Tables in a rule-dependency cycle: their rules fall back to TTL decay
  // instead of counted retraction (non-recursive strata only).
  std::set<std::string> recursive_tables_;
  std::string explain_;
  std::set<std::string> watched_;
  int gensym_ = 0;
};

bool Planner::Install(const ProgramAst& program, P2Node* node, std::string* err) {
  PlanBuilder builder(program, node);
  return builder.Run(err);
}

}  // namespace p2
