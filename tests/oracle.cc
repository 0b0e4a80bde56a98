#include "tests/oracle.h"

#include <cmath>
#include <deque>
#include <functional>
#include <set>
#include <variant>

namespace p2::oracle {
namespace {

using RowSet = std::set<Row>;  // ordered by Value::Compare, field by field
using Db = std::map<std::string, RowSet>;
using Env = std::map<std::string, Value>;

// Evaluates `e` under `env`; false on an unbound variable or operator.
bool Eval(const Expr& e, const Env& env, Value* out) {
  // Accepted signs of Value::Compare: bit 0 less, bit 1 equal, bit 2 greater.
  static const std::map<std::string, int> kCompare = {{"<", 1}, {"==", 2}, {"<=", 3},
                                                      {">", 4}, {"!=", 5}, {">=", 6}};
  Value a, b;
  if (e.kind == ExprKind::kConst || e.kind == ExprKind::kVar) {
    auto it = env.find(e.name);
    *out = e.kind == ExprKind::kConst ? e.value : it == env.end() ? Value() : it->second;
    return e.kind == ExprKind::kConst || it != env.end();
  }
  if (e.kind != ExprKind::kBinary || !Eval(*e.args[0], env, &a) || !Eval(*e.args[1], env, &b)) {
    return false;
  }
  auto cmp = kCompare.find(e.name);
  int c = Value::Compare(a, b);
  *out = Value::Bool(cmp != kCompare.end() && (cmp->second & (c < 0 ? 1 : c == 0 ? 2 : 4)) != 0);
  return cmp != kCompare.end();
}

// Unifies `pred` with `row`, binding its fresh variables into *env.
bool Match(const PredicateAst& pred, const Row& row, Env* env) {
  bool ok = row.size() == pred.args.size();
  for (size_t i = 0; ok && i < row.size(); ++i) {
    const Expr& a = *pred.args[i];
    Value v = row[i];
    if (a.kind == ExprKind::kVar && a.name != "_") {
      v = env->emplace(a.name, row[i]).first->second;  // row[i] when fresh
    } else if (a.kind != ExprKind::kVar) {
      ok = Eval(a, *env, &v);
    }
    ok = ok && v == row[i];
  }
  return ok;
}

Row KeyOf(const MaterializeAst& table, const Row& row) {
  Row key;
  for (size_t pos : table.key_positions) {
    key.push_back(row.at(pos));
  }
  return table.key_positions.empty() ? row : key;
}

class Oracle {
 public:
  // Sorts the rules into pure-table and stream-triggered ones.
  explicit Oracle(const ProgramAst& program) {
    for (const MaterializeAst& m : program.materializations) {
      tables_[m.name] = &m;
      stored_[m.name];
      Require(std::isinf(m.lifetime_s), "finite lifetime on " + m.name);
    }
    for (const RuleAst& rule : program.rules) {
      std::string text = RuleToString(rule);
      Require(!rule.IsFact() && !rule.delete_head, "fact or delete rule: " + text);
      const PredicateAst* event = nullptr;
      for (const BodyTerm& term : rule.body) {
        const auto* p = std::get_if<PredicateAst>(&term);
        if (p != nullptr && (p->negated || tables_.count(p->name) == 0)) {
          Require(!p->negated && p->name != "periodic" && event == nullptr,
                  "unsupported body predicate: " + text);
          event = p;
        }
      }
      for (const ExprPtr& a : rule.head.args) {
        Require(a->kind != ExprKind::kAgg || (event == nullptr && a->name != "avg"),
                "unsupported aggregate: " + text);
      }
      Require(event != nullptr || tables_.count(rule.head.name) > 0,
              "pure-table rule with a stream head: " + text);
      rules_.emplace_back(event == nullptr ? "" : event->name, &rule);
    }
  }

  Result Run(const std::vector<Step>& steps) {
    for (const Step& step : steps) {
      Apply(step);
    }
    for (const auto& [name, rows] : View()) {
      result_.tables[name].assign(rows.begin(), rows.end());
    }
    result_.error = error_;
    return result_;
  }

 private:
  void Require(bool ok, const std::string& msg) {
    if (!ok && error_.empty()) {
      error_ = msg;
    }
  }

  void Apply(const Step& step) {
    if (step.kind == Step::Kind::kInject && tables_.count(step.rel) == 0) {
      Inject(step.rel, step.fields);
      return;
    }
    const MaterializeAst& table = *tables_.at(step.rel);
    RowSet& rows = stored_[step.rel];
    Row key = step.kind == Step::Kind::kDelete ? step.fields : KeyOf(table, step.fields);
    for (auto it = rows.begin(); it != rows.end();) {
      it = KeyOf(table, *it) == key ? rows.erase(it) : std::next(it);
    }
    if (step.kind != Step::Kind::kDelete) {
      rows.insert(step.fields);
    }
    dirty_ = true;
  }

  // Stored rows plus the least fixpoint of the pure-table rules: every round
  // re-derives every rule over the last. Replacement among derived rows and
  // capacity eviction are not modelled, so the fixpoint must need neither.
  const Db& View() {
    if (!dirty_) {
      return view_;
    }
    view_ = stored_;
    for (int round = 0; dirty_ && error_.empty(); ++round) {
      Require(round < 1000, "no fixpoint within 1000 rounds");
      Db next = stored_;
      for (const auto& [event, rule] : rules_) {
        for (Row& head : event.empty() ? Heads(*rule, view_) : std::vector<Row>{}) {
          next[rule->head.name].insert(std::move(head));
        }
      }
      dirty_ = !(next == view_);
      view_ = std::move(next);
    }
    for (const auto& [rel, rows] : view_) {
      RowSet keys;
      for (const Row& row : rows) {
        Require(keys.insert(KeyOf(*tables_[rel], row)).second, "derived key clash in " + rel);
      }
      Require(rows.size() <= tables_[rel]->max_size, "eviction in " + rel);
    }
    return view_;
  }

  // Runs one injected stream tuple and the stream heads it causes, FIFO.
  void Inject(const std::string& rel, const Row& row) {
    std::deque<std::pair<std::string, Row>> queue{{rel, row}};
    while (!queue.empty() && error_.empty()) {
      Require(result_.streams.size() < 100000, "stream cascade does not quiesce");
      auto [name, tuple] = std::move(queue.front());
      queue.pop_front();
      Db db = View();
      db[name] = RowSet{tuple};
      for (const auto& [event, rule] : rules_) {
        for (Row& head : event == name ? Heads(*rule, db) : std::vector<Row>{}) {
          if (tables_.count(rule->head.name) > 0) {
            Apply(Step{Step::Kind::kInsert, rule->head.name, std::move(head)});
          } else {
            result_.streams.emplace_back(rule->head.name, head);
            queue.emplace_back(rule->head.name, std::move(head));
          }
        }
      }
    }
  }

  // Every head `rule` derives over `db`, one per body binding; an aggregate
  // head folds the bindings of each group into one row.
  std::vector<Row> Heads(const RuleAst& rule, const Db& db) {
    std::vector<Row> out;
    std::map<Row, Value> groups;
    size_t agg = rule.head.args.size();
    Solve(rule.body, 0, db, Env{}, [&](const Env& env) {
      Row row(rule.head.args.size());
      Value in = Value::Int(1);
      for (size_t i = 0; i < row.size(); ++i) {
        const Expr& a = *rule.head.args[i];
        agg = a.kind == ExprKind::kAgg ? i : agg;
        Require(i == agg ? a.agg_var == "*" || Eval(*Expr::Var(a.agg_var), env, &in)
                       : Eval(a, env, &row[i]),
                "head not computable: " + RuleToString(rule));
      }
      if (agg == row.size()) {
        out.push_back(std::move(row));
        return;
      }
      const std::string& kind = rule.head.args[agg]->name;
      auto [acc, fresh] = groups.try_emplace(row, kind == "count" ? Value::Int(1) : in);
      int c = Value::Compare(in, acc->second);
      if (!fresh && (kind == "count" || kind == "sum")) {
        acc->second = Value::Add(acc->second, kind == "count" ? Value::Int(1) : in);
      } else if ((kind == "min" && c < 0) || (kind == "max" && c > 0)) {
        acc->second = in;
      }
    });
    for (const auto& [key, value] : groups) {
      out.push_back(key);
      out.back()[agg] = value;
    }
    return out;
  }

  // Calls `emit` once per binding of body[i..] over `db` extending `env`.
  void Solve(const std::vector<BodyTerm>& body, size_t i, const Db& db, const Env& env,
             const std::function<void(const Env&)>& emit) {
    Value v;
    Env next = env;
    if (i == body.size()) {
      emit(env);
    } else if (const auto* p = std::get_if<PredicateAst>(&body[i])) {
      for (const Row& row : db.at(p->name)) {
        next = env;
        if (Match(*p, row, &next)) {
          Solve(body, i + 1, db, next, emit);
        }
      }
    } else {
      const auto* assign = std::get_if<AssignAst>(&body[i]);
      const Expr& expr = assign != nullptr ? *assign->expr : *std::get<ExprPtr>(body[i]);
      bool ok = Eval(expr, env, &v) && (assign == nullptr || next.emplace(assign->var, v).second);
      Require(ok, "body term not computable: " + ExprToString(expr));
      if (ok && (assign != nullptr || v.AsBool())) {
        Solve(body, i + 1, db, next, emit);
      }
    }
  }

  std::map<std::string, const MaterializeAst*> tables_;
  // (triggering stream predicate or "" for pure-table rules, rule)
  std::vector<std::pair<std::string, const RuleAst*>> rules_;
  Db stored_;
  Db view_;
  bool dirty_ = true;
  Result result_;
  std::string error_;
};

}  // namespace

Result Run(const ProgramAst& program, const std::vector<Step>& steps) {
  return Oracle(program).Run(steps);
}

}  // namespace p2::oracle
