// Rule bodies: what running a rule's joins, assignments, selections and
// head projection over one binding frame must preserve from the
// element-per-operator chain it replaced — snapshot joins under re-entrant
// head pushes, per-activation frames, self-join trigger-row modes,
// aggregate tie-breaking and empty emission, the Rng position of volatile
// heads, and the rule driver's arity guard in front of the frame.
#include <gtest/gtest.h>

#include "src/dataflow/basic_elements.h"
#include "src/dataflow/graph.h"
#include "src/dataflow/rel_elements.h"
#include "src/net/wire.h"
#include "src/obs/registry.h"
#include "src/p2/node.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace p2 {
namespace {

TuplePtr T(const std::string& name, std::vector<Value> fields) {
  return Tuple::Make(name, std::move(fields));
}

uint64_t CounterValue(const obs::Snapshot& snap, const std::string& series) {
  auto it = snap.counters.find(series);
  return it == snap.counters.end() ? 0 : it->second;
}

std::vector<PelProgram> Slots(std::initializer_list<uint32_t> slots) {
  std::vector<PelProgram> head;
  for (uint32_t s : slots) {
    head.emplace_back();
    head.back().Emit(PelOp::kPushField, s);
  }
  return head;
}

// A join probing `table` column 0 with frame slot 0, binding at `slot`.
BodyOp JoinOnFirst(Table* table, size_t slot, BodyOp::TriggerRow trigger) {
  BodyOp op;
  op.kind = BodyOp::Kind::kJoin;
  op.table = table;
  op.key_cols = {0};
  op.keys.resize(1);
  op.keys[0].Emit(PelOp::kPushField, 0);
  op.slot = slot;
  op.arity = table->spec().arity;
  op.trigger = trigger;
  return op;
}

class BodyElementTest : public ::testing::Test {
 protected:
  BodyElementTest() : rng_(1), addr_("n0") {
    TableSpec spec;
    spec.name = "t";
    spec.key_positions = {0, 1};
    spec.arity = 2;
    table_ = std::make_unique<Table>(spec, &loop_);
  }
  PelEnv Env() { return PelEnv{&loop_, &rng_, &addr_}; }

  SimEventLoop loop_;
  Rng rng_;
  std::string addr_;
  Graph graph_;
  std::unique_ptr<Table> table_;
};

// A head pushed downstream inserts into the table the body is iterating and
// re-enters the body. The outer activation keeps iterating its pre-insert
// snapshot, and its frame (event slots included) is untouched by the inner
// activation.
TEST_F(BodyElementTest, ReentrantHeadSeesSnapshotAndOwnFrame) {
  table_->Insert(T("t", {Value::Str("g"), Value::Int(1)}));
  table_->Insert(T("t", {Value::Str("g"), Value::Int(2)}));
  // Frame: event (g, tag) at 0..1, the t row at 2..3. Head: (tag, k).
  std::vector<BodyOp> ops;
  ops.push_back(JoinOnFirst(table_.get(), 2, BodyOp::TriggerRow::kNone));
  auto* body = graph_.Add<RuleBody>("body:r", Env(), std::move(ops), 2, 4, "h", Slots({1, 3}));
  std::vector<std::string> seen;
  bool reentered = false;
  auto* sink = graph_.Add<CallbackSink>("sink", [&](const TuplePtr& h) {
    seen.push_back(h->field(0).AsStr() + std::to_string(h->field(1).AsInt()));
    if (!reentered) {
      reentered = true;
      table_->Insert(T("t", {Value::Str("g"), Value::Int(100)}));
      body->Push(0, T("ev", {Value::Str("g"), Value::Str("inner")}), nullptr);
    }
  });
  graph_.Connect(body, 0, sink, 0);
  body->Push(0, T("ev", {Value::Str("g"), Value::Str("outer")}), nullptr);
  EXPECT_EQ(seen, (std::vector<std::string>{"outer1", "inner1", "inner2", "inner100", "outer2"}));
  EXPECT_EQ(body->rows(), 5u);
}

// After an insert the trigger row is in the table: an earlier self-join
// occurrence (kExclude) skips it and binds only the other matches.
TEST_F(BodyElementTest, SelfJoinExcludeSkipsTriggerRow) {
  table_->Insert(T("t", {Value::Int(7), Value::Int(1)}));  // the trigger
  table_->Insert(T("t", {Value::Int(7), Value::Int(2)}));
  std::vector<BodyOp> ops;
  ops.push_back(JoinOnFirst(table_.get(), 2, BodyOp::TriggerRow::kExclude));
  auto* body = graph_.Add<RuleBody>("body:r", Env(), std::move(ops), 2, 4, "h", Slots({1, 3}));
  std::vector<TuplePtr> out;
  graph_.Connect(body, 0, graph_.Add<CallbackSink>("sink", [&](const TuplePtr& h) {
    out.push_back(h);
  }), 0);
  body->Push(0, T("t", {Value::Int(7), Value::Int(1)}), nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->field(1).AsInt(), 2);
}

// After a removal the trigger row is gone: a later occurrence (kInclude)
// still matches it, after the table's own matches, and only when it
// satisfies the join keys.
TEST_F(BodyElementTest, SelfJoinIncludeAddsTriggerRowLast) {
  table_->Insert(T("t", {Value::Int(7), Value::Int(2)}));
  table_->Insert(T("t", {Value::Int(8), Value::Int(3)}));
  std::vector<BodyOp> ops;
  ops.push_back(JoinOnFirst(table_.get(), 2, BodyOp::TriggerRow::kInclude));
  auto* body = graph_.Add<RuleBody>("body:r", Env(), std::move(ops), 2, 4, "h", Slots({1, 3}));
  std::vector<TuplePtr> out;
  graph_.Connect(body, 0, graph_.Add<CallbackSink>("sink", [&](const TuplePtr& h) {
    out.push_back(h);
  }), 0);
  body->Push(0, T("t", {Value::Int(7), Value::Int(1)}), nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->field(1).AsInt(), 2);
  EXPECT_EQ(out[1]->field(1).AsInt(), 1);  // the removed trigger row itself
  EXPECT_EQ(body->rows(), 2u);
}

// Node-level: the rule as planned, driven through the input queue.
class BodyNodeTest : public ::testing::Test {
 protected:
  BodyNodeTest() : net_(&loop_, Topology(TopologyConfig{}), 17) {
    t1_ = net_.MakeTransport("n1", 0);
    t2_ = net_.MakeTransport("n2", 1);
  }

  std::unique_ptr<P2Node> Install(const std::string& program, obs::Registry* metrics = nullptr) {
    P2NodeConfig c;
    c.executor = &loop_;
    c.transport = t1_.get();
    c.seed = 1;
    c.metrics = metrics;
    auto node = std::make_unique<P2Node>(c);
    std::string err;
    EXPECT_TRUE(node->Install(program, &err)) << err;
    return node;
  }

  // Runs one `ev` event through `n` and returns the `out` heads it derived.
  std::vector<TuplePtr> Fire(P2Node* n) {
    std::vector<TuplePtr> out;
    n->Subscribe("out", [&out](const TuplePtr& t) { out.push_back(t); });
    n->Start();
    n->Inject(T("ev", {Value::Addr("n1")}));
    loop_.RunUntil(1.0);
    return out;
  }

  void AddCandidates(P2Node* n, std::vector<std::pair<std::string, int64_t>> rows) {
    for (const auto& [name, d] : rows) {
      n->GetTable("c")->Insert(T("c", {Value::Addr("n1"), Value::Str(name), Value::Int(d)}));
    }
  }

  SimEventLoop loop_;
  SimNetwork net_;
  std::unique_ptr<SimTransport> t1_;
  std::unique_ptr<SimTransport> t2_;
};

const char* kCandidates = "materialize(c, infinity, 100, keys(2)).\n";

TEST_F(BodyNodeTest, MinAndMaxTiesKeepTheFirstCandidate) {
  for (const char* agg : {"min", "max"}) {
    auto n = Install(std::string(kCandidates) + "r out@X(X,N," + agg +
                     "<D>) :- ev@X(X), c@X(X,N,D).\n");
    // Match order is insertion order; "a" and "b" tie for the extremum.
    AddCandidates(n.get(), std::string(agg) == "min"
                               ? std::vector<std::pair<std::string, int64_t>>{{"z", 9}, {"a", 5},
                                                                              {"b", 5}}
                               : std::vector<std::pair<std::string, int64_t>>{{"z", 1}, {"a", 5},
                                                                              {"b", 5}});
    std::vector<TuplePtr> out = Fire(n.get());
    ASSERT_EQ(out.size(), 1u) << agg;
    EXPECT_EQ(out[0]->field(1).AsStr(), "a") << agg;
    EXPECT_EQ(out[0]->field(2).AsInt(), 5) << agg;
  }
}

TEST_F(BodyNodeTest, CountStarEmitsZeroOnAnEmptyBody) {
  auto n = Install(std::string(kCandidates) + "r out@X(X,count<*>) :- ev@X(X), c@X(X,N,D).\n");
  std::vector<TuplePtr> out = Fire(n.get());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->field(1).AsInt(), 0);
}

// A volatile head is evaluated for every candidate, in candidate order, as
// the unfused chain did: the winner carries the draw made for it, and the
// node's Rng ends exactly as many draws further on as there were
// candidates.
TEST_F(BodyNodeTest, VolatileAggregateHeadDrawsOncePerCandidate) {
  auto n = Install(std::string(kCandidates) +
                   "r out@X(X,N,min<D>,f_rand()) :- ev@X(X), c@X(X,N,D).\n");
  AddCandidates(n.get(), {{"a", 5}, {"b", 2}, {"c", 7}});
  std::vector<TuplePtr> out = Fire(n.get());
  Rng expected(1);
  std::vector<double> draws;
  for (int i = 0; i < 3; ++i) {
    draws.push_back(expected.NextDouble());
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->field(1).AsStr(), "b");
  EXPECT_EQ(out[0]->field(3).AsDouble(), draws[1]);
  EXPECT_EQ(n->rng()->NextU64(), expected.NextU64());
}

// A well-framed event narrower than the rule's event predicate never
// reaches the body's frame: the rule driver drops and counts it.
TEST_F(BodyNodeTest, ShortWireEventIsDroppedByTheDriver) {
  obs::Registry reg(1);
  auto n = Install(std::string(kCandidates) + "r out@X(X,N,D) :- ev@X(X,K), c@X(X,N,D).\n",
                   &reg);
  AddCandidates(n.get(), {{"a", 5}});
  int outs = 0;
  n->Subscribe("out", [&](const TuplePtr&) { ++outs; });
  n->Start();
  t2_->SendTo("n1", FrameTuple(Tuple("ev", {Value::Addr("n1")})), TrafficClass::kMaintenance);
  loop_.RunUntil(1.0);
  EXPECT_EQ(outs, 0);
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "p2_rule_malformed_total{rule=\"r\"}"), 1u);
  EXPECT_EQ(CounterValue(snap, "p2_rule_rows_total{rule=\"r\"}"), 0u);
  // A well-formed event still runs the body.
  n->Inject(T("ev", {Value::Addr("n1"), Value::Int(0)}));
  loop_.RunUntil(2.0);
  EXPECT_EQ(outs, 1);
  snap = reg.TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "p2_rule_rows_total{rule=\"r\"}"), 1u);
  EXPECT_EQ(CounterValue(snap, "p2_element_out_total{kind=\"body\"}"), 1u);
}

}  // namespace
}  // namespace p2
