// Randomized differential tests: the planner against a reference oracle.
//
// tests/oracle.h is a naive bottom-up evaluator written straight from the
// parser's AST. Each random program is driven through a real P2Node and
// through the oracle with the identical step sequence; the final contents
// of every table and the multiset of emitted stream heads must agree.
//
// Two corpora, 25 programs each, with fixed generator and drive seeds:
//   - insert-only: stream rules with multi-table join bodies (where cost
//     ordering can actually reorder), a two-rule pure-table chain and a
//     min/max table aggregate;
//   - retraction: multi-predicate pure-table bodies with projected heads
//     keyed on all columns, stacked into strata, plus a stream rule over
//     the last derived table, with DeleteByKey on base tables mid-drive.
//     This is the counted-retraction fragment: every derived table must
//     equal the oracle's fixpoint over the base state of the moment.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/overlog/parser.h"
#include "src/p2/node.h"
#include "src/sim/network.h"
#include "tests/oracle.h"

namespace p2 {
namespace {

struct GenTable {
  std::string name;
  size_t arity;  // including the leading address field
};

struct GenProgram {
  std::string text;
  std::vector<GenTable> bases;     // driven with inserts (and deletes)
  std::vector<std::string> tables;  // every materialized relation
  std::vector<std::string> heads;  // stream heads to subscribe to
};

std::string Var(size_t i) { return std::string(1, static_cast<char>('A' + i)); }

// "keys(2,...,arity)": every data column (all but the address).
std::string AllDataKeys(size_t arity) {
  std::string keys = "keys(";
  for (size_t k = 2; k <= arity; ++k) {
    keys += (k == 2 ? "" : ",") + std::to_string(k);
  }
  return keys + ")";
}

void AddBases(std::mt19937* rng, GenProgram* p, std::ostringstream* out) {
  auto pick = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  size_t num_bases = static_cast<size_t>(pick(2, 3));
  for (size_t i = 0; i < num_bases; ++i) {
    GenTable t;
    t.name = "b" + std::to_string(i);
    t.arity = static_cast<size_t>(pick(3, 4));
    p->bases.push_back(t);
    p->tables.push_back(t.name);
    // Whole row as key: inserts never displace, so the multiset of rows
    // does not depend on how the drive sequence collides.
    *out << "materialize(" << t.name << ", infinity, 1000, " << AllDataKeys(t.arity) << ").\n";
  }
}

// Insert-only corpus: 2-3 base tables, 1-2 stream rules with multi-table
// join bodies, one single-predicate pure-table chain, one table aggregate.
GenProgram GenerateInsertOnly(std::mt19937* rng) {
  auto pick = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  GenProgram p;
  std::ostringstream out;
  AddBases(rng, &p, &out);

  // Stream rules: ev(X, A) joined against every base on its first data
  // column, all bindings exported. Different bodies per rule exercise
  // different join orders under the cost model.
  int num_stream = pick(1, 2);
  for (int r = 0; r < num_stream; ++r) {
    std::vector<size_t> body(p.bases.size());
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = i;
    }
    std::shuffle(body.begin(), body.end(), *rng);
    size_t use = static_cast<size_t>(pick(2, static_cast<int>(body.size())));
    std::string head = "out" + std::to_string(r);
    p.heads.push_back(head);
    out << "s" << r << " " << head << "@X(X";
    size_t var = 0;
    std::vector<std::string> terms;
    for (size_t i = 0; i < use; ++i) {
      const GenTable& t = p.bases[body[i]];
      std::ostringstream term;
      term << t.name << "@X(X, A";  // join column: shared variable A
      for (size_t k = 2; k < t.arity; ++k) {
        term << ", " << Var(1 + var);  // B, C, ... all exported
        ++var;
      }
      term << ")";
      terms.push_back(term.str());
    }
    for (size_t v = 0; v < 1 + var; ++v) {
      out << ", " << Var(v);
    }
    out << ") :- ev@X(X, A)";
    for (const std::string& t : terms) {
      out << ", " << t;
    }
    if (pick(0, 1) == 1) {
      out << ", A < 4";  // deterministic filter
    }
    out << ".\n";
  }

  // Pure-table chain: d0 :- b0, d1 :- d0, all vars in the head.
  out << "materialize(d0, infinity, 1000, keys(2,3)).\n"
      << "materialize(d1, infinity, 1000, keys(2,3)).\n"
      << "t0 d0@X(X, A, B) :- " << p.bases[0].name << "@X(X, A, B";
  for (size_t k = 3; k < p.bases[0].arity; ++k) {
    out << ", _";
  }
  out << ").\nt1 d1@X(X, B, A) :- d0@X(X, A, B), B != A.\n";

  // Table aggregate over b1's first two data columns.
  const char* agg = pick(0, 1) == 0 ? "min" : "max";
  out << "materialize(agg0, infinity, 1000, keys(2)).\n"
      << "ag agg0@X(X, A, " << agg << "<B>) :- " << p.bases[1].name << "@X(X, A, B";
  for (size_t k = 3; k < p.bases[1].arity; ++k) {
    out << ", _";
  }
  out << ").\n";
  p.tables.insert(p.tables.end(), {"d0", "d1", "agg0"});

  p.text = out.str();
  return p;
}

// The insert-only drive: interleaved base inserts and event injections
// over a tiny value domain (collisions guaranteed).
std::vector<oracle::Step> DriveInsertOnly(const GenProgram& p, uint64_t seed) {
  std::mt19937 drive(static_cast<unsigned>(seed));
  auto pick = [&drive](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(drive);
  };
  std::vector<oracle::Step> steps;
  for (int step = 0; step < 60; ++step) {
    if (pick(0, 3) == 0) {
      steps.push_back(
          {oracle::Step::Kind::kInject, "ev", {Value::Addr("n1"), Value::Int(pick(0, 5))}});
      continue;
    }
    const GenTable& t =
        p.bases[static_cast<size_t>(pick(0, static_cast<int>(p.bases.size()) - 1))];
    oracle::Row fields{Value::Addr("n1")};
    for (size_t k = 1; k < t.arity; ++k) {
      fields.push_back(Value::Int(pick(0, 5)));
    }
    steps.push_back({oracle::Step::Kind::kInsert, t.name, std::move(fields)});
  }
  return steps;
}

// Retraction corpus: 2-3 base tables, then 2-3 strata of derived tables.
// Each derived rule joins 2-3 predicates drawn (with repetition) from the
// bases and the earlier derived tables, its variables drawn from a pool of
// four so predicates share join columns, and projects a random nonempty
// subset of them into a head keyed on all its columns. A stream rule reads
// the last derived table.
GenProgram GenerateRetraction(std::mt19937* rng) {
  auto pick = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  GenProgram p;
  std::ostringstream out;
  AddBases(rng, &p, &out);
  std::vector<GenTable> sources = p.bases;
  int num_derived = pick(2, 3);
  for (int r = 0; r < num_derived; ++r) {
    std::vector<std::string> terms;
    std::vector<std::string> body_vars;
    int num_preds = pick(2, 3);
    for (int i = 0; i < num_preds; ++i) {
      const GenTable& t =
          sources[static_cast<size_t>(pick(0, static_cast<int>(sources.size()) - 1))];
      std::string term = t.name + "@X(X";
      for (size_t k = 1; k < t.arity; ++k) {
        std::string v = Var(static_cast<size_t>(pick(0, 3)));
        term += ", " + v;
        if (std::find(body_vars.begin(), body_vars.end(), v) == body_vars.end()) {
          body_vars.push_back(v);
        }
      }
      terms.push_back(term + ")");
    }
    int filter = pick(0, 2);
    if (filter == 1 && body_vars.size() >= 2) {
      terms.push_back(body_vars[0] + " != " + body_vars[1]);
    } else if (filter == 2) {
      terms.push_back(body_vars[0] + " < 3");
    }
    std::shuffle(body_vars.begin(), body_vars.end(), *rng);
    size_t keep =
        static_cast<size_t>(pick(1, static_cast<int>(std::min<size_t>(body_vars.size(), 3))));
    GenTable head{"h" + std::to_string(r), 1 + keep};
    out << "materialize(" << head.name << ", infinity, 1000, " << AllDataKeys(head.arity)
        << ").\nr" << r << " " << head.name << "@X(X";
    for (size_t i = 0; i < keep; ++i) {
      out << ", " << body_vars[i];
    }
    out << ") :- ";
    for (size_t i = 0; i < terms.size(); ++i) {
      out << (i == 0 ? "" : ", ") << terms[i];
    }
    out << ".\n";
    sources.push_back(head);
    p.tables.push_back(head.name);
  }
  const GenTable& last = sources.back();
  out << "q found@X(X, A";
  for (size_t k = 2; k < last.arity; ++k) {
    out << ", " << Var(k);
  }
  out << ") :- probe@X(X, A), " << last.name << "@X(X, A";
  for (size_t k = 2; k < last.arity; ++k) {
    out << ", " << Var(k);
  }
  out << ").\n";
  p.heads.push_back("found");
  p.text = out.str();
  return p;
}

// The retraction drive: base inserts, DeleteByKey on base tables (of rows
// that may or may not exist) and probe events over a four-value domain.
std::vector<oracle::Step> DriveRetraction(const GenProgram& p, uint64_t seed) {
  std::mt19937 drive(static_cast<unsigned>(seed));
  auto pick = [&drive](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(drive);
  };
  std::vector<oracle::Step> steps;
  for (int step = 0; step < 80; ++step) {
    int what = pick(0, 9);
    if (what == 0) {
      steps.push_back(
          {oracle::Step::Kind::kInject, "probe", {Value::Addr("n1"), Value::Int(pick(0, 3))}});
      continue;
    }
    const GenTable& t =
        p.bases[static_cast<size_t>(pick(0, static_cast<int>(p.bases.size()) - 1))];
    oracle::Row fields;
    if (what > 3) {
      fields.push_back(Value::Addr("n1"));
    }
    for (size_t k = 1; k < t.arity; ++k) {
      fields.push_back(Value::Int(pick(0, 3)));
    }
    steps.push_back({what > 3 ? oracle::Step::Kind::kInsert : oracle::Step::Kind::kDelete,
                     t.name, std::move(fields)});
  }
  return steps;
}

// Sorted table rows and sorted stream heads of one run.
struct RunResult {
  std::vector<std::string> tables;
  std::vector<std::string> streams;
};

std::string RowKey(const std::string& name, const std::vector<Value>& fields) {
  // Field 0 is always the node's own address; drop it.
  std::string s = name + "(";
  for (size_t i = 1; i < fields.size(); ++i) {
    s += fields[i].ToString() + ",";
  }
  return s + ")";
}

void Sort(RunResult* r) {
  std::sort(r->tables.begin(), r->tables.end());
  std::sort(r->streams.begin(), r->streams.end());
}

// One node running the program under the default planner, fed `steps`
// with a short virtual-time drain after each.
RunResult RunPlanner(const GenProgram& p, const std::vector<oracle::Step>& steps) {
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 7);
  auto transport = net.MakeTransport("n1", 0);
  P2NodeConfig c;
  c.executor = &loop;
  c.transport = transport.get();
  c.seed = 42;
  P2Node node(c);
  std::string err;
  EXPECT_TRUE(node.Install(p.text, &err)) << err << "\n" << p.text;

  RunResult result;
  for (const std::string& head : p.heads) {
    node.Subscribe(head, [&result](const TuplePtr& t) {
      result.streams.push_back(RowKey(t->name(), t->fields()));
    });
  }
  node.Start();
  for (const oracle::Step& s : steps) {
    if (s.kind == oracle::Step::Kind::kInject) {
      node.Inject(Tuple::Make(s.rel, s.fields));
    } else if (s.kind == oracle::Step::Kind::kInsert) {
      node.GetTable(s.rel)->Insert(Tuple::Make(s.rel, s.fields));
    } else {
      node.GetTable(s.rel)->DeleteByKey(s.fields);
    }
    loop.RunUntil(loop.Now() + 0.01);
  }
  loop.RunUntil(loop.Now() + 1.0);
  for (const std::string& name : p.tables) {
    for (const TuplePtr& row : node.GetTable(name)->Scan()) {
      result.tables.push_back(RowKey(name, row->fields()));
    }
  }
  Sort(&result);
  return result;
}

RunResult RunOracle(const GenProgram& p, const std::vector<oracle::Step>& steps) {
  ProgramAst ast;
  std::string err;
  EXPECT_TRUE(ParseOverLog(p.text, &ast, &err)) << err;
  oracle::Result out = oracle::Run(ast, steps);
  EXPECT_EQ(out.error, "") << p.text;
  RunResult result;
  for (const auto& [name, rows] : out.tables) {
    for (const oracle::Row& row : rows) {
      result.tables.push_back(RowKey(name, row));
    }
  }
  for (const auto& [name, row] : out.streams) {
    result.streams.push_back(RowKey(name, row));
  }
  Sort(&result);
  return result;
}

TEST(RuleEquivTest, InsertOnlyProgramsAgreeWithOracle) {
  for (uint64_t case_id = 0; case_id < 25; ++case_id) {
    std::mt19937 rng(static_cast<unsigned>(1000 + case_id));
    GenProgram p = GenerateInsertOnly(&rng);
    std::vector<oracle::Step> steps = DriveInsertOnly(p, case_id);
    RunResult planner = RunPlanner(p, steps);
    RunResult reference = RunOracle(p, steps);
    EXPECT_EQ(planner.tables, reference.tables) << "case " << case_id << "\n" << p.text;
    EXPECT_EQ(planner.streams, reference.streams) << "case " << case_id << "\n" << p.text;
  }
}

TEST(RuleEquivTest, RetractingProgramsAgreeWithOracle) {
  for (uint64_t case_id = 0; case_id < 25; ++case_id) {
    std::mt19937 rng(static_cast<unsigned>(2000 + case_id));
    GenProgram p = GenerateRetraction(&rng);
    std::vector<oracle::Step> steps = DriveRetraction(p, 3000 + case_id);
    RunResult planner = RunPlanner(p, steps);
    RunResult reference = RunOracle(p, steps);
    EXPECT_EQ(planner.tables, reference.tables) << "case " << case_id << "\n" << p.text;
    EXPECT_EQ(planner.streams, reference.streams) << "case " << case_id << "\n" << p.text;
  }
}

// Projected-support rule h(B) :- b(A,B): the head drops A, so several b
// rows derive the SAME h row. Counting keeps a per-head-row derivation
// count and deletes only at zero.
class MultiDerivationTest : public ::testing::Test {
 protected:
  static constexpr char kProgram[] =
      "materialize(b, infinity, 1000, keys(2,3)).\n"
      "materialize(h, infinity, 1000, keys(2)).\n"
      "r h@X(X,B) :- b@X(X,A,B).\n";

  MultiDerivationTest() : net_(&loop_, Topology(TopologyConfig{}), 7) {
    transport_ = net_.MakeTransport("n1", 0);
  }

  std::unique_ptr<P2Node> Make() {
    P2NodeConfig c;
    c.executor = &loop_;
    c.transport = transport_.get();
    c.seed = 42;
    auto node = std::make_unique<P2Node>(c);
    std::string err;
    EXPECT_TRUE(node->Install(kProgram, &err)) << err;
    node->Start();
    return node;
  }

  void InsertB(P2Node* n, int64_t a, int64_t b) {
    n->GetTable("b")->Insert(
        Tuple::Make("b", {Value::Addr("n1"), Value::Int(a), Value::Int(b)}));
    steps_.push_back({oracle::Step::Kind::kInsert, "b",
                      {Value::Addr("n1"), Value::Int(a), Value::Int(b)}});
  }
  bool DeleteB(P2Node* n, int64_t a, int64_t b) {
    steps_.push_back({oracle::Step::Kind::kDelete, "b", {Value::Int(a), Value::Int(b)}});
    return n->GetTable("b")->DeleteByKey({Value::Int(a), Value::Int(b)});
  }
  std::vector<std::string> DumpH(P2Node* n) {
    std::vector<std::string> rows;
    for (const TuplePtr& row : n->GetTable("h")->Scan()) {
      rows.push_back(RowKey("h", row->fields()));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
  // The oracle's h table after every step recorded so far.
  std::vector<std::string> OracleH() {
    ProgramAst ast;
    std::string err;
    EXPECT_TRUE(ParseOverLog(kProgram, &ast, &err)) << err;
    oracle::Result out = oracle::Run(ast, steps_);
    EXPECT_EQ(out.error, "");
    std::vector<std::string> rows;
    for (const oracle::Row& row : out.tables["h"]) {
      rows.push_back(RowKey("h", row));
    }
    return rows;
  }

  SimEventLoop loop_;
  SimNetwork net_;
  std::unique_ptr<SimTransport> transport_;
  std::vector<oracle::Step> steps_;
};

TEST_F(MultiDerivationTest, CountingNeverDeletesARowWithALiveSupport) {
  auto counting = Make();
  for (int64_t a = 0; a < 3; ++a) {
    InsertB(counting.get(), a, 7);
  }
  loop_.RunUntil(loop_.Now() + 0.1);
  const SupportCounts* counts = counting->SupportCountsFor("h");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->Count(*Tuple::Make("h", {Value::Addr("n1"), Value::Int(7)})), 3u);

  // Two of three supports retract: h(7) must survive.
  EXPECT_TRUE(DeleteB(counting.get(), 0, 7));
  EXPECT_TRUE(DeleteB(counting.get(), 1, 7));
  loop_.RunUntil(loop_.Now() + 0.1);
  EXPECT_EQ(counting->GetTable("h")->size(), 1u);
  EXPECT_EQ(counts->Count(*Tuple::Make("h", {Value::Addr("n1"), Value::Int(7)})), 1u);

  // Last support retracts: the head row goes with it.
  EXPECT_TRUE(DeleteB(counting.get(), 2, 7));
  loop_.RunUntil(loop_.Now() + 0.1);
  EXPECT_EQ(counting->GetTable("h")->size(), 0u);
}

TEST_F(MultiDerivationTest, FinalStatesAgreeWithOracle) {
  // Retractions mid-run, then one support re-inserted per head value: the
  // counted deletes and re-derivations must land on the oracle's fixpoint.
  auto node = Make();
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t a = 0; a < 4; ++a) {
      InsertB(node.get(), a, b);
    }
  }
  loop_.RunUntil(loop_.Now() + 0.05);
  for (int64_t a = 0; a < 4; ++a) {
    DeleteB(node.get(), a, 0);  // all supports of h(0)
  }
  DeleteB(node.get(), 0, 1);  // some supports of h(1)
  DeleteB(node.get(), 1, 1);
  loop_.RunUntil(loop_.Now() + 0.05);
  EXPECT_EQ(DumpH(node.get()), OracleH());
  EXPECT_EQ(DumpH(node.get()).size(), 2u);
  for (int64_t b = 0; b < 3; ++b) {
    InsertB(node.get(), 9, b);  // fresh support for every head value
  }
  loop_.RunUntil(loop_.Now() + 0.05);
  EXPECT_EQ(DumpH(node.get()), OracleH());
  EXPECT_EQ(DumpH(node.get()).size(), 3u);
}

TEST(RuleEquivTest, CountingReachesThePlan) {
  std::mt19937 rng(1);
  GenProgram p = GenerateInsertOnly(&rng);
  SimEventLoop loop;
  SimNetwork net(&loop, Topology(TopologyConfig{}), 7);
  auto transport = net.MakeTransport("n1", 0);
  P2NodeConfig c;
  c.executor = &loop;
  c.transport = transport.get();
  P2Node node(c);
  std::string err;
  ASSERT_TRUE(node.Install(p.text, &err)) << err;
  const std::string& dump = node.PlanExplain();
  EXPECT_NE(dump.find("delta-insert"), std::string::npos);
  EXPECT_NE(dump.find("(incremental)"), std::string::npos);
  // Counting reaches the chains: counted heads route through the support
  // counter and retract through the counted path.
  EXPECT_NE(dump.find("-> count+route"), std::string::npos);
  EXPECT_NE(dump.find("-> retract-count (local)"), std::string::npos);
}

}  // namespace
}  // namespace p2
