#include <gtest/gtest.h>

#include <functional>

#include "fo/eval.h"
#include "fo/formula.h"
#include "fo/input_bounded.h"
#include "fo/parser.h"
#include "map_structure.h"
#include "obs/metrics.h"

namespace wsv::fo {
namespace {

TEST(FoParser, ParsesAtomsAndConnectives) {
  auto f = ParseFormula("customer(id, ssn, name) and (rec = \"approve\" or "
                        "rec = \"deny\")");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ((*f)->kind(), FormulaKind::kAnd);
  auto frees = (*f)->FreeVariables();
  EXPECT_EQ(frees.size(), 4u);  // id, ssn, name, rec
}

TEST(FoParser, QueueSigilsNormalize) {
  auto f = ParseFormula("?apply(id, loan) and O.!rating(ssn, r)");
  ASSERT_TRUE(f.ok()) << f.status();
  auto rels = (*f)->RelationNames();
  EXPECT_TRUE(rels.count("apply") == 1);
  EXPECT_TRUE(rels.count("O.rating") == 1);
}

TEST(FoParser, QuantifierScopesMaximally) {
  auto f = ParseFormula("exists x: p(x) and q(x)");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ((*f)->kind(), FormulaKind::kExists);
  EXPECT_TRUE((*f)->FreeVariables().empty());
}

TEST(FoParser, RejectsGarbage) {
  EXPECT_FALSE(ParseFormula("exists : p(x)").ok());
  EXPECT_FALSE(ParseFormula("p(x) and").ok());
  EXPECT_FALSE(ParseFormula("(p(x)").ok());
}

TEST(FoParser, RoundTripsThroughToString) {
  const char* inputs[] = {
      "p(x, \"a\") and not q(x)",
      "exists x, y: r(x, y) and (x = y or p(x, \"c\"))",
      "forall z: g(z) -> exists w: h(w, z)",
  };
  for (const char* input : inputs) {
    auto f1 = ParseFormula(input);
    ASSERT_TRUE(f1.ok()) << f1.status();
    auto f2 = ParseFormula((*f1)->ToString());
    ASSERT_TRUE(f2.ok()) << "re-parse of " << (*f1)->ToString();
    EXPECT_TRUE(FormulaEquals(*f1, *f2)) << (*f1)->ToString();
  }
}

class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = interner_.Intern("a");
    b_ = interner_.Intern("b");
    c_ = interner_.Intern("c");
    structure_.SetDomain(data::Domain({a_, b_, c_}));

    data::Relation edge(2);
    edge.Insert({a_, b_});
    edge.Insert({b_, c_});
    structure_.Set("edge", edge);

    data::Relation node(1);
    node.Insert({a_});
    node.Insert({b_});
    node.Insert({c_});
    structure_.Set("node", node);
  }

  bool Holds(const std::string& text) {
    auto f = ParseFormula(text);
    EXPECT_TRUE(f.ok()) << f.status();
    Evaluator eval(&interner_);
    auto result = eval.EvaluateSentence(*f, structure_);
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  }

  Interner interner_;
  data::Value a_, b_, c_;
  MapStructure structure_;
};

TEST_F(EvalTest, GroundAtoms) {
  EXPECT_TRUE(Holds("edge(\"a\", \"b\")"));
  EXPECT_FALSE(Holds("edge(\"b\", \"a\")"));
}

TEST_F(EvalTest, ExistentialQuantification) {
  EXPECT_TRUE(Holds("exists x: edge(\"a\", x)"));
  EXPECT_FALSE(Holds("exists x: edge(x, \"a\")"));
  EXPECT_TRUE(Holds("exists x, y: edge(x, y) and edge(y, \"c\")"));
}

TEST_F(EvalTest, UniversalQuantification) {
  EXPECT_TRUE(Holds("forall x: node(x)"));
  EXPECT_FALSE(Holds("forall x: exists y: edge(x, y)"));  // c has no edge
  EXPECT_TRUE(Holds("forall x, y: edge(x, y) -> node(x) and node(y)"));
}

TEST_F(EvalTest, NegationAndEquality) {
  EXPECT_TRUE(Holds("not edge(\"a\", \"c\")"));
  EXPECT_TRUE(Holds("exists x: node(x) and not (x = \"a\")"));
  EXPECT_TRUE(Holds("forall x, y, z: edge(x, y) and edge(x, z) -> y = z"));
}

TEST_F(EvalTest, RepeatedVariablesInAtoms) {
  EXPECT_FALSE(Holds("exists x: edge(x, x)"));
  data::Relation loop(2);
  loop.Insert({a_, a_});
  structure_.Set("loop", loop);
  EXPECT_TRUE(Holds("exists x: loop(x, x)"));
}

TEST_F(EvalTest, QueryProducesHeadOrder) {
  auto f = ParseFormula("edge(y, x)");  // note swapped head order below
  ASSERT_TRUE(f.ok());
  Evaluator eval(&interner_);
  auto rel = eval.EvaluateQuery(*f, {"x", "y"}, structure_);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->Contains({b_, a_}));  // x=b, y=a from edge(a, b)
  EXPECT_TRUE(rel->Contains({c_, b_}));
}

TEST_F(EvalTest, QueryExtendsUnconstrainedHeadVars) {
  auto f = ParseFormula("node(x)");
  ASSERT_TRUE(f.ok());
  Evaluator eval(&interner_);
  auto rel = eval.EvaluateQuery(*f, {"x", "free"}, structure_);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->size(), 9u);  // 3 nodes x 3 domain values
}

TEST_F(EvalTest, MissingRelationIsAnError) {
  auto f = ParseFormula("nonexistent(x)");
  ASSERT_TRUE(f.ok());
  Evaluator eval(&interner_);
  auto result = eval.Evaluate(*f, structure_);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// --- Finite-or-cofinite valuation sets ----------------------------------

class CofiniteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = interner_.Intern("a");
    b_ = interner_.Intern("b");
    c_ = interner_.Intern("c");
    outside_ = interner_.Intern("d");
    domain_ = data::Domain({a_, b_, c_});
  }

  static ValuationSet Finite(std::vector<std::string> vars,
                             std::vector<data::Tuple> rows) {
    ValuationSet out(std::move(vars));
    out.AssignRows(std::move(rows));
    return out;
  }

  /// Checks `set` against `member` on every row of domain^vars, and that no
  /// row with a value outside the domain is a member.
  void ExpectMembers(const ValuationSet& set,
                     const std::function<bool(const data::Tuple&)>& member) {
    const size_t n = set.variables().size();
    size_t total = 1;
    for (size_t i = 0; i < n; ++i) total *= domain_.size();
    bool any = false;
    for (size_t index = 0; index < total; ++index) {
      std::vector<data::Value> row;
      for (size_t i = 0, rest = index; i < n; ++i, rest /= domain_.size()) {
        row.push_back(domain_.values()[rest % domain_.size()]);
      }
      data::Tuple t(row);
      EXPECT_EQ(member(t), set.Contains(t)) << t.ToString(interner_);
      any = any || member(t);
      if (n > 0) {
        row[n - 1] = outside_;
        EXPECT_FALSE(set.Contains(data::Tuple(row)));
      }
    }
    EXPECT_EQ(any, set.IsSatisfiable());
  }

  static uint64_t Materializations() {
    return obs::Registry::Global()
        .counter("fo.cofinite_materializations")
        .value();
  }

  Interner interner_;
  data::Value a_, b_, c_, outside_;
  data::Domain domain_;
};

TEST_F(CofiniteTest, ComplementFlipsWithoutEnumerating) {
  ValuationSet r = Finite({"x", "y"}, {{a_, b_}, {outside_, a_}});
  ValuationSet not_r = r.ComplementWithin(domain_);
  EXPECT_TRUE(not_r.complemented());
  // Only the in-domain row is listed; the outside row excludes nothing.
  EXPECT_EQ(not_r.listed_rows().size(), 1u);
  ExpectMembers(not_r, [&](const data::Tuple& t) {
    return !(t[0] == a_ && t[1] == b_);
  });
  ValuationSet back = not_r.ComplementWithin(domain_);
  EXPECT_FALSE(back.complemented());
  EXPECT_EQ(back.listed_rows().size(), 1u);
  EXPECT_TRUE(back.Contains({a_, b_}));
}

TEST_F(CofiniteTest, FiniteJoinCofiniteIsAnAntiJoin) {
  ValuationSet left = Finite({"x", "y"}, {{a_, b_}, {b_, c_}});
  ValuationSet right =
      Finite({"y", "z"}, {{b_, a_}, {c_, c_}}).ComplementWithin(domain_);
  for (const ValuationSet& joined : {left.Join(right), right.Join(left)}) {
    EXPECT_FALSE(joined.complemented());
    EXPECT_EQ(joined.variables(), (std::vector<std::string>{"x", "y", "z"}));
    ExpectMembers(joined, [&](const data::Tuple& t) {
      bool in_left = (t[0] == a_ && t[1] == b_) || (t[0] == b_ && t[1] == c_);
      bool in_right =
          !((t[1] == b_ && t[2] == a_) || (t[1] == c_ && t[2] == c_));
      return in_left && in_right;
    });
  }
}

TEST_F(CofiniteTest, CofiniteJoinCofiniteStaysCofinite) {
  ValuationSet not_p = Finite({"x"}, {{a_}}).ComplementWithin(domain_);
  ValuationSet not_q = Finite({"y"}, {{b_}}).ComplementWithin(domain_);
  ValuationSet joined = not_p.Join(not_q);
  EXPECT_TRUE(joined.complemented());
  // Excluded: (a, *) and (*, b), five rows of nine.
  EXPECT_EQ(joined.listed_rows().size(), 5u);
  ExpectMembers(joined,
                [&](const data::Tuple& t) { return t[0] != a_ && t[1] != b_; });
}

TEST_F(CofiniteTest, UnionGoesThroughDeMorgan) {
  ValuationSet p = Finite({"x"}, {{a_}});
  ValuationSet not_q = Finite({"y"}, {{b_}, {c_}}).ComplementWithin(domain_);
  ValuationSet mixed = p.UnionWith(not_q, domain_);
  EXPECT_TRUE(mixed.complemented());
  ExpectMembers(mixed,
                [&](const data::Tuple& t) { return t[0] == a_ || t[1] == a_; });

  ValuationSet not_p = p.ComplementWithin(domain_);
  ValuationSet both = not_p.UnionWith(not_q, domain_);
  EXPECT_TRUE(both.complemented());
  ExpectMembers(both,
                [&](const data::Tuple& t) { return t[0] != a_ || t[1] == a_; });
}

TEST_F(CofiniteTest, ExtendKeepsTheExclusionsPerNewColumn) {
  ValuationSet not_p = Finite({"x"}, {{a_}}).ComplementWithin(domain_);
  ValuationSet wide = not_p.Extend({"y", "x"}, domain_);
  EXPECT_TRUE(wide.complemented());
  EXPECT_EQ(wide.listed_rows().size(), 3u);
  ExpectMembers(wide, [&](const data::Tuple& t) { return t[0] != a_; });
}

TEST_F(CofiniteTest, ProjectAwayCountsExcludedExtensions) {
  const uint64_t before = Materializations();
  ValuationSet not_r = Finite({"x", "y"}, {{a_, a_}, {a_, b_}, {a_, c_},
                                           {b_, a_}})
                           .ComplementWithin(domain_);
  // exists y: not r(x, y) fails only for x = a, whose every y is in r.
  ValuationSet projected = not_r.ProjectAway({"y"});
  EXPECT_TRUE(projected.complemented());
  EXPECT_EQ(projected.variables(), (std::vector<std::string>{"x"}));
  ExpectMembers(projected, [&](const data::Tuple& t) { return t[0] != a_; });
  // Down to no variables: some (x, y) is outside r, so the sentence holds.
  ValuationSet sentence = not_r.ProjectAway({"x", "y"});
  EXPECT_FALSE(sentence.complemented());
  EXPECT_TRUE(sentence.Contains(data::Tuple{}));
  EXPECT_EQ(Materializations(), before);
}

TEST_F(CofiniteTest, ToRelationMaterializesInHeadOrder) {
  const uint64_t before = Materializations();
  ValuationSet not_r = Finite({"x", "y"}, {{a_, b_}}).ComplementWithin(domain_);
  data::Relation rel = not_r.ToRelation({"y", "x"}, domain_);
  EXPECT_EQ(Materializations(), before + 1);
  EXPECT_EQ(rel.size(), 8u);
  EXPECT_FALSE(rel.Contains({b_, a_}));
  EXPECT_TRUE(rel.Contains({a_, b_}));
  // A finite set is reordered, not counted.
  data::Relation finite = Finite({"x", "y"}, {{a_, b_}}).ToRelation(
      {"y", "x"}, domain_);
  EXPECT_EQ(Materializations(), before + 1);
  EXPECT_EQ(finite.tuples(), (std::vector<data::Tuple>{{b_, a_}}));
}

TEST_F(CofiniteTest, EmptyDomainLeavesNothingToExclude) {
  data::Domain empty;
  ValuationSet not_p = Finite({"x"}, {}).ComplementWithin(empty);
  EXPECT_FALSE(not_p.complemented());
  EXPECT_FALSE(not_p.IsSatisfiable());
  EXPECT_FALSE(not_p.Contains({a_}));
  // Over no variables the domain does not matter: domain^0 is one row.
  EXPECT_TRUE(ValuationSet::UnitFalse().ComplementWithin(empty).Contains(
      data::Tuple{}));
}

TEST_F(CofiniteTest, ZeroVariableCofiniteSetIsUnitTrue) {
  ValuationSet not_false = ValuationSet::UnitFalse().ComplementWithin(domain_);
  EXPECT_FALSE(not_false.complemented());
  EXPECT_TRUE(not_false.Contains(data::Tuple{}));
  EXPECT_EQ(not_false.ToRelation({}, domain_),
            ValuationSet::UnitTrue().ToRelation({}, domain_));
  ValuationSet not_true = ValuationSet::UnitTrue().ComplementWithin(domain_);
  EXPECT_FALSE(not_true.IsSatisfiable());
}

TEST_F(CofiniteTest, UnionAllAndIntersectAllFoldMixedInputs) {
  ValuationSet p = Finite({"x"}, {{a_}, {b_}});
  ValuationSet not_q = Finite({"x"}, {{b_}, {c_}}).ComplementWithin(domain_);
  ValuationSet not_r = Finite({"x"}, {{c_}}).ComplementWithin(domain_);
  std::vector<const ValuationSet*> sets{&p, &not_q, &not_r};

  ValuationSet ever = ValuationSet::UnionAll({"x"}, sets, domain_);
  EXPECT_TRUE(ever.complemented());
  ExpectMembers(ever, [&](const data::Tuple& t) { return t[0] != c_; });

  ValuationSet always = ValuationSet::IntersectAll({"x"}, sets, domain_);
  EXPECT_FALSE(always.complemented());
  ExpectMembers(always, [&](const data::Tuple& t) { return t[0] == a_; });

  ValuationSet s = Finite({"x"}, {{c_}});
  std::vector<const ValuationSet*> finite{&p, &s};
  ValuationSet both = ValuationSet::UnionAll({"x"}, finite, domain_);
  EXPECT_FALSE(both.complemented());
  ExpectMembers(both, [](const data::Tuple&) { return true; });

  std::vector<const ValuationSet*> cofinite{&not_q, &not_r};
  ValuationSet common = ValuationSet::IntersectAll({"x"}, cofinite, domain_);
  EXPECT_TRUE(common.complemented());
  ExpectMembers(common, [&](const data::Tuple& t) { return t[0] == a_; });
}

// --- Input-boundedness checker -------------------------------------------

class FakeClassifier : public SymbolClassifier {
 public:
  RelClass Classify(const std::string& name) const override {
    if (name == "inp") return RelClass::kInput;
    if (name == "prev_inp") return RelClass::kPrevInput;
    if (name == "flatq") return RelClass::kInFlat;
    if (name == "nestq") return RelClass::kInNested;
    if (name == "db") return RelClass::kDatabase;
    if (name == "st") return RelClass::kState;
    if (name == "act") return RelClass::kAction;
    return RelClass::kUnknown;
  }
};

TEST(InputBounded, AcceptsGuardedQuantification) {
  FakeClassifier cls;
  auto f = ParseFormula("exists x: inp(x) and db(x, x)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(*f, cls).ok());
}

TEST(InputBounded, AcceptsUniversalGuardedForm) {
  FakeClassifier cls;
  auto f = ParseFormula("forall x: inp(x) -> db(x, x)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(*f, cls).ok());
}

TEST(InputBounded, RejectsUnguardedQuantification) {
  FakeClassifier cls;
  auto f = ParseFormula("exists x: st(x)");
  ASSERT_TRUE(f.ok());
  Status s = CheckInputBounded(*f, cls);
  EXPECT_EQ(s.code(), StatusCode::kUndecidableRegime);
}

TEST(InputBounded, RejectsQuantifiedVariableInStateAtom) {
  FakeClassifier cls;
  auto f = ParseFormula("exists x: inp(x) and st(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(CheckInputBounded(*f, cls).code(),
            StatusCode::kUndecidableRegime);
}

TEST(InputBounded, RejectsQuantifiedVariableInNestedQueueAtom) {
  FakeClassifier cls;
  auto f = ParseFormula("exists x: inp(x) and nestq(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(CheckInputBounded(*f, cls).code(),
            StatusCode::kUndecidableRegime);
}

TEST(InputBounded, FlatQueueGuardAllowed) {
  FakeClassifier cls;
  auto f = ParseFormula("exists x: flatq(x) and db(x, x)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(*f, cls).ok());
}

TEST(InputBounded, DatabaseGuardControlledByOption) {
  FakeClassifier cls;
  auto f = ParseFormula("exists x: db(x, x) and flatq(x)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(CheckInputBounded(*f, cls).ok());  // default: allowed
  InputBoundedOptions strict;
  strict.allow_database_guards = false;
  // x is still covered by the flat-queue atom flatq(x), so this stays legal.
  EXPECT_TRUE(CheckInputBounded(*f, cls, strict).ok());
  auto g = ParseFormula("exists x: db(x, x) and x = \"c\"");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(CheckInputBounded(*g, cls).ok());
  EXPECT_EQ(CheckInputBounded(*g, cls, strict).code(),
            StatusCode::kUndecidableRegime);
}

TEST(InputBounded, ExistentialGroundRuleChecks) {
  FakeClassifier cls;
  auto ok = ParseFormula("exists x: inp(x) and db(x, x) and st(\"a\")");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(CheckExistentialGroundRule(*ok, cls).ok());

  auto bad_univ = ParseFormula("forall x: inp(x) -> db(x, x)");
  ASSERT_TRUE(bad_univ.ok());
  EXPECT_EQ(CheckExistentialGroundRule(*bad_univ, cls).code(),
            StatusCode::kUndecidableRegime);

  auto bad_state = ParseFormula("exists x: inp(x) and st(x)");
  ASSERT_TRUE(bad_state.ok());
  EXPECT_EQ(CheckExistentialGroundRule(*bad_state, cls).code(),
            StatusCode::kUndecidableRegime);

  auto bad_nested = ParseFormula("exists x: inp(x) and nestq(x)");
  ASSERT_TRUE(bad_nested.ok());
  EXPECT_EQ(CheckExistentialGroundRule(*bad_nested, cls).code(),
            StatusCode::kUndecidableRegime);
}

TEST(Substitution, ReplacesFreeOccurrencesOnly) {
  auto f = ParseFormula("p(x) and exists x: q(x, y)");
  ASSERT_TRUE(f.ok());
  FormulaPtr g = SubstituteVariable(*f, "x", Term::Constant("a"));
  EXPECT_EQ(g->ToString(), "(p(\"a\") and exists x: (q(x, y)))");
  FormulaPtr h = SubstituteVariable(*f, "y", Term::Constant("b"));
  EXPECT_EQ(h->ToString(), "(p(x) and exists x: (q(x, \"b\")))");
}

}  // namespace
}  // namespace wsv::fo
