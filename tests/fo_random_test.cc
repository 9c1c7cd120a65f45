// Randomized differential test: the relational FO evaluator (joins,
// complements, projections over finite and cofinite ValuationSets, read
// through ValuationSet::Contains) against a brute-force oracle
// that enumerates assignments and evaluates formulas by direct recursion.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "fo/bdd.h"
#include "fo/eval.h"
#include "fo/formula.h"
#include "map_structure.h"
#include "point_evaluator.h"

namespace wsv::fo {
namespace {

using Assignment = std::map<std::string, data::Value>;

/// Direct recursive truth evaluation under a full assignment of the free
/// variables — the semantics oracle.
bool Oracle(const FormulaPtr& f, const StructureView& structure,
            const Interner& interner, Assignment& env) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kAtom: {
      const data::Relation* rel = structure.Find(f->relation());
      EXPECT_NE(rel, nullptr);
      std::vector<data::Value> row;
      for (const Term& t : f->terms()) {
        row.push_back(t.is_constant() ? interner.Lookup(t.text)
                                      : env.at(t.text));
      }
      return rel->Contains(data::Tuple(std::move(row)));
    }
    case FormulaKind::kEquality: {
      auto value = [&](const Term& t) {
        return t.is_constant() ? interner.Lookup(t.text) : env.at(t.text);
      };
      return value(f->terms()[0]) == value(f->terms()[1]);
    }
    case FormulaKind::kNot:
      return !Oracle(f->child(0), structure, interner, env);
    case FormulaKind::kAnd: {
      for (const FormulaPtr& c : f->children()) {
        if (!Oracle(c, structure, interner, env)) return false;
      }
      return true;
    }
    case FormulaKind::kOr: {
      for (const FormulaPtr& c : f->children()) {
        if (Oracle(c, structure, interner, env)) return true;
      }
      return false;
    }
    case FormulaKind::kImplies:
      return !Oracle(f->child(0), structure, interner, env) ||
             Oracle(f->child(1), structure, interner, env);
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      bool exists = f->kind() == FormulaKind::kExists;
      // Enumerate assignments of the bound variables.
      const auto& vars = f->bound_variables();
      std::vector<size_t> idx(vars.size(), 0);
      const auto& domain = structure.EvaluationDomain().values();
      if (domain.empty()) return !exists;  // empty range
      std::vector<std::pair<std::string, bool>> saved;  // had previous value
      Assignment backup;
      for (const std::string& v : vars) {
        auto it = env.find(v);
        if (it != env.end()) backup[v] = it->second;
      }
      bool result = !exists;
      while (true) {
        for (size_t i = 0; i < vars.size(); ++i) {
          env[vars[i]] = domain[idx[i]];
        }
        bool inner = Oracle(f->body(), structure, interner, env);
        if (exists && inner) {
          result = true;
          break;
        }
        if (!exists && !inner) {
          result = false;
          break;
        }
        size_t i = 0;
        while (i < idx.size()) {
          if (++idx[i] < domain.size()) break;
          idx[i] = 0;
          ++i;
        }
        if (idx.empty() || i == idx.size()) break;
      }
      for (const std::string& v : vars) env.erase(v);
      for (auto& [k, val] : backup) env[k] = val;
      return result;
    }
  }
  return false;
}

/// Random formula generator over schema {r/1, s/2, t/3, flag/0} with
/// variables {x, y, z} and constants {"a", "b"}. Closures bind up to three
/// variables and negation often lands directly on a multi-variable atom:
/// the shape whose complements are dense (cofinite) over domain^3.
class RandomFormula {
 public:
  explicit RandomFormula(std::mt19937& rng) : rng_(rng) {}

  FormulaPtr Generate(int depth) {
    int pick = Int(0, depth <= 0 ? 3 : 9);
    switch (pick) {
      case 0:
        return Formula::Atom("r", {RandomTerm()});
      case 1:
        return Formula::Atom("s", {RandomTerm(), RandomTerm()});
      case 2:
        return Formula::Atom("t", {RandomTerm(), RandomTerm(), RandomTerm()});
      case 3:
        return Int(0, 1) ? Formula::Atom("flag", {})
                         : Formula::Equality(RandomTerm(), RandomTerm());
      case 4:
        return Formula::Not(Generate(depth - 1));
      case 5:
        return Formula::Not(Generate(0));
      case 6:
        return Formula::And(Generate(depth - 1), Generate(depth - 1));
      case 7:
        return Formula::Or(Generate(depth - 1), Generate(depth - 1));
      case 8:
        return Formula::Implies(Generate(depth - 1), Generate(depth - 1));
      default: {
        std::vector<std::string> vars{Var()};
        for (int extra = Int(0, 2); extra > 0; --extra) vars.push_back(Var());
        FormulaPtr body = Generate(depth - 1);
        return Int(0, 1) ? Formula::Exists(vars, body)
                         : Formula::Forall(vars, body);
      }
    }
  }

 private:
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::string Var() { return std::string(1, "xyz"[Int(0, 2)]); }
  Term RandomTerm() {
    int pick = Int(0, 4);
    if (pick == 3) return Term::Constant("a");
    if (pick == 4) return Term::Constant("b");
    return Term::Variable(Var());
  }

  std::mt19937& rng_;
};

class FoRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(FoRandomTest, RelationalEvaluatorMatchesBruteForce) {
  std::mt19937 rng(GetParam());
  Interner interner;
  data::Value a = interner.Intern("a");
  data::Value b = interner.Intern("b");
  data::Value c = interner.Intern("c");
  data::Value outside = interner.Intern("d");
  std::vector<data::Value> domain{a, b, c};

  for (int round = 0; round < 40; ++round) {
    // Random structure.
    MapStructure structure;
    structure.SetDomain(data::Domain(domain));
    data::Relation r(1);
    data::Relation s(2);
    data::Relation t(3);
    data::Relation flag(0);
    std::uniform_int_distribution<int> coin(0, 1);
    for (data::Value v : domain) {
      if (coin(rng)) r.Insert({v});
      for (data::Value w : domain) {
        if (coin(rng)) s.Insert({v, w});
        for (data::Value u : domain) {
          if (coin(rng)) t.Insert({v, w, u});
        }
      }
    }
    if (coin(rng)) flag.Insert(data::Tuple{});
    structure.Set("r", r);
    structure.Set("s", s);
    structure.Set("t", t);
    structure.Set("flag", flag);

    RandomFormula generator(rng);
    FormulaPtr formula = generator.Generate(3);

    Evaluator evaluator(&interner);
    auto result = evaluator.Evaluate(formula, structure);
    ASSERT_TRUE(result.ok()) << result.status() << "\n"
                             << formula->ToString();

    // Compare against the oracle for every assignment of the free
    // variables.
    auto frees = formula->FreeVariables();
    std::vector<std::string> free_list(frees.begin(), frees.end());
    std::vector<size_t> idx(free_list.size(), 0);
    bool any_true = false;
    while (true) {
      Assignment env;
      std::vector<data::Value> row;
      for (size_t i = 0; i < free_list.size(); ++i) {
        env[free_list[i]] = domain[idx[i]];
      }
      // ValuationSet variables are sorted; free_list is sorted (std::set).
      for (size_t i = 0; i < free_list.size(); ++i) {
        row.push_back(env[result->variables()[i]]);
      }
      bool expected = Oracle(formula, structure, interner, env);
      ASSERT_EQ(expected, result->Contains(data::Tuple(row)))
          << "formula: " << formula->ToString() << "\nround " << round;
      any_true = any_true || expected;
      // A row with a value outside the evaluation domain is in no result:
      // atoms and constants only produce domain values.
      if (!free_list.empty()) {
        row[0] = outside;
        ASSERT_FALSE(result->Contains(data::Tuple(row)))
            << "formula: " << formula->ToString() << "\nround " << round;
      }
      if (free_list.empty()) break;
      size_t i = 0;
      while (i < idx.size()) {
        if (++idx[i] < domain.size()) break;
        idx[i] = 0;
        ++i;
      }
      if (i == idx.size()) break;
    }
    ASSERT_EQ(any_true, result->IsSatisfiable())
        << "formula: " << formula->ToString() << "\nround " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Differential test of the templated backends (point_evaluator.h): the
/// Logic<bool> point evaluator must agree with the oracle assignment by
/// assignment, and the BddLogic evaluation — free variables bound to digit
/// slots — must denote exactly the set of valuation indices whose decoded
/// assignments satisfy the formula. This is the correctness core of the
/// engine's symbolic valuation fan-out: a leaf's diagram and its concrete
/// per-valuation truths are the same function.
TEST_P(FoRandomTest, LogicBackendsMatchBruteForce) {
  std::mt19937 rng(GetParam() + 1000);
  Interner interner;
  data::Value a = interner.Intern("a");
  data::Value b = interner.Intern("b");
  data::Value c = interner.Intern("c");
  std::vector<data::Value> domain{a, b, c};

  for (int round = 0; round < 40; ++round) {
    MapStructure structure;
    structure.SetDomain(data::Domain(domain));
    data::Relation r(1);
    data::Relation s(2);
    data::Relation t(3);
    data::Relation flag(0);
    std::uniform_int_distribution<int> coin(0, 1);
    for (data::Value v : domain) {
      if (coin(rng)) r.Insert({v});
      for (data::Value w : domain) {
        if (coin(rng)) s.Insert({v, w});
        for (data::Value u : domain) {
          if (coin(rng)) t.Insert({v, w, u});
        }
      }
    }
    if (coin(rng)) flag.Insert(data::Tuple{});
    structure.Set("r", r);
    structure.Set("s", s);
    structure.Set("t", t);
    structure.Set("flag", flag);

    RandomFormula generator(rng);
    FormulaPtr formula = generator.Generate(3);

    auto frees = formula->FreeVariables();
    std::vector<std::string> free_list(frees.begin(), frees.end());
    const size_t k = free_list.size();

    // Symbolic pass: free variable i becomes digit slot i, so valuation
    // index I assigns free_list[i] = domain[(I / 3^i) % 3].
    bdd::Manager mgr(k, domain.size());
    BddLogic bdd_logic{&mgr, &domain};
    PointEvaluator<BddLogic> symbolic(bdd_logic, &interner);
    PointEvaluator<BddLogic>::Env slot_env;
    for (size_t i = 0; i < k; ++i) {
      slot_env[free_list[i]] =
          PointEvaluator<BddLogic>::Binding::Slot(i);
    }
    auto dd = symbolic.Evaluate(formula, structure, slot_env);
    ASSERT_TRUE(dd.ok()) << dd.status() << "\n" << formula->ToString();
    std::vector<size_t> symbolic_indices;
    mgr.ForEachIndex(*dd, [&](size_t i) { symbolic_indices.push_back(i); });

    // Concrete pass over every assignment: oracle, Logic<bool> point
    // evaluation, and membership in the diagram must all coincide.
    PointEvaluator<Logic<bool>> concrete(Logic<bool>{}, &interner);
    std::vector<size_t> oracle_indices;
    size_t total = 1;
    for (size_t i = 0; i < k; ++i) total *= domain.size();
    for (size_t index = 0; index < total; ++index) {
      Assignment env;
      PointEvaluator<Logic<bool>>::Env point_env;
      size_t rest = index;
      for (size_t i = 0; i < k; ++i) {
        data::Value v = domain[rest % domain.size()];
        rest /= domain.size();
        env[free_list[i]] = v;
        point_env[free_list[i]] =
            PointEvaluator<Logic<bool>>::Binding::Concrete(v);
      }
      bool expected = Oracle(formula, structure, interner, env);
      auto actual = concrete.Evaluate(formula, structure, point_env);
      ASSERT_TRUE(actual.ok()) << actual.status() << "\n"
                               << formula->ToString();
      ASSERT_EQ(expected, *actual)
          << "Logic<bool> point evaluation disagrees with oracle\n"
          << "formula: " << formula->ToString() << "\nround " << round
          << " index " << index;
      if (expected) oracle_indices.push_back(index);
    }

    ASSERT_EQ(oracle_indices, symbolic_indices)
        << "BddLogic satisfying set disagrees with oracle enumeration\n"
        << "formula: " << formula->ToString() << "\nround " << round;
    EXPECT_EQ(oracle_indices.size(), mgr.SatCount(*dd))
        << "formula: " << formula->ToString();
    if (!oracle_indices.empty()) {
      EXPECT_EQ(oracle_indices.front(), mgr.MinIndex(*dd))
          << "formula: " << formula->ToString();
    }
  }
}

/// Randomized check of Manager::Interval against direct enumeration — the
/// engine intersects every leaf-signature class with Interval(v_lo, v_hi)
/// to honor --valuation-range, so [lo, hi) must be exact at the edges.
TEST_P(FoRandomTest, BddIntervalMatchesEnumeration) {
  std::mt19937 rng(GetParam() + 2000);
  for (int round = 0; round < 60; ++round) {
    size_t num_vars = std::uniform_int_distribution<size_t>(0, 3)(rng);
    size_t radix = std::uniform_int_distribution<size_t>(1, 4)(rng);
    size_t total = 1;
    for (size_t i = 0; i < num_vars; ++i) total *= radix;
    size_t lo = std::uniform_int_distribution<size_t>(0, total)(rng);
    size_t hi = std::uniform_int_distribution<size_t>(0, total)(rng);
    if (lo > hi) std::swap(lo, hi);

    bdd::Manager mgr(num_vars, radix);
    bdd::NodeRef dd = mgr.Interval(lo, hi);
    std::vector<size_t> got;
    mgr.ForEachIndex(dd, [&](size_t i) { got.push_back(i); });
    std::vector<size_t> want;
    for (size_t i = lo; i < hi; ++i) want.push_back(i);
    ASSERT_EQ(want, got) << "interval [" << lo << ", " << hi << ") over "
                         << num_vars << " vars, radix " << radix;
    EXPECT_EQ(want.size(), mgr.SatCount(dd));
  }
}

}  // namespace
}  // namespace wsv::fo
