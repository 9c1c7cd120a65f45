#ifndef WSVERIFY_TESTS_POINT_EVALUATOR_H_
#define WSVERIFY_TESTS_POINT_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "data/value.h"
#include "fo/bdd.h"
#include "fo/formula.h"
#include "fo/structure.h"

namespace wsv::fo {

/// The differential oracles of fo_random_test: a naive point evaluator
/// templated over a boolean backend (the shape of clou's `fol::Logic<bool>`
/// / `Logic<z3::expr>` relation algebra) — a carrier type `Bool`, the
/// constants and connectives, and one domain-specific hook,
/// `SlotEq(slot, value)`, the truth of "symbolic slot `slot` equals domain
/// value `value`".
///
/// `Logic<bool>` is the identity backend: the concrete instantiation is
/// plain eager evaluation. `BddLogic` interprets the same formula over a
/// mixed-radix decision diagram whose variables are the valuation's digit
/// slots, turning one FO formula into a set of valuation indices.
template <class B>
struct Logic;

template <>
struct Logic<bool> {
  using Bool = bool;

  bool True() const { return true; }
  bool False() const { return false; }
  bool And(bool a, bool b) const { return a && b; }
  bool Or(bool a, bool b) const { return a || b; }
  bool Not(bool a) const { return !a; }
  bool IsTrue(bool a) const { return a; }
  bool IsFalse(bool a) const { return !a; }

  /// Concrete evaluation never reaches a symbolic slot: PointEvaluator
  /// resolves every binding before calling the backend. Kept so the
  /// template instantiates; returning False is the sound default.
  bool SlotEq(size_t, data::Value) const { return false; }
};

/// The symbolic backend: formulas evaluate to decision diagrams over the
/// valuation digit variables. `values` fixes the digit encoding — digit d
/// of slot s means "closure variable s takes values[d]" — and must be the
/// exact value order of the engine's ValuationSpace so that diagram indices
/// and valuation indices coincide.
struct BddLogic {
  using Bool = bdd::NodeRef;

  bdd::Manager* mgr;
  /// The valuation domain in ValuationSpace order (digit d <-> values[d]).
  const std::vector<data::Value>* values;

  Bool True() const { return bdd::kTrue; }
  Bool False() const { return bdd::kFalse; }
  Bool And(Bool a, Bool b) const { return mgr->And(a, b); }
  Bool Or(Bool a, Bool b) const { return mgr->Or(a, b); }
  Bool Not(Bool a) const { return mgr->Not(a); }
  bool IsTrue(Bool a) const { return a == bdd::kTrue; }
  bool IsFalse(Bool a) const { return a == bdd::kFalse; }

  /// Digit index of `v` in the valuation domain, or -1 when no valuation
  /// can produce it (a structure value outside the pseudo-domain).
  int DigitOf(data::Value v) const {
    for (size_t d = 0; d < values->size(); ++d) {
      if ((*values)[d] == v) return static_cast<int>(d);
    }
    return -1;
  }

  Bool SlotEq(size_t slot, data::Value v) const {
    int d = DigitOf(v);
    if (d < 0) return bdd::kFalse;
    return mgr->Literal(slot, static_cast<uint32_t>(d));
  }
};

/// Point-evaluates an FO formula under a variable environment, templated
/// over the boolean backend. Quantifiers enumerate the structure's
/// evaluation domain (active-domain semantics, same as fo::Evaluator);
/// environment bindings are either concrete domain values or symbolic
/// slots that the backend interprets (digit variables under BddLogic).
///
/// This is deliberately the naive enumeration evaluator: the relational
/// Evaluator remains the production path for computing full satisfying
/// sets, while this body — ONE body for both backends — is the semantics
/// the differential fuzz test pins both against.
template <class L>
class PointEvaluator {
 public:
  using Bool = typename L::Bool;

  /// A variable binding: a concrete value, or the backend's symbolic slot.
  struct Binding {
    bool symbolic = false;
    data::Value value = 0;
    size_t slot = 0;

    static Binding Concrete(data::Value v) { return Binding{false, v, 0}; }
    static Binding Slot(size_t s) { return Binding{true, 0, s}; }
  };

  using Env = std::map<std::string, Binding>;

  PointEvaluator(L logic, const Interner* interner)
      : logic_(logic), interner_(interner) {}

  Result<Bool> Evaluate(const FormulaPtr& f, const StructureView& structure,
                        Env& env) const {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return logic_.True();
      case FormulaKind::kFalse:
        return logic_.False();
      case FormulaKind::kAtom: {
        const data::Relation* rel = structure.Find(f->relation());
        if (rel == nullptr) {
          return Status::Internal("relation '" + f->relation() +
                                  "' is not defined in the structure");
        }
        Bool out = logic_.False();
        for (const data::Tuple& row : *rel) {
          Bool match = logic_.True();
          for (size_t i = 0; i < f->terms().size(); ++i) {
            if (logic_.IsFalse(match)) break;
            WSV_ASSIGN_OR_RETURN(Bool eq,
                                 TermEqValue(f->terms()[i], row[i], env));
            match = logic_.And(match, eq);
          }
          out = logic_.Or(out, match);
        }
        return out;
      }
      case FormulaKind::kEquality:
        return TermEqTerm(f->terms()[0], f->terms()[1], structure, env);
      case FormulaKind::kNot: {
        WSV_ASSIGN_OR_RETURN(Bool a, Evaluate(f->child(0), structure, env));
        return logic_.Not(a);
      }
      case FormulaKind::kAnd: {
        Bool out = logic_.True();
        for (const FormulaPtr& c : f->children()) {
          WSV_ASSIGN_OR_RETURN(Bool a, Evaluate(c, structure, env));
          out = logic_.And(out, a);
        }
        return out;
      }
      case FormulaKind::kOr: {
        Bool out = logic_.False();
        for (const FormulaPtr& c : f->children()) {
          WSV_ASSIGN_OR_RETURN(Bool a, Evaluate(c, structure, env));
          out = logic_.Or(out, a);
        }
        return out;
      }
      case FormulaKind::kImplies: {
        WSV_ASSIGN_OR_RETURN(Bool a, Evaluate(f->child(0), structure, env));
        WSV_ASSIGN_OR_RETURN(Bool b, Evaluate(f->child(1), structure, env));
        return logic_.Or(logic_.Not(a), b);
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        const bool exists = f->kind() == FormulaKind::kExists;
        Bool out = exists ? logic_.False() : logic_.True();
        WSV_RETURN_IF_ERROR(
            Quantify(f, structure, env, /*var=*/0, exists, &out));
        return out;
      }
    }
    return Status::Internal("unhandled formula kind");
  }

 private:
  /// Enumerates domain assignments of the quantifier's variable block,
  /// folding the body's truth into `*out` with Or (exists) or And (forall).
  Status Quantify(const FormulaPtr& f, const StructureView& structure,
                  Env& env, size_t var, bool exists, Bool* out) const {
    if (var == f->bound_variables().size()) {
      WSV_ASSIGN_OR_RETURN(Bool body, Evaluate(f->body(), structure, env));
      *out = exists ? logic_.Or(*out, body) : logic_.And(*out, body);
      return Status::Ok();
    }
    const std::string& name = f->bound_variables()[var];
    auto saved = env.find(name);
    Binding old;
    bool had = saved != env.end();
    if (had) old = saved->second;
    for (data::Value v : structure.EvaluationDomain()) {
      env[name] = Binding::Concrete(v);
      WSV_RETURN_IF_ERROR(Quantify(f, structure, env, var + 1, exists, out));
    }
    if (had) {
      env[name] = old;
    } else {
      env.erase(name);
    }
    return Status::Ok();
  }

  Result<Bool> TermEqValue(const Term& t, data::Value v, const Env& env) const {
    if (t.is_constant()) {
      SymbolId id = interner_->Lookup(t.text);
      if (id == kInvalidSymbol) {
        return Status::Internal("constant \"" + t.text +
                                "\" was not interned before evaluation");
      }
      return id == v ? logic_.True() : logic_.False();
    }
    auto it = env.find(t.text);
    if (it == env.end()) {
      return Status::Internal("unbound variable '" + t.text + "'");
    }
    if (!it->second.symbolic) {
      return it->second.value == v ? logic_.True() : logic_.False();
    }
    return logic_.SlotEq(it->second.slot, v);
  }

  Result<Bool> TermEqTerm(const Term& a, const Term& b,
                          const StructureView& structure, const Env& env) const {
    // Resolve whichever side is concrete and delegate to TermEqValue; two
    // symbolic slots compare by enumerating the evaluation domain.
    auto concrete = [&](const Term& t) -> Result<std::pair<bool, data::Value>> {
      if (t.is_constant()) {
        SymbolId id = interner_->Lookup(t.text);
        if (id == kInvalidSymbol) {
          return Status::Internal("constant \"" + t.text +
                                  "\" was not interned before evaluation");
        }
        return std::make_pair(true, static_cast<data::Value>(id));
      }
      auto it = env.find(t.text);
      if (it == env.end()) {
        return Status::Internal("unbound variable '" + t.text + "'");
      }
      if (it->second.symbolic) return std::make_pair(false, data::Value{0});
      return std::make_pair(true, it->second.value);
    };
    WSV_ASSIGN_OR_RETURN(auto ca, concrete(a));
    WSV_ASSIGN_OR_RETURN(auto cb, concrete(b));
    if (ca.first) return TermEqValue(b, ca.second, env);
    if (cb.first) return TermEqValue(a, cb.second, env);
    Bool out = logic_.False();
    for (data::Value v : structure.EvaluationDomain()) {
      WSV_ASSIGN_OR_RETURN(Bool ea, TermEqValue(a, v, env));
      WSV_ASSIGN_OR_RETURN(Bool eb, TermEqValue(b, v, env));
      out = logic_.Or(out, logic_.And(ea, eb));
    }
    return out;
  }

  L logic_;
  const Interner* interner_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_TESTS_POINT_EVALUATOR_H_
