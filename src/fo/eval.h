#ifndef WSVERIFY_FO_EVAL_H_
#define WSVERIFY_FO_EVAL_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "data/relation.h"
#include "fo/formula.h"
#include "fo/structure.h"

namespace wsv::fo {

/// A set of valuations of a fixed variable list (kept sorted by name).
/// This is the intermediate result of FO evaluation: each row assigns a
/// domain element to each variable, in the order of `variables()`.
///
/// The set is finite or cofinite. A finite set lists its members. A
/// cofinite set carries the evaluation domain it is relative to and lists
/// the rows it excludes: its members are the rows of domain^variables that
/// are not listed. Negation flips between the two forms, so `not R(x, y, z)`
/// costs the rows R matched instead of |domain|^3. Joins with a cofinite
/// side are anti-joins, unions go through De Morgan, and projection counts
/// excluded extensions; only ToRelation turns a cofinite set back into rows
/// (counted by the obs counter fo.cofinite_materializations).
///
/// A cofinite set never holds a row with a value outside its domain, so a
/// finite row outside the evaluation domain does not survive a union with a
/// cofinite set. Sets over no variables are always kept finite.
class ValuationSet {
 public:
  /// Constructs the empty set (no rows) over `variables` (sorted on entry).
  explicit ValuationSet(std::vector<std::string> variables);

  /// The TRUE set over no variables: one empty row.
  static ValuationSet UnitTrue();
  /// The FALSE set over no variables: no rows.
  static ValuationSet UnitFalse();

  const std::vector<std::string>& variables() const { return variables_; }
  /// True for the cofinite form.
  bool complemented() const { return complemented_; }
  /// The listed rows: the members of a finite set, the excluded rows of a
  /// cofinite one. Use Contains() for membership.
  const data::Relation& listed_rows() const { return rows_; }

  /// Whether `row` (aligned with `variables()`) is a member. For a cofinite
  /// set every value of `row` must also lie in the set's domain.
  bool Contains(const data::Tuple& row) const;
  bool IsSatisfiable() const;

  /// Adds a row aligned with `variables()` to a finite set.
  void AddRow(data::Tuple row);
  /// Replaces the members of a finite set with `rows` (aligned with
  /// `variables()`, any order, duplicates allowed); sorts them once.
  void AssignRows(std::vector<data::Tuple> rows);

  /// Natural join with `other` on shared variables.
  ValuationSet Join(const ValuationSet& other) const;

  /// Extends the variable list with `extra` (ignoring ones already present),
  /// filling new columns with every combination of `domain` elements.
  ValuationSet Extend(const std::vector<std::string>& extra,
                      const data::Domain& domain) const;

  /// Union with `other`; both are first extended to the union of the two
  /// variable lists over `domain`.
  ValuationSet UnionWith(const ValuationSet& other,
                         const data::Domain& domain) const;

  /// All valuations over the current variables NOT in this set, relative to
  /// `domain`^variables. Flips the representation; enumerates nothing.
  ValuationSet ComplementWithin(const data::Domain& domain) const;

  /// Removes the given variables (projecting rows, deduplicating). A kept
  /// row leaves a cofinite set only when every extension of it is excluded.
  ValuationSet ProjectAway(const std::vector<std::string>& away) const;

  /// Reorders (and possibly extends over `domain`) into the column order
  /// `out_vars`; used to produce rule-head tuples in head order.
  data::Relation ToRelation(const std::vector<std::string>& out_vars,
                            const data::Domain& domain) const;

  /// Union / intersection of `sets`, all over `variables` and relative to
  /// `domain`, folded in one pass without extension. The union is cofinite
  /// when any input is; the intersection when every input is.
  static ValuationSet UnionAll(std::vector<std::string> variables,
                               const std::vector<const ValuationSet*>& sets,
                               const data::Domain& domain);
  static ValuationSet IntersectAll(
      std::vector<std::string> variables,
      const std::vector<const ValuationSet*>& sets,
      const data::Domain& domain);

 private:
  /// A finite (`complemented` false) or cofinite set over sorted
  /// `variables` from sorted unique `rows`, normalized: over no variables
  /// or an empty domain, a cofinite set is stored in its finite form.
  static ValuationSet Make(std::vector<std::string> variables,
                           std::vector<data::Tuple> rows, bool complemented,
                           const data::Domain& domain);

  /// UnionAll over the sets, each complemented first when `negate`.
  static ValuationSet FoldUnion(std::vector<std::string> variables,
                                const std::vector<const ValuationSet*>& sets,
                                const data::Domain& domain, bool negate);

  std::vector<std::string> variables_;  // sorted
  data::Relation rows_;                 // arity == variables_.size()
  bool complemented_ = false;
  data::Domain domain_;  // the universe of a cofinite set; empty otherwise
};

/// Evaluates FO formulas against a StructureView using active-domain
/// semantics with the view's EvaluationDomain as quantification range.
///
/// The evaluation strategy is bottom-up relational: each subformula yields
/// the ValuationSet of its satisfying assignments, combined by join (and),
/// extended union (or), complement (not) and projection (exists). Negation
/// yields the cofinite form instead of enumerating the complement, so cost
/// follows the rows atoms actually match (times |domain| per variable a
/// join or union has to introduce), not |domain|^#variables.
class Evaluator {
 public:
  /// `interner` resolves constant spellings to domain elements; every
  /// constant in an evaluated formula must already be interned. Must outlive
  /// the evaluator.
  explicit Evaluator(const Interner* interner) : interner_(interner) {}

  /// Satisfying assignments of `formula`'s free variables.
  Result<ValuationSet> Evaluate(const FormulaPtr& formula,
                                const StructureView& structure) const;

  /// Truth value of a sentence (formula with no free variables).
  Result<bool> EvaluateSentence(const FormulaPtr& formula,
                                const StructureView& structure) const;

  /// Evaluates a rule body `formula` and returns the result relation with
  /// columns in `head_vars` order (Definition 2.1's "result of evaluating
  /// phi"). Head variables that are not free in the body range over the
  /// whole evaluation domain.
  Result<data::Relation> EvaluateQuery(
      const FormulaPtr& formula, const std::vector<std::string>& head_vars,
      const StructureView& structure) const;

 private:
  Result<data::Value> ResolveConstant(const std::string& spelling) const;
  Result<ValuationSet> EvalAtom(const Formula& atom,
                                const StructureView& structure) const;
  Result<ValuationSet> EvalEquality(const Formula& eq,
                                    const StructureView& structure) const;

  const Interner* interner_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_FO_EVAL_H_
