#include "fo/eval.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/metrics.h"

namespace wsv::fo {

namespace {

/// Positions of `needles` inside `haystack` (both sorted variable lists);
/// kNpos for absent entries.
constexpr size_t kNpos = static_cast<size_t>(-1);

size_t IndexOfVar(const std::vector<std::string>& vars,
                  const std::string& name) {
  auto it = std::lower_bound(vars.begin(), vars.end(), name);
  if (it == vars.end() || *it != name) return kNpos;
  return static_cast<size_t>(it - vars.begin());
}

std::vector<std::string> SortedUnique(std::vector<std::string> vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::vector<std::string> SortedUnion(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Sorts and dedups `rows`; most bulk builds emit rows already in order,
/// so the sort is skipped when it has nothing to do.
void SortUnique(std::vector<data::Tuple>& rows) {
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
}

bool InDomain(const data::Tuple& row, const data::Domain& domain) {
  for (data::Value v : row) {
    if (!domain.Contains(v)) return false;
  }
  return true;
}

/// Calls `emit` with every row of domain^n in lexicographic order (last
/// column fastest). Emits nothing when n > 0 and the domain is empty.
template <typename Emit>
void ForEachRow(size_t n, const data::Domain& domain, Emit emit) {
  if (n > 0 && domain.empty()) return;
  std::vector<size_t> idx(n, 0);
  std::vector<data::Value> row(n);
  while (true) {
    for (size_t k = 0; k < n; ++k) row[k] = domain.values()[idx[k]];
    emit(data::Tuple(row.data(), n));
    size_t k = n;
    while (k > 0) {
      if (++idx[k - 1] < domain.size()) break;
      idx[k - 1] = 0;
      --k;
    }
    if (k == 0) return;
  }
}

/// `rows` over `vars` extended to the superset `out_vars`, every new column
/// ranging over `domain`; sorted and duplicate-free.
std::vector<data::Tuple> ExtendRows(const std::vector<data::Tuple>& rows,
                                    const std::vector<std::string>& vars,
                                    const std::vector<std::string>& out_vars,
                                    const data::Domain& domain) {
  if (rows.empty()) return {};
  std::vector<size_t> from_old(out_vars.size());
  std::vector<size_t> fresh_cols;
  for (size_t i = 0; i < out_vars.size(); ++i) {
    from_old[i] = IndexOfVar(vars, out_vars[i]);
    if (from_old[i] == kNpos) fresh_cols.push_back(i);
  }
  std::vector<data::Tuple> combos;
  ForEachRow(fresh_cols.size(), domain,
             [&](data::Tuple combo) { combos.push_back(std::move(combo)); });
  std::vector<data::Tuple> out;
  out.reserve(rows.size() * combos.size());
  std::vector<data::Value> row(out_vars.size());
  for (const data::Tuple& base : rows) {
    for (size_t i = 0; i < out_vars.size(); ++i) {
      if (from_old[i] != kNpos) row[i] = base[from_old[i]];
    }
    for (const data::Tuple& combo : combos) {
      for (size_t k = 0; k < fresh_cols.size(); ++k) {
        row[fresh_cols[k]] = combo[k];
      }
      out.emplace_back(row.data(), row.size());
    }
  }
  SortUnique(out);
  return out;
}

}  // namespace

ValuationSet::ValuationSet(std::vector<std::string> variables)
    : variables_(SortedUnique(std::move(variables))),
      rows_(variables_.size()) {}

ValuationSet ValuationSet::UnitTrue() {
  ValuationSet s((std::vector<std::string>()));
  s.AddRow(data::Tuple{});
  return s;
}

ValuationSet ValuationSet::UnitFalse() {
  return ValuationSet(std::vector<std::string>());
}

ValuationSet ValuationSet::Make(std::vector<std::string> variables,
                                std::vector<data::Tuple> rows,
                                bool complemented,
                                const data::Domain& domain) {
  ValuationSet out(std::move(variables));
  if (complemented && out.variables_.empty()) {
    // domain^0 is the single empty row: excluding it leaves nothing.
    if (rows.empty()) rows.emplace_back();
    else rows.clear();
    complemented = false;
  } else if (complemented && domain.empty()) {
    rows.clear();  // domain^n is empty for n > 0
    complemented = false;
  }
  out.rows_.AssignSorted(std::move(rows));
  out.complemented_ = complemented;
  if (complemented) out.domain_ = domain;
  return out;
}

bool ValuationSet::Contains(const data::Tuple& row) const {
  assert(row.arity() == variables_.size());
  if (!complemented_) return rows_.Contains(row);
  return InDomain(row, domain_) && !rows_.Contains(row);
}

bool ValuationSet::IsSatisfiable() const {
  if (!complemented_) return !rows_.empty();
  // Empty only when every one of the |domain|^#vars rows is excluded.
  size_t universe = 1;
  for (size_t i = 0; i < variables_.size() && universe <= rows_.size(); ++i) {
    universe *= domain_.size();
  }
  return rows_.size() < universe;
}

void ValuationSet::AddRow(data::Tuple row) {
  assert(!complemented_ && "AddRow on a cofinite set");
  rows_.Insert(row);
}

void ValuationSet::AssignRows(std::vector<data::Tuple> rows) {
  complemented_ = false;
  domain_ = data::Domain();
  SortUnique(rows);
  rows_.AssignSorted(std::move(rows));
}

ValuationSet ValuationSet::Join(const ValuationSet& other) const {
  if (complemented_ && !other.complemented_) return other.Join(*this);
  std::vector<std::string> out_vars = SortedUnion(variables_, other.variables_);

  if (complemented_) {
    // not A and not B == not (A or B): both exclusion lists, extended to the
    // joint variables.
    assert(domain_ == other.domain_);
    std::vector<data::Tuple> left =
        ExtendRows(rows_.tuples(), variables_, out_vars, domain_);
    std::vector<data::Tuple> right =
        ExtendRows(other.rows_.tuples(), other.variables_, out_vars, domain_);
    std::vector<data::Tuple> excluded;
    excluded.reserve(left.size() + right.size());
    std::set_union(left.begin(), left.end(), right.begin(), right.end(),
                   std::back_inserter(excluded));
    return Make(std::move(out_vars), std::move(excluded), true, domain_);
  }

  if (other.complemented_) {
    // Anti-join: this set's rows, extended to the joint variables, minus
    // those the cofinite side excludes (or that leave its domain).
    std::vector<data::Tuple> rows =
        ExtendRows(rows_.tuples(), variables_, out_vars, other.domain_);
    std::vector<size_t> cols;
    for (const std::string& v : other.variables_) {
      cols.push_back(IndexOfVar(out_vars, v));
    }
    std::vector<data::Value> probe(cols.size());
    auto excluded = [&](const data::Tuple& row) {
      for (size_t k = 0; k < cols.size(); ++k) probe[k] = row[cols[k]];
      return !other.Contains(data::Tuple(probe.data(), probe.size()));
    };
    rows.erase(std::remove_if(rows.begin(), rows.end(), excluded), rows.end());
    return Make(std::move(out_vars), std::move(rows), false, domain_);
  }

  // Finite join: every agreeing pair of rows, sorted once at the end.
  std::vector<size_t> from_left(out_vars.size());
  std::vector<size_t> from_right(out_vars.size());
  std::vector<std::pair<size_t, size_t>> shared;
  for (size_t i = 0; i < out_vars.size(); ++i) {
    from_left[i] = IndexOfVar(variables_, out_vars[i]);
    from_right[i] = IndexOfVar(other.variables_, out_vars[i]);
    if (from_left[i] != kNpos && from_right[i] != kNpos) {
      shared.emplace_back(from_left[i], from_right[i]);
    }
  }
  std::vector<data::Tuple> rows;
  std::vector<data::Value> row(out_vars.size());
  for (const data::Tuple& l : rows_) {
    for (const data::Tuple& r : other.rows_) {
      bool match = true;
      for (const auto& [li, ri] : shared) match = match && l[li] == r[ri];
      if (!match) continue;
      for (size_t i = 0; i < out_vars.size(); ++i) {
        row[i] = from_left[i] != kNpos ? l[from_left[i]] : r[from_right[i]];
      }
      rows.emplace_back(row.data(), row.size());
    }
  }
  SortUnique(rows);
  return Make(std::move(out_vars), std::move(rows), false, domain_);
}

ValuationSet ValuationSet::Extend(const std::vector<std::string>& extra,
                                  const data::Domain& domain) const {
  std::vector<std::string> out_vars =
      SortedUnion(variables_, SortedUnique(extra));
  if (out_vars.size() == variables_.size()) return *this;
  // A cofinite set extends as its exclusions do: (r, f) is excluded exactly
  // when r is.
  assert(!complemented_ || domain == domain_);
  return Make(out_vars, ExtendRows(rows_.tuples(), variables_, out_vars, domain),
              complemented_, domain);
}

ValuationSet ValuationSet::UnionWith(const ValuationSet& other,
                                     const data::Domain& domain) const {
  if (complemented_ || other.complemented_) {
    // A or B == not (not A and not B); one side of that join is finite.
    return ComplementWithin(domain)
        .Join(other.ComplementWithin(domain))
        .ComplementWithin(domain);
  }
  std::vector<std::string> out_vars = SortedUnion(variables_, other.variables_);
  std::vector<data::Tuple> left =
      ExtendRows(rows_.tuples(), variables_, out_vars, domain);
  std::vector<data::Tuple> right =
      ExtendRows(other.rows_.tuples(), other.variables_, out_vars, domain);
  std::vector<data::Tuple> rows;
  rows.reserve(left.size() + right.size());
  std::set_union(left.begin(), left.end(), right.begin(), right.end(),
                 std::back_inserter(rows));
  return Make(std::move(out_vars), std::move(rows), false, domain);
}

ValuationSet ValuationSet::ComplementWithin(const data::Domain& domain) const {
  if (complemented_) {
    assert(domain == domain_);
    return Make(variables_, rows_.tuples(), false, domain);
  }
  // Rows outside domain^variables are not excluded from anything.
  std::vector<data::Tuple> excluded;
  excluded.reserve(rows_.size());
  for (const data::Tuple& row : rows_) {
    if (InDomain(row, domain)) excluded.push_back(row);
  }
  return Make(variables_, std::move(excluded), true, domain);
}

ValuationSet ValuationSet::ProjectAway(
    const std::vector<std::string>& away) const {
  std::vector<std::string> keep;
  for (const std::string& v : variables_) {
    if (std::find(away.begin(), away.end(), v) == away.end()) {
      keep.push_back(v);
    }
  }
  if (keep.size() == variables_.size()) return *this;
  std::vector<size_t> keep_idx;
  for (const std::string& v : keep) {
    keep_idx.push_back(IndexOfVar(variables_, v));
  }
  std::vector<data::Tuple> rows;
  rows.reserve(rows_.size());
  std::vector<data::Value> row(keep_idx.size());
  for (const data::Tuple& t : rows_) {
    for (size_t i = 0; i < keep_idx.size(); ++i) row[i] = t[keep_idx[i]];
    rows.emplace_back(row.data(), row.size());
  }
  std::sort(rows.begin(), rows.end());
  if (!complemented_) {
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return Make(std::move(keep), std::move(rows), false, domain_);
  }
  // A kept row is excluded only when all |domain|^#away of its extensions
  // are; the listed rows are distinct, so that is a run of that length (the
  // count stops growing once no run can reach it).
  size_t extensions = 1;
  for (size_t i = keep.size();
       i < variables_.size() && extensions <= rows.size(); ++i) {
    extensions *= domain_.size();
  }
  std::vector<data::Tuple> excluded;
  for (size_t i = 0, j = 0; i < rows.size(); i = j) {
    while (j < rows.size() && rows[j] == rows[i]) ++j;
    if (j - i == extensions) excluded.push_back(rows[i]);
  }
  return Make(std::move(keep), std::move(excluded), true, domain_);
}

data::Relation ValuationSet::ToRelation(
    const std::vector<std::string>& out_vars,
    const data::Domain& domain) const {
  std::vector<size_t> order;
  order.reserve(out_vars.size());
  for (const std::string& v : out_vars) {
    order.push_back(IndexOfVar(variables_, v));
    if (order.back() == kNpos) {
      return Extend(out_vars, domain).ToRelation(out_vars, domain);
    }
  }
  std::vector<data::Tuple> members;
  if (complemented_) {
    // The one place a cofinite set is enumerated: a rule head needs its rows.
    static obs::Counter& materializations =
        obs::Registry::Global().counter("fo.cofinite_materializations");
    materializations.Add(1);
    ForEachRow(variables_.size(), domain, [&](data::Tuple row) {
      if (!rows_.Contains(row)) members.push_back(std::move(row));
    });
  }
  std::vector<data::Tuple> rows;
  std::vector<data::Value> row(order.size());
  for (const data::Tuple& t : complemented_ ? members : rows_.tuples()) {
    for (size_t i = 0; i < order.size(); ++i) row[i] = t[order[i]];
    rows.emplace_back(row.data(), row.size());
  }
  SortUnique(rows);
  data::Relation out(out_vars.size());
  out.AssignSorted(std::move(rows));
  return out;
}

ValuationSet ValuationSet::FoldUnion(
    std::vector<std::string> variables,
    const std::vector<const ValuationSet*>& sets, const data::Domain& domain,
    bool negate) {
  // Members of the finite views (their union) and the rows every cofinite
  // view excludes (the intersection of their lists). Both are merged only
  // when a set changes them, which most snapshots' sets do not.
  std::vector<data::Tuple> members;
  std::optional<std::vector<data::Tuple>> excluded;
  std::vector<data::Tuple> scratch;
  for (const ValuationSet* set : sets) {
    assert(set->variables_ == variables);
    const std::vector<data::Tuple>& listed = set->rows_.tuples();
    if (set->complemented_ == negate) {
      if (std::includes(members.begin(), members.end(), listed.begin(),
                        listed.end())) {
        continue;
      }
      scratch.clear();
      std::set_union(members.begin(), members.end(), listed.begin(),
                     listed.end(), std::back_inserter(scratch));
      members.swap(scratch);
      continue;
    }
    assert(!set->complemented_ || set->domain_ == domain);
    if (!excluded.has_value()) {
      excluded = listed;
    } else if (!std::includes(listed.begin(), listed.end(), excluded->begin(),
                              excluded->end())) {
      scratch.clear();
      std::set_intersection(excluded->begin(), excluded->end(), listed.begin(),
                            listed.end(), std::back_inserter(scratch));
      excluded->swap(scratch);
    }
    if (excluded->empty()) break;  // the union already covers domain^vars
  }
  if (!excluded.has_value()) {
    return Make(std::move(variables), std::move(members), false, domain);
  }
  std::vector<data::Tuple> out;
  for (const data::Tuple& row : *excluded) {
    if (InDomain(row, domain) &&
        !std::binary_search(members.begin(), members.end(), row)) {
      out.push_back(row);
    }
  }
  return Make(std::move(variables), std::move(out), true, domain);
}

ValuationSet ValuationSet::UnionAll(
    std::vector<std::string> variables,
    const std::vector<const ValuationSet*>& sets, const data::Domain& domain) {
  return FoldUnion(std::move(variables), sets, domain, /*negate=*/false);
}

ValuationSet ValuationSet::IntersectAll(
    std::vector<std::string> variables,
    const std::vector<const ValuationSet*>& sets, const data::Domain& domain) {
  // A and B == not (not A or not B).
  return FoldUnion(std::move(variables), sets, domain, /*negate=*/true)
      .ComplementWithin(domain);
}

Result<data::Value> Evaluator::ResolveConstant(
    const std::string& spelling) const {
  SymbolId id = interner_->Lookup(spelling);
  if (id == kInvalidSymbol) {
    return Status::Internal("constant \"" + spelling +
                            "\" was not interned before evaluation");
  }
  return id;
}

Result<ValuationSet> Evaluator::EvalAtom(const Formula& atom,
                                         const StructureView& structure) const {
  const data::Relation* rel = structure.Find(atom.relation());
  if (rel == nullptr) {
    return Status::NotFound("relation '" + atom.relation() +
                            "' not defined in evaluation structure");
  }
  if (rel->arity() != atom.terms().size()) {
    return Status::InvalidSpec(
        "atom " + atom.ToString() + " has arity " +
        std::to_string(atom.terms().size()) + " but relation '" +
        atom.relation() + "' has arity " + std::to_string(rel->arity()));
  }

  // Distinct variables of the atom, sorted.
  std::vector<std::string> vars;
  for (const Term& t : atom.terms()) {
    if (t.is_variable()) vars.push_back(t.text);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

  // Resolve constants once.
  std::vector<data::Value> const_vals(atom.terms().size(), 0);
  std::vector<bool> is_const(atom.terms().size(), false);
  std::vector<size_t> var_slot(atom.terms().size(), 0);
  for (size_t i = 0; i < atom.terms().size(); ++i) {
    const Term& t = atom.terms()[i];
    if (t.is_constant()) {
      WSV_ASSIGN_OR_RETURN(const_vals[i], ResolveConstant(t.text));
      is_const[i] = true;
    } else {
      var_slot[i] = IndexOfVar(vars, t.text);
    }
  }

  ValuationSet out(vars);
  std::vector<data::Tuple> rows;
  std::vector<data::Value> row(vars.size());
  std::vector<bool> bound(vars.size());
  for (const data::Tuple& tuple : *rel) {
    std::fill(bound.begin(), bound.end(), false);
    bool match = true;
    for (size_t i = 0; i < atom.terms().size() && match; ++i) {
      if (is_const[i]) {
        match = tuple[i] == const_vals[i];
      } else {
        size_t slot = var_slot[i];
        if (bound[slot]) {
          match = row[slot] == tuple[i];  // repeated variable must agree
        } else {
          row[slot] = tuple[i];
          bound[slot] = true;
        }
      }
    }
    if (match) rows.emplace_back(row.data(), row.size());
  }
  out.AssignRows(std::move(rows));
  return out;
}

Result<ValuationSet> Evaluator::EvalEquality(
    const Formula& eq, const StructureView& structure) const {
  const Term& lhs = eq.terms()[0];
  const Term& rhs = eq.terms()[1];
  if (lhs.is_constant() && rhs.is_constant()) {
    WSV_ASSIGN_OR_RETURN(data::Value lv, ResolveConstant(lhs.text));
    WSV_ASSIGN_OR_RETURN(data::Value rv, ResolveConstant(rhs.text));
    return lv == rv ? ValuationSet::UnitTrue() : ValuationSet::UnitFalse();
  }
  if (lhs.is_variable() && rhs.is_variable()) {
    // x = x holds for every domain element; x = y on the diagonal.
    ValuationSet out({lhs.text, rhs.text});
    std::vector<data::Tuple> rows;
    for (data::Value v : structure.EvaluationDomain()) {
      rows.push_back(lhs.text == rhs.text ? data::Tuple{v} : data::Tuple{v, v});
    }
    out.AssignRows(std::move(rows));
    return out;
  }
  // One variable, one constant.
  const Term& var = lhs.is_variable() ? lhs : rhs;
  const Term& con = lhs.is_constant() ? lhs : rhs;
  WSV_ASSIGN_OR_RETURN(data::Value cv, ResolveConstant(con.text));
  ValuationSet out({var.text});
  out.AddRow(data::Tuple{cv});
  return out;
}

Result<ValuationSet> Evaluator::Evaluate(const FormulaPtr& formula,
                                         const StructureView& structure) const {
  const data::Domain& domain = structure.EvaluationDomain();
  switch (formula->kind()) {
    case FormulaKind::kTrue:
      return ValuationSet::UnitTrue();
    case FormulaKind::kFalse:
      return ValuationSet::UnitFalse();
    case FormulaKind::kAtom:
      return EvalAtom(*formula, structure);
    case FormulaKind::kEquality:
      return EvalEquality(*formula, structure);
    case FormulaKind::kNot: {
      WSV_ASSIGN_OR_RETURN(ValuationSet inner,
                           Evaluate(formula->child(0), structure));
      return inner.ComplementWithin(domain);
    }
    case FormulaKind::kAnd: {
      WSV_ASSIGN_OR_RETURN(ValuationSet acc,
                           Evaluate(formula->child(0), structure));
      for (size_t i = 1; i < formula->children().size(); ++i) {
        // Short-circuit: joining with an empty set stays empty only if the
        // remaining conjuncts introduce no new variables, so only skip work
        // when provably empty regardless.
        WSV_ASSIGN_OR_RETURN(ValuationSet next,
                             Evaluate(formula->child(i), structure));
        acc = acc.Join(next);
      }
      return acc;
    }
    case FormulaKind::kOr: {
      WSV_ASSIGN_OR_RETURN(ValuationSet acc,
                           Evaluate(formula->child(0), structure));
      for (size_t i = 1; i < formula->children().size(); ++i) {
        WSV_ASSIGN_OR_RETURN(ValuationSet next,
                             Evaluate(formula->child(i), structure));
        acc = acc.UnionWith(next, domain);
      }
      return acc;
    }
    case FormulaKind::kImplies: {
      // a -> b  ==  not (a and not b).
      WSV_ASSIGN_OR_RETURN(ValuationSet a,
                           Evaluate(formula->child(0), structure));
      WSV_ASSIGN_OR_RETURN(ValuationSet b,
                           Evaluate(formula->child(1), structure));
      return a.Join(b.ComplementWithin(domain)).ComplementWithin(domain);
    }
    case FormulaKind::kExists: {
      WSV_ASSIGN_OR_RETURN(ValuationSet body,
                           Evaluate(formula->body(), structure));
      return body.ProjectAway(formula->bound_variables());
    }
    case FormulaKind::kForall: {
      // forall x: phi  ==  not exists x: not phi, computed relationally:
      // extend phi's valuations with the bound variables, complement,
      // project the bound variables away, complement again.
      WSV_ASSIGN_OR_RETURN(ValuationSet body,
                           Evaluate(formula->body(), structure));
      ValuationSet extended = body.Extend(formula->bound_variables(), domain);
      ValuationSet violations = extended.ComplementWithin(domain)
                                    .ProjectAway(formula->bound_variables());
      return violations.ComplementWithin(domain);
    }
  }
  return Status::Internal("unhandled formula kind");
}

Result<bool> Evaluator::EvaluateSentence(const FormulaPtr& formula,
                                         const StructureView& structure) const {
  WSV_ASSIGN_OR_RETURN(ValuationSet result, Evaluate(formula, structure));
  if (!result.variables().empty()) {
    return Status::InvalidSpec("formula is not a sentence; free variables: " +
                               formula->ToString());
  }
  return result.IsSatisfiable();
}

Result<data::Relation> Evaluator::EvaluateQuery(
    const FormulaPtr& formula, const std::vector<std::string>& head_vars,
    const StructureView& structure) const {
  WSV_ASSIGN_OR_RETURN(ValuationSet result, Evaluate(formula, structure));
  // Free variables of the body must all be head variables (checked by spec
  // validation); head variables missing from the body range over the domain.
  return result.ToRelation(head_vars, structure.EvaluationDomain());
}

}  // namespace wsv::fo
