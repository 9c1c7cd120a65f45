#include "data/relation.h"

#include <algorithm>
#include <cassert>

namespace wsv::data {

Relation::Relation(size_t arity, std::vector<Tuple> tuples)
    : arity_(arity), tuples_(std::move(tuples)) {
  for ([[maybe_unused]] const Tuple& t : tuples_) {
    assert(t.arity() == arity_ && "tuple arity mismatch");
  }
  std::sort(tuples_.begin(), tuples_.end());
  tuples_.erase(std::unique(tuples_.begin(), tuples_.end()), tuples_.end());
}

bool Relation::Insert(const Tuple& t) {
  assert(t.arity() == arity_ && "tuple arity mismatch");
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, t);
  return true;
}

bool Relation::Erase(const Tuple& t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || !(*it == t)) return false;
  tuples_.erase(it);
  return true;
}

void Relation::AssignSorted(std::vector<Tuple> tuples) {
  tuples_ = std::move(tuples);
  CheckSorted();
}

void Relation::AssignSortedRows(const Value* rows, size_t count) {
  tuples_.clear();
  tuples_.reserve(count);
  for (size_t t = 0; t < count; ++t, rows += arity_) {
    tuples_.emplace_back(rows, arity_);
  }
  CheckSorted();
}

void Relation::CheckSorted() const {
#ifndef NDEBUG
  for (size_t i = 0; i < tuples_.size(); ++i) {
    assert(tuples_[i].arity() == arity_ && "tuple arity mismatch");
    assert((i == 0 || tuples_[i - 1] < tuples_[i]) &&
           "AssignSorted requires sorted unique tuples");
  }
#endif
}

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

void Relation::CollectActiveDomain(Domain& domain) const {
  for (const Tuple& t : tuples_) {
    for (Value v : t) domain.Add(v);
  }
}

Relation Relation::Union(const Relation& other) const {
  assert(arity_ == other.arity_);
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  std::set_union(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                 other.tuples_.end(), std::back_inserter(merged));
  Relation out(arity_);
  out.tuples_ = std::move(merged);
  return out;
}

Relation Relation::Difference(const Relation& other) const {
  assert(arity_ == other.arity_);
  std::vector<Tuple> diff;
  std::set_difference(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                      other.tuples_.end(), std::back_inserter(diff));
  Relation out(arity_);
  out.tuples_ = std::move(diff);
  return out;
}

Relation Relation::Intersection(const Relation& other) const {
  assert(arity_ == other.arity_);
  std::vector<Tuple> inter;
  std::set_intersection(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                        other.tuples_.end(), std::back_inserter(inter));
  Relation out(arity_);
  out.tuples_ = std::move(inter);
  return out;
}

std::string Relation::ToString(const Interner& interner) const {
  std::string out = "{";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuples_[i].ToString(interner);
  }
  out += "}";
  return out;
}

size_t Relation::Hash() const {
  size_t seed = 0x100003bULL + arity_;
  TupleHash th;
  for (const Tuple& t : tuples_) HashCombine(seed, th(t));
  return seed;
}

}  // namespace wsv::data
