#ifndef WSVERIFY_DATA_RELATION_H_
#define WSVERIFY_DATA_RELATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/interner.h"
#include "data/tuple.h"
#include "data/value.h"

namespace wsv::data {

/// A finite relation instance: a set of same-arity tuples, kept sorted for
/// canonical comparison and hashing. Set semantics (no duplicates).
class Relation {
 public:
  /// Constructs the empty relation of the given arity.
  explicit Relation(size_t arity = 0) : arity_(arity) {}

  /// Constructs from tuples (must all have arity `arity`); sorts and dedups.
  Relation(size_t arity, std::vector<Tuple> tuples);

  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts `t`; returns true if it was not already present.
  /// `t.arity()` must equal `arity()`.
  bool Insert(const Tuple& t);

  /// Removes `t`; returns true if it was present.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const;

  const std::vector<Tuple>& tuples() const { return tuples_; }
  auto begin() const { return tuples_.begin(); }
  auto end() const { return tuples_.end(); }

  /// Removes all tuples.
  void Clear() { tuples_.clear(); }

  /// Replaces the contents wholesale with `tuples`, which must already be
  /// sorted, duplicate-free, and of matching arity (checked in debug
  /// builds). The flat-snapshot decode path rebuilds relations from their
  /// canonical encodings, which are sorted by construction, so re-sorting
  /// per decode would be pure waste.
  void AssignSorted(std::vector<Tuple> tuples);

  /// As AssignSorted, from `count` rows of arity() values laid out back to
  /// back at `rows`. Reuses the tuple storage: once the relation has held
  /// `count` tuples, reassigning allocates nothing.
  void AssignSortedRows(const Value* rows, size_t count);

  /// Adds every element appearing in some tuple to `domain`.
  void CollectActiveDomain(Domain& domain) const;

  /// Set union / difference / intersection with a same-arity relation.
  Relation Union(const Relation& other) const;
  Relation Difference(const Relation& other) const;
  Relation Intersection(const Relation& other) const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.tuples_ == b.tuples_;
  }
  friend bool operator<(const Relation& a, const Relation& b) {
    return a.tuples_ < b.tuples_;
  }

  /// Renders "{(a,b), (c,d)}".
  std::string ToString(const Interner& interner) const;

  size_t Hash() const;

 private:
  /// Debug-build check of the AssignSorted precondition.
  void CheckSorted() const;

  size_t arity_;
  std::vector<Tuple> tuples_;  // sorted, unique
};

struct RelationHash {
  size_t operator()(const Relation& r) const { return r.Hash(); }
};

}  // namespace wsv::data

#endif  // WSVERIFY_DATA_RELATION_H_
