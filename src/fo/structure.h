#ifndef WSVERIFY_FO_STRUCTURE_H_
#define WSVERIFY_FO_STRUCTURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/relation.h"
#include "data/value.h"

namespace wsv::fo {

/// A relational structure against which FO formulas are evaluated.
///
/// Implementations map relation names to relation instances and fix the
/// element domain over which quantifiers range. In the paper's semantics,
/// quantifiers range over the active domain of the run; during verification,
/// the evaluation domain is the pseudo-domain computed from the
/// specification (Section 3.1 / DESIGN.md §5).
class StructureView {
 public:
  virtual ~StructureView() = default;

  /// Returns the relation named `name`, or nullptr if this structure does
  /// not define it.
  virtual const data::Relation* Find(const std::string& name) const = 0;

  /// Domain of quantification.
  virtual const data::Domain& EvaluationDomain() const = 0;
};

/// A fixed name -> slot table, built once per structure shape and shared by
/// every SlotStructure of that shape.
class SlotNames {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Returns the slot of `name`, adding a new slot for a new name. A
  /// repeated name keeps its slot, so whoever binds slots in Add order lets
  /// the later binding win.
  size_t Add(const std::string& name);

  /// The slot of `name`, or kNone.
  size_t Lookup(const std::string& name) const {
    auto it = slots_.find(name);
    return it == slots_.end() ? kNone : it->second;
  }

  size_t size() const { return names_.size(); }
  const std::string& name(size_t slot) const { return names_[slot]; }

 private:
  std::unordered_map<std::string, uint32_t> slots_;
  std::vector<std::string> names_;  // by slot
};

/// A structure whose slots borrow relations owned elsewhere (a snapshot,
/// the databases, shared constants). Binding a slot copies one pointer, so
/// one structure can be re-pointed at snapshot after snapshot without
/// copying any relation. Every bound relation, the name table and the
/// domain must outlive each Find.
class SlotStructure : public StructureView {
 public:
  SlotStructure(const SlotNames* names, const data::Domain* domain)
      : names_(names), slots_(names->size(), nullptr), domain_(domain) {}

  const SlotNames& names() const { return *names_; }

  void Bind(size_t slot, const data::Relation* relation) {
    slots_[slot] = relation;
  }

  const data::Relation* Find(const std::string& name) const override {
    size_t slot = names_->Lookup(name);
    return slot == SlotNames::kNone ? nullptr : slots_[slot];
  }

  const data::Domain& EvaluationDomain() const override { return *domain_; }

 private:
  const SlotNames* names_;
  std::vector<const data::Relation*> slots_;
  const data::Domain* domain_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_FO_STRUCTURE_H_
