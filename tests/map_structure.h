#ifndef WSVERIFY_TESTS_MAP_STRUCTURE_H_
#define WSVERIFY_TESTS_MAP_STRUCTURE_H_

#include <string>
#include <unordered_map>
#include <utility>

#include "data/relation.h"
#include "data/value.h"
#include "fo/structure.h"

namespace wsv::fo {

/// A test structure backed by an explicit name -> relation map that owns
/// copies of its relations: the simplest possible StructureView, used to
/// hand-build structures and as the oracle the borrowed slot structures are
/// compared against.
class MapStructure : public StructureView {
 public:
  MapStructure() = default;

  /// Registers `relation` under `name` (replacing any previous binding).
  void Set(std::string name, data::Relation relation) {
    relations_[std::move(name)] = std::move(relation);
  }

  void SetDomain(data::Domain domain) { domain_ = std::move(domain); }

  const data::Relation* Find(const std::string& name) const override {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }

  const data::Domain& EvaluationDomain() const override { return domain_; }

  const std::unordered_map<std::string, data::Relation>& relations() const {
    return relations_;
  }

 private:
  std::unordered_map<std::string, data::Relation> relations_;
  data::Domain domain_;
};

}  // namespace wsv::fo

#endif  // WSVERIFY_TESTS_MAP_STRUCTURE_H_
