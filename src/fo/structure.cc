#include "fo/structure.h"

namespace wsv::fo {

size_t SlotNames::Add(const std::string& name) {
  auto [it, inserted] =
      slots_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

}  // namespace wsv::fo
