#include "common/arena.h"

#include <algorithm>

#include "common/fault.h"

namespace wsv {

void Arena::Grow(size_t min_words) {
  // Recycle a retained chunk when one is big enough (post-Reset path).
  while (chunk_index_ + 1 < chunks_.size()) {
    ++chunk_index_;
    Chunk& next = chunks_[chunk_index_];
    if (next.words >= min_words) {
      top_ = next.data.get();
      end_ = top_ + next.words;
      return;
    }
  }
  // The cold path is the only place the arena touches the system allocator,
  // so it is both the fault-injection site for simulated OOM and the spot
  // where a real bad_alloc gets rewrapped into the memory-budget taxonomy.
  if (WSV_FAULT_POINT("arena.alloc")) {
    throw fault::MemoryBudgetError(
        "arena chunk allocation failed (injected fault 'arena.alloc')");
  }
  size_t words = std::max(min_words, chunk_bytes_ / sizeof(uint32_t));
  Chunk chunk;
  try {
    chunk = Chunk{std::make_unique_for_overwrite<uint32_t[]>(words), words};
  } catch (const std::bad_alloc&) {
    throw fault::MemoryBudgetError(
        "arena chunk allocation of " +
        std::to_string(words * sizeof(uint32_t)) + " bytes failed");
  }
  chunks_.push_back(std::move(chunk));
  capacity_words_ += words;
  chunk_index_ = chunks_.size() - 1;
  top_ = chunks_.back().data.get();
  end_ = top_ + words;
}

}  // namespace wsv
