#include "verifier/first_witness.h"

#include <mutex>

#include "common/run_control.h"

namespace wsv::verifier {

void FirstWitnessDispatch::Witness(size_t index) {
  // CAS-min: another lane may have found an earlier witness concurrently.
  size_t cur = fence_.load(std::memory_order_acquire);
  while (index < cur &&
         !fence_.compare_exchange_weak(cur, index, std::memory_order_acq_rel)) {
  }
}

void FirstWitnessDispatch::Fail(size_t index, const Status& status) {
  std::optional<std::lock_guard<obs::TimedMutex>> lock;
  if (mu_.has_value()) lock.emplace(*mu_);
  if (RunControl::IsStopStatus(status)) {
    if (!stop_.has_value()) stop_ = status;
  } else if (!error_.has_value() || index < error_->first) {
    error_ = {index, status};
  }
  closed_.store(true, std::memory_order_release);
}

void FirstWitnessDispatch::Budget(size_t lane, size_t index, Status status) {
  budget_events_[lane].emplace_back(index, std::move(status));
}

Result<FirstWitnessDispatch::Verdict> FirstWitnessDispatch::Resolve() const {
  Verdict verdict;
  verdict.witness = fence_.load(std::memory_order_acquire);
  if (error_.has_value() && error_->first < verdict.witness) {
    return error_->second;
  }
  verdict.stop = stop_;
  const std::pair<size_t, Status>* last = nullptr;
  for (const auto& events : budget_events_) {
    for (const auto& event : events) {
      if (event.first > verdict.witness) continue;
      if (last == nullptr || event.first > last->first) last = &event;
    }
  }
  if (last != nullptr) verdict.budget = last->second;
  return verdict;
}

}  // namespace wsv::verifier
