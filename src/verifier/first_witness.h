#ifndef WSVERIFY_VERIFIER_FIRST_WITNESS_H_
#define WSVERIFY_VERIFIER_FIRST_WITNESS_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/lock_profile.h"

namespace wsv::verifier {

/// The ordered-first-witness protocol of both sweep levels: the valuation
/// stage of VerificationEngine::CheckDatabases (valuations or valuation
/// classes) and ParallelSweep (databases). Items carry their index in the
/// serial order; lanes check them in increasing index order, and the
/// resolved outcome is the one a serial loop would report. One lane is the
/// serial loop.
///
/// Lanes ask Admits() before each item and report what it found. A witness
/// lowers the dispatch fence to its index (CAS-min), so every index below
/// the final fence was checked; a hard error or a stop (deadline, cancel,
/// memory budget) closes dispatch. Once every lane has drained, Resolve()
/// applies the serial order to what was recorded.
class FirstWitnessDispatch {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Lane ids passed to Budget() are below `lanes`; `lock_site` names the
  /// mutex of the error and stop records in the lock profile. A one-lane
  /// dispatch never contends, so it may pass null and build no lock site.
  FirstWitnessDispatch(size_t lanes, const char* lock_site)
      : budget_events_(lanes) {
    if (lock_site != nullptr) mu_.emplace(lock_site);
  }

  /// False once a hard error or a stop was recorded.
  bool open() const { return !closed_.load(std::memory_order_acquire); }

  /// True while item `index` must still be checked: dispatch is open and no
  /// witness at or below `index` was found.
  bool Admits(size_t index) const {
    return open() && index < fence_.load(std::memory_order_acquire);
  }

  /// Item `index` holds a witness.
  void Witness(size_t index);

  /// Item `index` failed. A stop status keeps the first stop recorded; any
  /// other status keeps the lowest-index hard error. Both close dispatch.
  void Fail(size_t index, const Status& status);

  /// Item `index`, checked on lane `lane`, was cut by the state budget.
  void Budget(size_t lane, size_t index, Status status);

  struct Verdict {
    /// The lowest witness index; kNone without a witness.
    size_t witness = kNone;
    /// The recorded stop. Without a witness it ends the sweep; beside one
    /// (a witness that raced the stop is still sound) it is the stop status
    /// and supersedes `budget`.
    std::optional<Status> stop;
    /// The budget status a serial loop ends with: it overwrites its status
    /// per event in index order and stops at the witness, so this is the
    /// highest-index event at or below the witness.
    std::optional<Status> budget;

    bool found() const { return witness != kNone; }
  };

  /// Call once every lane has drained. A hard error below the witness (or
  /// with no witness) is returned: the serial loop meets it first. One above
  /// the witness is hidden, as the serial loop never reaches it.
  Result<Verdict> Resolve() const;

 private:
  std::atomic<size_t> fence_{kNone};
  std::atomic<bool> closed_{false};
  /// (index, status) per lane; each lane appends only to its own list.
  std::vector<std::vector<std::pair<size_t, Status>>> budget_events_;
  std::optional<obs::TimedMutex> mu_;
  std::optional<Status> stop_;
  std::optional<std::pair<size_t, Status>> error_;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_FIRST_WITNESS_H_
