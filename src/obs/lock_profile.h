#ifndef WSVERIFY_OBS_LOCK_PROFILE_H_
#define WSVERIFY_OBS_LOCK_PROFILE_H_

#include <cstdint>
#include <mutex>

#include "common/ledger.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace wsv::obs {

/// One named lock site, reporting under the stable counter scheme
///
///   lock.<site>.acquisitions  every successful lock()
///   lock.<site>.contended     acquisitions that had to wait
///   lock.<site>.wait_ns       total nanoseconds spent waiting
///
/// Sites are shared by name: every TimedMutex constructed with the same
/// site string feeds the same three counters (the eight PrefilterMemo shard
/// mutexes are one site). Contended wait time is additionally attributed to
/// the waiting thread's WorkerLedger lock_wait bucket.
class LockSite {
 public:
  /// Returns the process-wide site for `name`, creating it on first use.
  /// The reference stays valid for the process lifetime.
  static LockSite& ForName(const char* name);

  void RecordUncontended() { acquisitions_.Add(1); }
  void RecordContended(uint64_t wait_ns) {
    acquisitions_.Add(1);
    contended_.Add(1);
    wait_ns_.Add(wait_ns);
    LedgerRegistry::AddLockWait(wait_ns);
  }

 private:
  explicit LockSite(const std::string& site);

  Counter& acquisitions_;
  Counter& contended_;
  Counter& wait_ns_;
};

/// A std::mutex that counts acquisitions and contended waits against a
/// named LockSite. Satisfies Lockable, so std::lock_guard / unique_lock /
/// condition_variable_any work unchanged. Compiled with WSV_PROFILE off it
/// is a plain mutex: the site is never resolved, no counters are
/// registered, and lock() is a direct passthrough.
///
/// The fast path is a try_lock: an uncontended acquisition costs one
/// relaxed counter increment and reads no clock.
class TimedMutex {
 public:
  explicit TimedMutex([[maybe_unused]] const char* site)
#ifdef WSV_PROFILE
      : site_(&LockSite::ForName(site))
#endif
  {
  }

  TimedMutex(const TimedMutex&) = delete;
  TimedMutex& operator=(const TimedMutex&) = delete;

  void lock() {
#ifdef WSV_PROFILE
    if (mu_.try_lock()) {
      site_->RecordUncontended();
      return;
    }
    int64_t start = NowNanos();
    mu_.lock();
    site_->RecordContended(static_cast<uint64_t>(NowNanos() - start));
#else
    mu_.lock();
#endif
  }

  bool try_lock() {
    bool acquired = mu_.try_lock();
#ifdef WSV_PROFILE
    if (acquired) site_->RecordUncontended();
#endif
    return acquired;
  }

  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
#ifdef WSV_PROFILE
  LockSite* site_;
#endif
};

}  // namespace wsv::obs

#endif  // WSVERIFY_OBS_LOCK_PROFILE_H_
