#ifndef WSVERIFY_OBS_OBS_H_
#define WSVERIFY_OBS_OBS_H_

// Umbrella header for the observability subsystem (DESIGN: the measurement
// backbone of the verification pipeline):
//
//   metrics.h      — Counter / Histogram / TimerStat and the named Registry
//   timer.h        — NowNanos(), the RAII PhaseTimer, and the phase tree
//   trace.h        — Chrome trace-event recorder (chrome://tracing, Perfetto)
//   progress.h     — periodic stderr heartbeat (rates + ETA)
//   stats_json.h   — versioned stats-JSON document (schema v2)
//   json_util.h    — streaming JSON writer + syntactic validator
//   lock_profile.h — TimedMutex contention accounting
//
// Conventions: counters and histograms are dot-namespaced by pipeline stage
// ("engine.", "dbenum.", "graph.", "leafcache.", "ndfs.", "sim."); phase
// timers live under "phase.", lock sites under "lock.<site>.". Counters are
// always collected (an increment each); phase timing, tracing, and the
// heartbeat are opt-in and cost one branch when off. Lock accounting
// compiles to a plain mutex when WSV_PROFILE is off; per-worker time
// ledgers live in common/ledger.h so the thread pool can record without a
// dependency on this library.

#include "obs/json_util.h"     // IWYU pragma: export
#include "obs/lock_profile.h"  // IWYU pragma: export
#include "obs/metrics.h"       // IWYU pragma: export
#include "obs/progress.h"      // IWYU pragma: export
#include "obs/stats_json.h"    // IWYU pragma: export
#include "obs/timer.h"         // IWYU pragma: export
#include "obs/trace.h"         // IWYU pragma: export

#endif  // WSVERIFY_OBS_OBS_H_
