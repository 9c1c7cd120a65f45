#ifndef WSVERIFY_VERIFIER_ENGINE_H_
#define WSVERIFY_VERIFIER_ENGINE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "automata/buchi.h"
#include "common/interner.h"
#include "common/run_control.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/instance.h"
#include "data/value.h"
#include "fo/formula.h"
#include "runtime/run_options.h"
#include "spec/composition.h"
#include "verifier/checkpoint.h"
#include "verifier/product_search.h"

namespace wsv::verifier {

/// The valuation set |domain|^num_vars as an indexed generator instead of a
/// materialized list: index i mixed-radix decodes to one assignment of the
/// closure variables (position 0 is the least-significant digit, matching
/// the historical enumeration order), so memory stays O(1) regardless of
/// the instance count and the index doubles as the deterministic witness /
/// checkpoint key for parallel valuation sweeps.
class ValuationSpace {
 public:
  /// Zero variables: the single empty valuation (index 0).
  ValuationSpace() = default;

  /// Copies the domain's values and spellings, so the space stays valid
  /// independent of the interner's lifetime.
  ValuationSpace(const data::Domain& domain, const Interner& interner,
                 size_t num_vars);

  size_t num_vars() const { return num_vars_; }
  /// |domain|^num_vars, saturated at SIZE_MAX; 0 iff the domain is empty
  /// and num_vars > 0.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The domain in digit order: index digit d at position p means
  /// "closure variable p takes values()[d]".
  const std::vector<data::Value>& values() const { return values_; }
  /// The digit of `v` in values(), or -1 when no valuation takes `v`.
  int DigitOf(data::Value v) const;

  /// Decodes valuation `index` as interned values, aligned with the
  /// closure-variable order. `out` is overwritten (reuse it across calls to
  /// avoid reallocation).
  void DecodeValues(size_t index, std::vector<data::Value>* out) const;

  /// Decodes valuation `index` as constant spellings (the witness-label /
  /// rendering form), aligned with the closure-variable order.
  std::vector<std::string> DecodeSpellings(size_t index) const;

 private:
  std::vector<data::Value> values_;
  std::vector<std::string> spellings_;
  size_t num_vars_ = 0;
  size_t size_ = 1;
};

/// A symbolic verification task: one Büchi automaton accepting exactly the
/// violating runs, whose propositions are *open* FO formulas (leaves) over
/// the composition schema with free variables among `closure_variables`.
/// Each index of `valuations` instantiates the closure variables; the
/// automaton is shared across all instances, and per-snapshot leaf
/// satisfaction is computed once (relationally) and looked up per instance.
///
/// Verifier (LTL-FO, Theorem 3.4), ProtocolVerifier (Theorems 4.2/4.5) and
/// ModularVerifier (Theorem 5.4) all lower to this shape.
struct SymbolicTask {
  automata::BuchiAutomaton automaton{0};
  /// Proposition table: leaves[i] is the FO formula of PropId i.
  std::vector<fo::FormulaPtr> leaves;
  /// Universal-closure variables (substitution order of `valuations`).
  std::vector<std::string> closure_variables;
  /// The instance space (one instance per valuation index). The default
  /// space is the single empty valuation for tasks without closure
  /// variables.
  ValuationSpace valuations;
};

/// A database given by constant spellings: relation name -> tuples of
/// spellings. Used to pin verification to concrete databases (the verifier
/// interns the spellings into its pseudo-domain).
using NamedDatabase =
    std::map<std::string, std::vector<std::vector<std::string>>>;

/// The snapshot normalization of a property whose propositions are
/// `leaves`: the mover, event flags, actions and previous inputs are kept
/// exactly when some proposition (or, for previous inputs, some rule)
/// observes them.
SnapshotNormalization NormalizationForLeaves(
    const spec::Composition& comp, const std::vector<fo::FormulaPtr>& leaves);

/// Materializes one NamedDatabase per peer into instances over `interner`,
/// interning unseen spellings and adding them to `domain`.
Result<std::vector<data::Instance>> MaterializeDatabases(
    const spec::Composition& comp, const std::vector<NamedDatabase>& named,
    Interner& interner, data::Domain& domain);

/// The pseudo-domain of a verification task: every specification constant
/// plus `fresh_count` fresh elements (spelled "#1", "#2", ...).
struct PseudoDomain {
  Interner interner;
  data::Domain domain;
  std::vector<data::Value> fresh;
};

/// Builds the pseudo-domain for `comp` with the given extra constants (from
/// the property / protocol / environment spec).
PseudoDomain BuildPseudoDomain(const spec::Composition& comp,
                               const std::set<std::string>& extra_constants,
                               size_t fresh_count);

/// How the engine covers the valuation space of one database.
enum class ValuationMode {
  /// Enumerate every mixed-radix index (the historical fan-out).
  kConcrete,
  /// Partition the space into leaf-signature equivalence classes — two
  /// valuations inducing the same truth assignment on every property leaf
  /// at every reachable snapshot are indistinguishable to the Büchi
  /// product — and run one product search per class, on the class's least
  /// index. Verdicts, witness indices, labels and coverage are bit-for-bit
  /// identical to kConcrete; aggregate search statistics (searches,
  /// prefilter memo traffic) reflect the smaller class count. Falls back
  /// to the concrete loop when the snapshot graph is incomplete (symbolic
  /// partitioning needs the sealed leaf cache) or the space saturated.
  kSymbolic,
  /// kSymbolic, but additionally falls back to kConcrete when the class
  /// count fails to collapse the span (classes * 2 > indices), so the
  /// partition overhead is never paid twice on incompressible spaces.
  kAuto,
};

/// Parses "concrete" / "symbolic" / "auto"; empty result on anything else.
std::optional<ValuationMode> ValuationModeFromName(const std::string& name);
const char* ValuationModeName(ValuationMode mode);

/// How the sweep treats a database whose check fails hard (an exception
/// such as std::bad_alloc, or a non-budget error status).
enum class OnDbError {
  /// Abort the whole sweep and surface the error (legacy behavior).
  kAbort,
  /// Retry the database once; if it fails again, record its index in the
  /// outcome's failed list and keep sweeping. A clean pass then degrades to
  /// a bounded verdict (StopReason::kDbFailures); a found violation is
  /// still a sound VIOLATION.
  kSkip,
};

struct EngineOptions {
  runtime::RunOptions run;
  bool iso_reduction = true;
  /// Exclusive bound on the enumeration in ABSOLUTE canonical indices:
  /// databases with index >= max_databases are never dispatched, counted
  /// from index 0 regardless of any resume offset or range lower bound.
  size_t max_databases = static_cast<size_t>(-1);
  /// Absolute half-open slice [db_range_lo, db_range_hi) of the canonical
  /// database enumeration this run checks — one shard's work unit. The
  /// defaults cover the whole enumeration. A sweep cut short by the upper
  /// bound (with more databases beyond it) stops with StopReason::kRangeEnd;
  /// a sweep whose enumerator is exhausted inside the range stops kComplete,
  /// which is the attestation a merge needs that the space ends in-range.
  size_t db_range_lo = 0;
  size_t db_range_hi = static_cast<size_t>(-1);
  /// Half-open slice of the valuation space, legal only together with
  /// fixed_databases (a pinned-database valuation shard); Run() rejects it
  /// on database sweeps — those shard with db_range instead.
  size_t valuation_range_lo = 0;
  size_t valuation_range_hi = static_cast<size_t>(-1);
  /// Walk the enumeration without checking anything and report its size in
  /// EngineOutcome::enumeration_count (canonical databases, or valuations
  /// when fixed_databases is set). Shard coordinators use this to split
  /// ranges evenly.
  bool count_only = false;
  /// Valuation coverage strategy (see ValuationMode). The default keeps
  /// the concrete loop; kSymbolic/kAuto collapse it to per-class checks.
  ValuationMode valuation_mode = ValuationMode::kConcrete;
  SearchBudget budget;
  /// Global worker budget for the two-level scheduler. 1 = serial
  /// (default); 0 = hardware concurrency. One shared ThreadPool feeds both
  /// levels — whole databases in the across-database sweep AND, within each
  /// database, the parallel graph exploration plus chunked valuation
  /// fan-out — so N is a cap with no oversubscription. Every parallel path
  /// is deterministic: the verdict, witness database/valuation indices,
  /// label and lasso always match the serial run's (aggregate statistics
  /// such as databases_checked may exceed them — see ParallelSweep).
  size_t jobs = 1;
  /// Verify against these databases only (skips enumeration).
  std::optional<std::vector<data::Instance>> fixed_databases;

  /// Deadline/cancellation token polled by every pipeline loop (not owned;
  /// may be null). A stop ends the run with a partial outcome: stop_reason
  /// kDeadline / kCanceled, covering the completed database prefix.
  RunControl* control = nullptr;
  /// Fault isolation policy for per-database check failures in the sweep.
  OnDbError on_db_error = OnDbError::kAbort;

  /// When non-empty, the sweep persists progress checkpoints here (atomic
  /// temp-file + rename) every `checkpoint_every` completed databases and
  /// once more when the sweep ends, stamped with `checkpoint_fingerprint`.
  std::string checkpoint_path;
  std::string checkpoint_fingerprint;
  size_t checkpoint_every = 64;
  /// Resume support: skip checking databases [0, resume_prefix) — the
  /// enumerator still walks them so indices stay aligned with an
  /// uninterrupted run — and carry `resume_failed` (indices inside that
  /// prefix that a previous run skipped) into the outcome's failed list.
  size_t resume_prefix = 0;
  std::vector<size_t> resume_failed;
  /// Coverage intervals inherited from a resumed checkpoint (absolute
  /// indices, normalized); unioned into the outcome's covered set and into
  /// persisted checkpoints. Callers set resume_prefix to
  /// ResumeStart(resume_covered, db_range_lo) so dispatch skips the covered
  /// run containing the range start.
  std::vector<IndexInterval> resume_covered;
};

/// Wall time spent in each pipeline phase during one engine run, in
/// nanoseconds. Zero when phase timing is disabled
/// (obs::Registry::Global().timing_enabled()). Phases measure code regions
/// and may nest (leaf evaluation runs lazily under graph expansion and
/// NDFS), so they are not a partition of the total.
struct PhaseTimings {
  uint64_t db_enum_ns = 0;
  uint64_t graph_expand_ns = 0;
  uint64_t leaf_eval_ns = 0;
  uint64_t prefilter_ns = 0;
  uint64_t ndfs_ns = 0;
};

/// Outcome of an engine run; the caller wraps it into the public
/// VerificationResult types.
struct EngineOutcome {
  bool violation_found = false;
  /// Set when violation_found.
  std::vector<data::Instance> databases;
  std::vector<std::string> label;
  LassoWitness lasso;
  /// Position of the witness database in enumeration order (SIZE_MAX when
  /// no violation). Identical across serial and parallel sweeps.
  size_t violation_db_index = static_cast<size_t>(-1);
  /// Index of the witness valuation in ValuationSpace order (SIZE_MAX when
  /// no violation). Identical across serial and parallel valuation
  /// fan-outs: the reported witness is always the lowest-index one.
  size_t violation_valuation_index = static_cast<size_t>(-1);

  /// Worker threads the sweep actually ran with (EngineOptions::jobs after
  /// resolving 0 to the hardware concurrency).
  size_t jobs = 1;

  size_t databases_checked = 0;
  size_t searches = 0;
  /// Instances discharged by the rigid-proposition emptiness prefilter
  /// without a state-space search.
  size_t prefiltered = 0;
  /// Prefilter memo lookups: distinct truth-status vectors computed versus
  /// reused across valuations.
  size_t prefilter_memo_misses = 0;
  size_t prefilter_memo_hits = 0;
  SearchStats search_stats;
  PhaseTimings timings;
  /// Why the run is not complete: budget exhaustion (kBudgetExceeded),
  /// deadline (kDeadlineExceeded), cancellation (kCanceled) or skipped
  /// database failures (kPartialFailure). OK when stop_reason == kComplete.
  /// Generalizes the old budget_status field.
  Status stop_status = Status::Ok();
  /// stop_status, classified (kComplete / kBudget / kDeadline / kCanceled /
  /// kDbFailures).
  StopReason stop_reason = StopReason::kComplete;
  /// High-water mark of the contiguous completed run starting at the
  /// dispatch origin (the resume/range start; index 0 for a whole-space
  /// run): every index from the origin up to here was checked or recorded
  /// as failed. Includes any resumed prefix.
  size_t completed_prefix = 0;
  /// Disjoint covered intervals of the enumeration order (absolute
  /// half-open indices, normalized), including resumed coverage; capped
  /// below the witness when a violation is found, mirroring the persisted
  /// checkpoint so a resume re-finds the witness. Unit: coverage_unit.
  std::vector<IndexInterval> covered;
  /// What `covered` indexes: "database" for sweeps, "valuation" for
  /// pinned-database runs.
  std::string coverage_unit = "database";
  /// Count-only mode (EngineOptions::count_only): the size of the full
  /// enumeration space; zero otherwise.
  size_t enumeration_count = 0;
  /// Indices whose checks failed hard and were skipped (OnDbError::kSkip),
  /// sorted; includes EngineOptions::resume_failed.
  std::vector<size_t> failed_db_indices;
  /// Per-database check retries performed by the fault-isolated sweep.
  size_t db_retries = 0;
};

/// Runs the symbolic task against every database over the pseudo-domain
/// (canonical representatives only, when iso_reduction), stopping at the
/// first violation. Per database: the configuration graph is explored once
/// and shared by all instances; instances whose automaton is empty after
/// fixing the database-rigid propositions are skipped without search.
///
/// Databases are swept by ParallelSweep and, within each database, the
/// valuations by the chunked valuation stage of CheckDatabases; both follow
/// one ordered-first-witness protocol (FirstWitnessDispatch), and jobs = 1
/// is its one-lane case. Workers check against private accumulators; the
/// task, composition, interner and domain are shared read-only.
class VerificationEngine {
 public:
  /// `comp` and `interner` must outlive the engine. `fresh` are the
  /// pseudo-domain elements permutations may move.
  VerificationEngine(const spec::Composition* comp, const Interner* interner,
                     data::Domain domain, std::vector<data::Value> fresh,
                     EngineOptions options);

  Result<EngineOutcome> Run(SymbolicTask& task);

  /// The per-database checking step of the sweep: explores the
  /// configuration graph for `dbs` and runs the task instances of the
  /// valuation slice [v_lo, v_hi) against it, accumulating into `outcome`.
  /// Returns true when a witness was recorded (outcome.databases/label/
  /// lasso; the caller assigns the index). `db_index` labels the trace
  /// span. Thread-safe for concurrent calls with distinct `outcome` objects.
  Result<bool> CheckDatabases(const SymbolicTask& task, size_t v_lo,
                              size_t v_hi,
                              const std::vector<data::Instance>& dbs,
                              size_t db_index, EngineOutcome& outcome);

 private:
  struct ValuationLane;
  struct ValuationContext;
  /// Checks one item of the valuation stage's work list on `lane`: true
  /// when it holds a witness (kept as the lane's candidate), a
  /// kBudgetExceeded status when the state budget cut its search. `weight`
  /// is the number of valuation indices the item stands for: 1 in concrete
  /// mode, the class size in symbolic mode (coverage counters scale by it;
  /// the search itself runs once, on `index`).
  Result<bool> CheckOneValuation(const ValuationContext& ctx, size_t index,
                                 ValuationLane& lane, size_t weight);

  const spec::Composition* comp_;
  const Interner* interner_;
  data::Domain domain_;
  std::vector<data::Value> fresh_;
  EngineOptions options_;
  /// The shared two-level scheduler: set by Run() for the duration of a
  /// sweep (borrowed, never owned here), consumed by CheckDatabases for
  /// graph exploration, leaf sealing and valuation fan-out. lanes_ is the
  /// global --jobs budget (callers + pool helpers).
  ThreadPool* pool_ = nullptr;
  size_t lanes_ = 1;
};

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_ENGINE_H_
