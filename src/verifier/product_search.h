#ifndef WSVERIFY_VERIFIER_PRODUCT_SEARCH_H_
#define WSVERIFY_VERIFIER_PRODUCT_SEARCH_H_

#include <optional>
#include <vector>

#include "automata/buchi.h"
#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/run_control.h"
#include "common/status.h"
#include "fo/formula.h"
#include "verifier/snapshot_graph.h"

namespace wsv::verifier {

struct SearchBudget {
  /// Cap on distinct product states explored (per search).
  size_t max_states = 1000000;
  /// Optional deadline/cancellation token, polled every ~1k product-state
  /// expansions; a stop aborts the search with the token's stop status
  /// (kDeadlineExceeded / kCanceled). Not owned; may be null.
  RunControl* control = nullptr;
};

/// Counters accumulated across every search of one engine run. The same
/// numbers are mirrored into the global obs::Registry (dot-namespaced
/// "graph.*", "leafcache.*", "ndfs.*") for the stats-JSON/trace exports;
/// this struct is the in-process API surface (benches, tests, callers).
struct SearchStats {
  /// Distinct configuration-graph snapshots interned (per database).
  size_t snapshots = 0;
  /// Distinct product states interned across all searches.
  size_t product_states = 0;
  /// Product transitions generated across all searches.
  size_t transitions = 0;
  /// Configuration-graph edges computed (successor-set sizes summed).
  size_t graph_transitions = 0;
  /// Per-snapshot leaf-table lookups served from the LeafCache...
  size_t leaf_cache_hits = 0;
  /// ...versus evaluation passes that had to run the relational evaluator.
  size_t leaf_cache_misses = 0;
  /// Inner (cycle-detection) DFS launches of the nested DFS.
  size_t inner_searches = 0;
  /// Searches aborted by the product-state budget.
  size_t budget_hits = 0;

  SearchStats& operator+=(const SearchStats& other) {
    snapshots += other.snapshots;
    product_states += other.product_states;
    transitions += other.transitions;
    graph_transitions += other.graph_transitions;
    leaf_cache_hits += other.leaf_cache_hits;
    leaf_cache_misses += other.leaf_cache_misses;
    inner_searches += other.inner_searches;
    budget_hits += other.budget_hits;
    return *this;
  }
};

/// A violating run witness: a finite prefix from an initial snapshot
/// followed by a cycle repeated forever (cycle[0] == prefix.back()).
struct LassoWitness {
  std::vector<runtime::Snapshot> prefix;
  std::vector<runtime::Snapshot> cycle;
};

/// The core model-checking engine (DESIGN.md §5 step 5): on-the-fly nested
/// depth-first search (Courcoubetis-Vardi-Wolper-Yannakakis) over the
/// product of a SnapshotGraph with a Büchi automaton whose propositions are
/// open FO leaf formulas; this search instantiates them with one fixed
/// closure valuation, answered by tuple lookups into the shared LeafCache.
///
/// Every client reduces to this engine: LTL-FO verification (automaton of
/// the negated property), conversation protocols (complement of the
/// protocol automaton over received_<Q> events), and modular verification
/// (automaton of env-spec ∧ ¬property). All searches (one per
/// closure-variable valuation) share one SnapshotGraph and LeafCache, so the
/// configuration graph is expanded and the leaves evaluated once per
/// database.
class ProductSearch {
 public:
  /// A transition guard compiled to a literal cube over the (<= 64)
  /// propositions: the guard holds iff (bits & pos) == pos and
  /// (bits & neg) == 0 — two masked compares instead of a PropExpr tree
  /// walk. GPVW and protocol complementation emit exactly such cubes, so
  /// the fallback (cube == false, walk the tree) is rare.
  struct CompiledGuard {
    uint64_t pos = 0;
    uint64_t neg = 0;
    bool cube = false;
  };
  /// guards[q][k] compiles automaton->transitions_from(q)[k].guard.
  using GuardTable = std::vector<std::vector<CompiledGuard>>;

  /// Compiles every transition guard of `automaton` once. The table
  /// depends only on the automaton, so callers that run many searches
  /// against the same automaton (one per closure valuation) should build
  /// it once and pass it to every search.
  static GuardTable CompileGuards(const automata::BuchiAutomaton& automaton);

  /// All pointers must outlive the search. `automaton` must be plain
  /// (1 acceptance set). `leaf_rows[i]` is this instance's valuation
  /// projected to leaf i's free variables (sorted), as interned values.
  /// `shared_guards`, if non-null, must be CompileGuards(*automaton);
  /// when null the search compiles its own table.
  ProductSearch(SnapshotGraph* graph, LeafCache* leaf_cache,
                const automata::BuchiAutomaton* automaton,
                std::vector<data::Tuple> leaf_rows, SearchBudget budget,
                const GuardTable* shared_guards = nullptr);

  /// Searches for a run of the composition accepted by the automaton.
  /// nullopt = no such run (property holds / protocol satisfied).
  Result<std::optional<LassoWitness>> FindAcceptedRun(SearchStats* stats);

 private:
  using ProductId = uint32_t;

  enum class Color : uint8_t { kWhite, kCyan, kBlue };

  /// Computes (and caches) the leaf valuation of `sid`, returning it packed
  /// into a bit mask for the compiled cube guards. When some guard is not a
  /// cube (all_cubes_ == false) the unpacked vector<bool> is additionally
  /// materialized in valuations_[sid] for PropExpr::Eval.
  Result<uint64_t> ValuationBits(SnapshotId sid);
  ProductId InternProduct(SnapshotId sid, automata::StateId q);
  Result<std::vector<ProductId>> ProductSuccessors(ProductId pid);
  Result<std::optional<std::vector<ProductId>>> InnerDfs(ProductId seed);

  SnapshotGraph* graph_;
  LeafCache* leaf_cache_;
  const automata::BuchiAutomaton* automaton_;
  std::vector<data::Tuple> leaf_rows_;
  SearchBudget budget_;

  /// Unpacked leaf valuations, materialized only when some guard needs a
  /// PropExpr tree walk (all_cubes_ == false); the common all-cube case
  /// never allocates a vector<bool> per snapshot.
  std::vector<std::optional<std::vector<bool>>> valuations_;
  /// Packed leaf valuation per snapshot (valid where val_ready_), consumed
  /// by the compiled cube guards.
  std::vector<uint64_t> val_bits_;
  std::vector<uint8_t> val_ready_;
  /// Points at the shared table when one was supplied, else at
  /// owned_guards_ (compiled in the constructor).
  const GuardTable* guards_;
  GuardTable owned_guards_;
  /// Every guard (including those on initial states) compiled to a cube —
  /// the search then runs entirely on packed bits.
  bool all_cubes_ = false;

  std::vector<std::pair<SnapshotId, automata::StateId>> product_states_;
  FlatIdSet product_ids_;
  std::vector<Color> color_;
  std::vector<bool> inner_visited_;
  size_t transitions_ = 0;
  size_t inner_searches_ = 0;
  size_t control_polls_ = 0;
};

/// True iff some proposition observes snapshot bookkeeping with the given
/// relation-name prefix ("move_", "received_", "sent_") — used to decide
/// whether SnapshotGraph may normalize it away.
bool AnyPropositionMentionsPrefix(
    const std::vector<fo::FormulaPtr>& propositions, std::string_view prefix);

}  // namespace wsv::verifier

#endif  // WSVERIFY_VERIFIER_PRODUCT_SEARCH_H_
