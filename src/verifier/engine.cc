#include "verifier/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "automata/emptiness.h"
#include "common/thread_pool.h"
#include "fo/bdd.h"
#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timer.h"
#include "runtime/transition.h"
#include "verifier/checkpoint.h"
#include "verifier/db_enum.h"
#include "verifier/first_witness.h"
#include "verifier/parallel_sweep.h"

namespace wsv::verifier {

Result<std::vector<data::Instance>> MaterializeDatabases(
    const spec::Composition& comp, const std::vector<NamedDatabase>& named,
    Interner& interner, data::Domain& domain) {
  if (named.size() != comp.peers().size()) {
    return Status::InvalidSpec(
        "fixed databases: expected one database per peer (" +
        std::to_string(comp.peers().size()) + "), got " +
        std::to_string(named.size()));
  }
  std::vector<data::Instance> out;
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const data::Schema& schema = comp.peers()[p].database_schema();
    data::Instance inst(&schema);
    for (const auto& [relation, tuples] : named[p]) {
      size_t idx = schema.IndexOf(relation);
      if (idx == data::Schema::kNpos) {
        return Status::NotFound("fixed database for peer '" +
                                comp.peers()[p].name() +
                                "' mentions unknown relation '" + relation +
                                "'");
      }
      for (const std::vector<std::string>& tuple : tuples) {
        if (tuple.size() != schema.relation(idx).arity()) {
          return Status::InvalidSpec("fixed database tuple arity mismatch in "
                                     "relation '" +
                                     relation + "'");
        }
        std::vector<data::Value> row;
        row.reserve(tuple.size());
        for (const std::string& spelling : tuple) {
          data::Value v = interner.Intern(spelling);
          domain.Add(v);
          row.push_back(v);
        }
        inst.relation(idx).Insert(data::Tuple(std::move(row)));
      }
    }
    out.push_back(std::move(inst));
  }
  return out;
}

PseudoDomain BuildPseudoDomain(const spec::Composition& comp,
                               const std::set<std::string>& extra_constants,
                               size_t fresh_count) {
  PseudoDomain pd;
  pd.interner = comp.BuildInterner();
  for (const std::string& c : extra_constants) pd.interner.Intern(c);
  for (SymbolId id = 0; id < pd.interner.size(); ++id) pd.domain.Add(id);
  for (size_t i = 0; i < fresh_count; ++i) {
    data::Value v = pd.interner.Intern("#" + std::to_string(i + 1));
    pd.fresh.push_back(v);
    pd.domain.Add(v);
  }
  return pd;
}

ValuationSpace::ValuationSpace(const data::Domain& domain,
                               const Interner& interner, size_t num_vars)
    : num_vars_(num_vars) {
  values_.assign(domain.values().begin(), domain.values().end());
  spellings_.reserve(values_.size());
  for (data::Value v : values_) spellings_.push_back(interner.Text(v));
  if (num_vars_ == 0) return;  // size_ stays 1: the single empty valuation
  if (values_.empty()) {
    size_ = 0;
    return;
  }
  for (size_t i = 0; i < num_vars_; ++i) {
    if (size_ > static_cast<size_t>(-1) / values_.size()) {
      size_ = static_cast<size_t>(-1);  // saturate |domain|^num_vars
      return;
    }
    size_ *= values_.size();
  }
}

int ValuationSpace::DigitOf(data::Value v) const {
  auto it = std::find(values_.begin(), values_.end(), v);
  return it == values_.end() ? -1 : static_cast<int>(it - values_.begin());
}

void ValuationSpace::DecodeValues(size_t index,
                                  std::vector<data::Value>* out) const {
  out->clear();
  out->reserve(num_vars_);
  // Mixed-radix decode, position 0 least significant: the same order the
  // historical materializing enumeration produced.
  const size_t radix = values_.size();
  for (size_t i = 0; i < num_vars_; ++i) {
    out->push_back(values_[index % radix]);
    index /= radix;
  }
}

std::vector<std::string> ValuationSpace::DecodeSpellings(size_t index) const {
  std::vector<std::string> out;
  out.reserve(num_vars_);
  const size_t radix = spellings_.size();
  for (size_t i = 0; i < num_vars_; ++i) {
    out.push_back(spellings_[index % radix]);
    index /= radix;
  }
  return out;
}

std::optional<ValuationMode> ValuationModeFromName(const std::string& name) {
  if (name == "concrete") return ValuationMode::kConcrete;
  if (name == "symbolic") return ValuationMode::kSymbolic;
  if (name == "auto") return ValuationMode::kAuto;
  return std::nullopt;
}

const char* ValuationModeName(ValuationMode mode) {
  switch (mode) {
    case ValuationMode::kConcrete:
      return "concrete";
    case ValuationMode::kSymbolic:
      return "symbolic";
    case ValuationMode::kAuto:
      return "auto";
  }
  return "concrete";
}

VerificationEngine::VerificationEngine(const spec::Composition* comp,
                                       const Interner* interner,
                                       data::Domain domain,
                                       std::vector<data::Value> fresh,
                                       EngineOptions options)
    : comp_(comp),
      interner_(interner),
      domain_(std::move(domain)),
      fresh_(std::move(fresh)),
      options_(std::move(options)) {
  // The deadline/cancellation token rides wherever the budget already goes,
  // so every search loop picks it up without extra plumbing.
  options_.budget.control = options_.control;
}

namespace {

/// A leaf is database-rigid when every relation it mentions is a fixed
/// database relation: its truth (per valuation) is then constant along any
/// run with the same database, so it can be decided once and folded into
/// the automaton before the state-space search.
bool IsRigidLeaf(const fo::FormulaPtr& leaf, const spec::Composition& comp) {
  for (const std::string& rel : leaf->RelationNames()) {
    if (comp.Classify(rel) != fo::RelClass::kDatabase) return false;
  }
  return true;
}

/// Rebuilds `automaton` with guards partially evaluated under the rigid
/// truths, dropping edges whose guards became false.
automata::BuchiAutomaton RestrictAutomaton(
    const automata::BuchiAutomaton& automaton,
    const std::vector<int8_t>& truths) {
  automata::BuchiAutomaton out(automaton.num_props());
  for (size_t s = 0; s < automaton.num_states(); ++s) out.AddState();
  for (automata::StateId s : automaton.initial_states()) out.AddInitial(s);
  for (size_t s = 0; s < automaton.num_states(); ++s) {
    for (const automata::BuchiTransition& t :
         automaton.transitions_from(static_cast<automata::StateId>(s))) {
      automata::PropExprPtr guard =
          automata::PropExpr::PartialEval(t.guard, truths);
      if (guard->kind() == automata::PropExpr::Kind::kFalse) continue;
      out.AddTransition(static_cast<automata::StateId>(s), t.to,
                        std::move(guard));
    }
  }
  std::vector<automata::StateId> accepting;
  for (size_t s = 0; s < automaton.num_states(); ++s) {
    if (automaton.IsAccepting(static_cast<automata::StateId>(s))) {
      accepting.push_back(static_cast<automata::StateId>(s));
    }
  }
  out.AddAcceptingSet(std::move(accepting));
  return out;
}

}  // namespace

/// Sharded, exactly-once prefilter memo: at most 3^#leaves distinct
/// truth-status vectors versus |domain|^#vars valuations. Each key's entry
/// is computed exactly once even under concurrent lookups (waiters block on
/// the shard and then count a hit), so hit/miss totals are deterministic at
/// any job count. Entries are pointer-stable: concurrent product searches
/// read the memoized automata in place.
class PrefilterMemo {
 public:
  struct Entry {
    bool empty_language = false;
    automata::BuchiAutomaton automaton{0};
    /// Guard cubes compiled once per restricted automaton and shared by
    /// every product search (one per valuation) that hits this entry.
    ProductSearch::GuardTable guards;
  };

  /// Looks `key` up, running `compute` under the shard lock on first sight.
  /// `*was_miss` reports whether this call computed the entry. The caller
  /// owns `key`'s buffer (reused across lookups); the memo copies it only
  /// on insert.
  template <typename Fn>
  const Entry* GetOrCompute(const std::string& key, bool* was_miss,
                            const Fn& compute) {
    Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
    std::lock_guard<obs::TimedMutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      *was_miss = false;
      return it->second.get();
    }
    *was_miss = true;
    auto entry = std::make_unique<Entry>(compute());
    const Entry* raw = entry.get();
    shard.map.emplace(key, std::move(entry));
    return raw;
  }

 private:
  static constexpr size_t kShards = 8;
  struct Shard {
    // All eight shard mutexes report as one "prefilter_memo" lock site:
    // contention here means concurrent lanes colliding on hot memo keys.
    obs::TimedMutex mu{"prefilter_memo"};
    std::unordered_map<std::string, std::unique_ptr<Entry>> map;
  };
  std::array<Shard, kShards> shards_;
};

/// Per-lane accumulators and scratch buffers of the valuation stage. A lane
/// is touched by exactly one thread at a time (lane 0 = the dispatching
/// caller, others = pool drainers), so nothing here is locked; lanes are
/// merged in index order when the stage completes.
struct VerificationEngine::ValuationLane {
  struct Candidate {
    size_t index;
    LassoWitness lasso;
  };

  size_t searches = 0;
  size_t prefiltered = 0;
  size_t memo_misses = 0;
  size_t memo_hits = 0;
  SearchStats stats;
  /// The witness this lane found: at most one, since the fence it lowers
  /// admits none of the lane's later (higher) items.
  std::optional<Candidate> candidate;

  // Scratch reused across valuations: the decoded assignment, the rigid
  // truth-status vector and the memo key built from it (no per-lookup
  // string reallocation).
  std::vector<data::Value> values;
  std::vector<int8_t> rigid_truths;
  std::string memo_key;
};

/// Read-only per-database state shared by every valuation instance.
struct VerificationEngine::ValuationContext {
  const SymbolicTask* task;
  SnapshotGraph* graph;
  LeafCache* cache;
  PrefilterMemo* memo;
  const std::vector<bool>* rigid;
  SnapshotId init_sid;
  const std::vector<const fo::ValuationSet*>* ever_sat;
  const std::vector<const fo::ValuationSet*>* always_sat;
  /// leaf_positions[i][k]: closure-variable position of leaf i's k-th free
  /// variable — hoisted out of the per-valuation loop, which previously did
  /// a string search per leaf variable per valuation.
  const std::vector<std::vector<size_t>>* leaf_positions;
};

namespace {

/// One leaf-signature equivalence class of the valuation space: every
/// member index induces the same truth assignment on every property leaf
/// at every reachable snapshot, so the product search has one outcome for
/// all of them. `min_index` is the lexicographically least member — the
/// representative that is actually searched, and (for a violating class)
/// exactly the index the serial concrete loop would have reported first.
struct ValuationClass {
  size_t min_index;
  size_t size;
};

/// Partitions the valuation slice [v_lo, v_hi) into leaf-signature classes
/// over the *sealed* leaf cache (the graph must be fully explored).
///
/// Per leaf: every row in any snapshot's satisfying set is grouped by its
/// snapshot-membership profile (the set of snapshots containing it); each
/// profile becomes a decision diagram — the OR of its row cubes over the
/// leaf's closure positions — which is the leaf evaluated symbolically as
/// a predicate on valuation indices. Rows no snapshot lists share the
/// ambient (complement) profile. Classes are the nonempty intersections of
/// one profile diagram per leaf, intersected with the slice interval.
///
/// Rows are grouped by the snapshots that *list* them: a cofinite set lists
/// the rows it excludes, so a row's membership profile is its listing
/// profile with the sense flipped at every cofinite snapshot. That map is a
/// bijection, so grouping by listing gives the same classes; the ambient
/// profile is "every cofinite snapshot" rather than "none". This relies on
/// the valuation space and the snapshot structures sharing one domain
/// (checked in CheckDatabases).
Result<std::vector<ValuationClass>> PartitionValuationClasses(
    SnapshotGraph* graph, LeafCache* cache, const ValuationSpace& space,
    const std::vector<std::vector<size_t>>& leaf_positions, size_t v_lo,
    size_t v_hi) {
  obs::PhaseTimer phase("symbolic_partition");
  fo::bdd::Manager mgr(space.num_vars(), space.values().size());

  std::vector<fo::bdd::NodeRef> classes{mgr.Interval(v_lo, v_hi)};
  if (classes[0] == fo::bdd::kFalse) classes.clear();
  const size_t num_leaves = leaf_positions.size();
  std::vector<uint32_t> digits;
  for (size_t i = 0; i < num_leaves && !classes.empty(); ++i) {
    const std::vector<size_t>& slots = leaf_positions[i];
    // Row -> sorted list of snapshots whose satisfying set lists it.
    std::map<data::Tuple, std::vector<SnapshotId>> row_profiles;
    for (SnapshotId sid = 0; sid < graph->size(); ++sid) {
      WSV_ASSIGN_OR_RETURN(const fo::ValuationSet* sat, cache->Get(sid, i));
      for (const data::Tuple& row : sat->listed_rows()) {
        row_profiles[row].push_back(sid);
      }
    }
    // Profile -> diagram of the indices projecting onto its rows. A row
    // with a value outside the valuation domain is unreachable by any
    // index (its cube is empty) and drops out here.
    std::map<std::vector<SnapshotId>, fo::bdd::NodeRef> profiles;
    fo::bdd::NodeRef any = fo::bdd::kFalse;
    for (const auto& [row, sids] : row_profiles) {
      fo::bdd::NodeRef cube = fo::bdd::kTrue;
      digits.clear();
      bool reachable = true;
      for (size_t k = 0; k < slots.size() && reachable; ++k) {
        int d = space.DigitOf(row[k]);
        reachable = d >= 0;
        if (reachable) digits.push_back(static_cast<uint32_t>(d));
      }
      if (!reachable) continue;
      cube = mgr.Cube(slots, digits);
      auto [it, fresh] = profiles.try_emplace(sids, fo::bdd::kFalse);
      it->second = mgr.Or(it->second, cube);
      any = mgr.Or(any, cube);
    }
    const fo::bdd::NodeRef ambient = mgr.Not(any);
    std::vector<fo::bdd::NodeRef> refined;
    refined.reserve(classes.size());
    for (fo::bdd::NodeRef cls : classes) {
      for (const auto& [sids, dd] : profiles) {
        fo::bdd::NodeRef inter = mgr.And(cls, dd);
        if (inter != fo::bdd::kFalse) refined.push_back(inter);
      }
      fo::bdd::NodeRef amb = mgr.And(cls, ambient);
      if (amb != fo::bdd::kFalse) refined.push_back(amb);
    }
    classes = std::move(refined);
  }

  std::vector<ValuationClass> out;
  out.reserve(classes.size());
  for (fo::bdd::NodeRef cls : classes) {
    out.push_back(ValuationClass{mgr.MinIndex(cls), mgr.SatCount(cls)});
  }
  // Ascending representative order IS serial valuation order: classes are
  // disjoint, so checking them by least member and stopping at the first
  // violation reproduces the concrete loop's lowest-index witness.
  std::sort(out.begin(), out.end(),
            [](const ValuationClass& a, const ValuationClass& b) {
              return a.min_index < b.min_index;
            });
  obs::Registry& registry = obs::Registry::Global();
  registry.counter("bdd.nodes").Add(mgr.node_count());
  registry.counter("bdd.cache_hits").Add(mgr.cache_hits());
  return out;
}

}  // namespace

Result<bool> VerificationEngine::CheckOneValuation(const ValuationContext& ctx,
                                                   size_t index,
                                                   ValuationLane& lane,
                                                   size_t weight) {
  const SymbolicTask& task = *ctx.task;
  // The valuation count is |domain|^#vars — a deadline must be able to cut
  // a sweep short between instances, not only inside a search.
  if (options_.budget.control != nullptr) {
    WSV_RETURN_IF_ERROR(options_.budget.control->Check());
  }
  task.valuations.DecodeValues(index, &lane.values);

  // Build this instance's per-leaf lookup rows.
  const size_t num_leaves = task.leaves.size();
  lane.rigid_truths.assign(num_leaves, -1);
  std::vector<data::Tuple> leaf_rows;
  leaf_rows.reserve(num_leaves);
  for (size_t i = 0; i < num_leaves; ++i) {
    const std::vector<size_t>& positions = (*ctx.leaf_positions)[i];
    std::vector<data::Value> row;
    row.reserve(positions.size());
    for (size_t pos : positions) row.push_back(lane.values[pos]);
    leaf_rows.push_back(data::Tuple(std::move(row)));
    if ((*ctx.rigid)[i]) {
      WSV_ASSIGN_OR_RETURN(const fo::ValuationSet* sat,
                           ctx.cache->Get(ctx.init_sid, i));
      lane.rigid_truths[i] = sat->Contains(leaf_rows[i]) ? 1 : 0;
    } else if ((*ctx.ever_sat)[i] != nullptr &&
               !(*ctx.ever_sat)[i]->Contains(leaf_rows[i])) {
      lane.rigid_truths[i] = 0;  // never satisfied anywhere in the graph
    } else if ((*ctx.always_sat)[i] != nullptr &&
               (*ctx.always_sat)[i]->Contains(leaf_rows[i])) {
      lane.rigid_truths[i] = 1;  // satisfied at every reachable snapshot
    }
  }

  // Prefilter: with database-rigid and never/always-satisfied propositions
  // fixed, an automaton with empty language cannot accept any run — skip
  // the search. Restriction + emptiness depends only on the truth-status
  // vector, so it is memoized across valuations.
  bool any_fixed = false;
  for (int8_t t : lane.rigid_truths) any_fixed = any_fixed || t >= 0;
  lane.memo_key.assign(lane.rigid_truths.begin(), lane.rigid_truths.end());
  bool was_miss = false;
  const PrefilterMemo::Entry* entry =
      ctx.memo->GetOrCompute(lane.memo_key, &was_miss, [&] {
        obs::PhaseTimer prefilter_phase("prefilter");
        PrefilterMemo::Entry e;
        e.automaton = any_fixed
                          ? RestrictAutomaton(task.automaton, lane.rigid_truths)
                          : task.automaton;
        e.empty_language = any_fixed && automata::IsEmptyLanguage(e.automaton);
        if (!e.empty_language) {
          e.guards = ProductSearch::CompileGuards(e.automaton);
        }
        return e;
      });
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& valuations_checked =
      registry.counter("engine.valuations_checked");
  // Symbolic classes stand for `weight` indices: coverage counters keep
  // counting valuations, so classes-vs-valuations stays comparable across
  // modes (and valuation_classes <= valuations_checked by construction).
  valuations_checked.Add(weight);
  if (was_miss) {
    ++lane.memo_misses;
    static obs::Counter& memo_misses =
        registry.counter("engine.prefilter_memo_misses");
    memo_misses.Add(1);
  } else {
    ++lane.memo_hits;
    static obs::Counter& memo_hits =
        registry.counter("engine.prefilter_memo_hits");
    memo_hits.Add(1);
  }
  if (entry->empty_language) {
    lane.prefiltered += weight;
    static obs::Counter& prefiltered = registry.counter("engine.prefiltered");
    prefiltered.Add(weight);
    return false;
  }

  ++lane.searches;
  static obs::Counter& searches = registry.counter("engine.searches");
  searches.Add(1);
  ProductSearch search(ctx.graph, ctx.cache, &entry->automaton,
                       std::move(leaf_rows), options_.budget, &entry->guards);
  Result<std::optional<LassoWitness>> witness = [&] {
    obs::PhaseTimer ndfs_phase("ndfs");
    return search.FindAcceptedRun(&lane.stats);
  }();
  if (!witness.ok()) return witness.status();
  if (witness.value().has_value()) {
    lane.candidate = ValuationLane::Candidate{index, std::move(**witness)};
    return true;
  }
  return false;
}

SnapshotNormalization NormalizationForLeaves(
    const spec::Composition& comp, const std::vector<fo::FormulaPtr>& leaves) {
  SnapshotNormalization normalization;
  normalization.keep_mover = AnyPropositionMentionsPrefix(leaves, "move_");
  normalization.keep_flags =
      AnyPropositionMentionsPrefix(leaves, "received_") ||
      AnyPropositionMentionsPrefix(leaves, "sent_");
  // Action relations are pure outputs; previous-input relations matter only
  // to rules that read them. Keep each exactly when some proposition (or,
  // for prev, some rule) observes it.
  std::set<std::string> leaf_relations;
  for (const fo::FormulaPtr& leaf : leaves) {
    auto rels = leaf->RelationNames();
    leaf_relations.insert(rels.begin(), rels.end());
  }
  normalization.keep_actions = false;
  for (const std::string& rel : leaf_relations) {
    if (comp.Classify(rel) == fo::RelClass::kAction) {
      normalization.keep_actions = true;
      break;
    }
  }
  normalization.keep_prev.resize(comp.peers().size());
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const spec::Peer& peer = comp.peers()[p];
    std::set<std::string> rule_relations;
    for (const spec::Rule& rule : peer.rules()) {
      auto rels = rule.body->RelationNames();
      rule_relations.insert(rels.begin(), rels.end());
    }
    const data::Schema& prev = peer.prev_input_schema();
    std::vector<bool>& keep = normalization.keep_prev[p];
    keep.resize(prev.size(), false);
    for (size_t r = 0; r < prev.size(); ++r) {
      const std::string& name = prev.relation(r).name;
      keep[r] = rule_relations.count(name) > 0 ||
                leaf_relations.count(peer.name() + "." + name) > 0 ||
                (comp.peers().size() == 1 &&
                 leaf_relations.count(name) > 0);
    }
    // The lookback window shifts prev_i into prev_{i+1}: keeping a deeper
    // slot requires keeping every shallower slot of the same input. Slots
    // are laid out consecutively per input (Peer::Validate).
    size_t lookback = static_cast<size_t>(peer.lookback());
    for (size_t base = 0; base + lookback <= keep.size(); base += lookback) {
      for (size_t j = lookback; j-- > 1;) {
        if (keep[base + j]) keep[base + j - 1] = true;
      }
    }
  }
  return normalization;
}

Result<bool> VerificationEngine::CheckDatabases(
    const SymbolicTask& task, size_t v_lo, size_t v_hi,
    const std::vector<data::Instance>& dbs, size_t db_index,
    EngineOutcome& outcome) {
  // One trace span per database sweep iteration; args built only when the
  // recorder is on so the common path stays allocation-free.
  obs::PhaseTimer db_span(
      "check_db",
      obs::TracingEnabled()
          ? "{\"db\":" + std::to_string(db_index) + "}"
          : std::string());
  runtime::TransitionGenerator generator(comp_, dbs, domain_, interner_,
                                         options_.run);
  // Leaf sets may be cofinite relative to the snapshot structures' domain;
  // the class partition reads valuation rows against them as if drawn from
  // that same domain.
  if (task.valuations.num_vars() > 0 &&
      task.valuations.values() != generator.domain().values()) {
    return Status::Internal(
        "valuation space and snapshot structures use different domains");
  }
  SnapshotGraph graph(&generator,
                      NormalizationForLeaves(*comp_, task.leaves));
  LeafCache cache(&graph, task.leaves, interner_);
  struct GraphStatsGuard {
    SnapshotGraph& graph;
    LeafCache& cache;
    EngineOutcome& outcome;
    ~GraphStatsGuard() {
      outcome.search_stats.snapshots += graph.size();
      outcome.search_stats.graph_transitions += graph.transitions_computed();
      outcome.search_stats.leaf_cache_hits += cache.hits();
      outcome.search_stats.leaf_cache_misses += cache.misses();
    }
  } guard{graph, cache, outcome};

  // Exhaustively explore the configuration graph once: every instance
  // shares it, and full coverage enables the ever-satisfied prefilter. With
  // a scheduler attached (pool_), each BFS level's successor computation
  // runs on all lanes; ids stay identical to a serial exploration.
  WSV_ASSIGN_OR_RETURN(bool complete_graph,
                       graph.ExploreAll(options_.budget.max_states,
                                        options_.budget.control, pool_,
                                        lanes_));
  if (!complete_graph) {
    outcome.stop_status = Status::BudgetExceeded(
        "configuration graph exceeded max_states = " +
        std::to_string(options_.budget.max_states) +
        " snapshots; verdict is bounded");
  } else {
    // Seal the leaf cache up front (in parallel when lanes are available):
    // every later Get is a lock-free hit, which both serves concurrent
    // product searches and keeps hit/miss statistics identical at every job
    // count. On an incomplete graph the cache stays lazy — the searches
    // below then run serially, since they grow the graph on the fly.
    WSV_RETURN_IF_ERROR(cache.SealAndPopulate(pool_, lanes_));
  }

  // Rigid-leaf detection and their satisfying sets at the initial snapshot
  // (any snapshot works: rigid leaves only read the fixed database).
  std::vector<bool> rigid(task.leaves.size(), false);
  bool any_rigid = false;
  for (size_t i = 0; i < task.leaves.size(); ++i) {
    rigid[i] = IsRigidLeaf(task.leaves[i], *comp_);
    any_rigid = any_rigid || rigid[i];
  }
  SnapshotId init_sid = 0;
  if (any_rigid) {
    WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* initials,
                         graph.Initials());
    init_sid = initials->front();
  }

  // Ever-satisfied unions per leaf (valid only over a complete graph): a
  // valuation row never satisfied anywhere makes its proposition
  // constant-false along every run.
  std::vector<const fo::ValuationSet*> ever_sat(task.leaves.size(), nullptr);
  std::vector<const fo::ValuationSet*> always_sat(task.leaves.size(),
                                                  nullptr);
  if (complete_graph) {
    for (size_t i = 0; i < task.leaves.size(); ++i) {
      WSV_ASSIGN_OR_RETURN(ever_sat[i], cache.EverSatisfied(i));
      WSV_ASSIGN_OR_RETURN(always_sat[i], cache.AlwaysSatisfied(i));
    }
  }

  // Hoist the leaf-variable -> closure-position mapping out of the
  // per-valuation loop (it only depends on the task).
  std::vector<std::vector<size_t>> leaf_positions(task.leaves.size());
  for (size_t i = 0; i < task.leaves.size(); ++i) {
    for (const std::string& var : cache.LeafVariables(i)) {
      size_t pos = 0;
      for (; pos < task.closure_variables.size(); ++pos) {
        if (task.closure_variables[pos] == var) break;
      }
      if (pos == task.closure_variables.size()) {
        return Status::Internal("leaf variable '" + var +
                                "' is not a closure variable");
      }
      leaf_positions[i].push_back(pos);
    }
  }

  PrefilterMemo prefilter_memo;
  const ValuationContext ctx{&task,     &graph,      &cache,
                             &prefilter_memo, &rigid, init_sid,
                             &ever_sat, &always_sat, &leaf_positions};
  const size_t total = task.valuations.size();

  // The ordered work list: the slice's indices with weight 1, or in
  // symbolic mode its leaf-signature classes — valuations the product
  // search cannot distinguish, checked once on the class's least index and
  // weighted by the class size. Ascending representatives are serial
  // valuation order, so both lists resolve to the same witness, label,
  // lasso, coverage and stop status. Classes need a complete graph (the
  // partition reads the sealed leaf cache) and an unsaturated index space;
  // kAuto also demands that they collapse the slice.
  std::vector<ValuationClass> classes;
  bool symbolic = false;
  if (options_.valuation_mode != ValuationMode::kConcrete && complete_graph &&
      task.valuations.num_vars() > 0 && total != static_cast<size_t>(-1) &&
      v_hi > v_lo) {
    WSV_ASSIGN_OR_RETURN(
        classes, PartitionValuationClasses(&graph, &cache, task.valuations,
                                           leaf_positions, v_lo, v_hi));
    symbolic = options_.valuation_mode == ValuationMode::kSymbolic ||
               classes.size() * 2 <= v_hi - v_lo;
  }
  const size_t work = symbolic ? classes.size() : v_hi - v_lo;

  // Serial is the one-lane case: without a pool, on a partial graph
  // (searches grow it on the fly) or with at most one item. Chunks are
  // claimed in increasing index order and the dispatch fence stops below
  // the best witness, so every item before the winner is fully checked and
  // the reported witness is bit-for-bit the serial one.
  const size_t lanes = pool_ != nullptr && complete_graph && work > 1
                           ? lanes_
                           : 1;
  std::optional<obs::PhaseTimer> fanout_phase;
  if (lanes > 1) fanout_phase.emplace("valuation_fanout");
  std::vector<ValuationLane> lane_state(lanes);
  FirstWitnessDispatch dispatch(lanes,
                                lanes > 1 ? "engine.fanout_stop" : nullptr);
  // The space may hold up to SIZE_MAX items. The chunk count is capped, so
  // lanes drain the chunks past a witness quickly, and neither it nor a
  // chunk's end may round up past SIZE_MAX.
  constexpr size_t kMaxChunks = size_t{1} << 16;
  const size_t per_chunk =
      lanes > 1 ? std::max(std::min<size_t>(256, work / (lanes * 8) + 1),
                           work / kMaxChunks + 1)
                : std::max<size_t>(work, 1);
  const size_t num_chunks = work == 0 ? 0 : 1 + (work - 1) / per_chunk;
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& chunk_counter =
      registry.counter("engine.valuation_chunks");
  // Counted per class *checked* (not per class partitioned) so that a
  // violation that stops the sweep early keeps the schema invariant
  // valuation_classes <= valuations_checked.
  static obs::Counter& class_counter =
      registry.counter("engine.valuation_classes");
  ThreadPool::ParallelChunks(
      pool_, lanes - 1, num_chunks, [&](size_t lane_id, size_t chunk) {
        ValuationLane& lane = lane_state[lane_id];
        if (lanes > 1) chunk_counter.Add(1);
        const size_t begin = chunk * per_chunk;
        const size_t end = begin + std::min(per_chunk, work - begin);
        for (size_t pos = begin; pos < end; ++pos) {
          const ValuationClass item =
              symbolic ? classes[pos] : ValuationClass{v_lo + pos, 1};
          if (!dispatch.Admits(item.min_index)) break;
          if (symbolic) class_counter.Add(1);
          Result<bool> one =
              CheckOneValuation(ctx, item.min_index, lane, item.size);
          if (one.ok() && !*one) continue;
          if (one.ok()) {
            dispatch.Witness(item.min_index);
            break;
          }
          if (one.status().code() == StatusCode::kBudgetExceeded) {
            dispatch.Budget(lane_id, item.min_index, one.status());
            continue;
          }
          dispatch.Fail(item.min_index, one.status());
          break;
        }
      });

  std::optional<obs::PhaseTimer> merge_phase;
  if (lanes > 1) merge_phase.emplace("merge");
  for (const ValuationLane& lane : lane_state) {
    outcome.searches += lane.searches;
    outcome.prefiltered += lane.prefiltered;
    outcome.prefilter_memo_misses += lane.memo_misses;
    outcome.prefilter_memo_hits += lane.memo_hits;
    outcome.search_stats += lane.stats;
  }
  WSV_ASSIGN_OR_RETURN(const FirstWitnessDispatch::Verdict verdict,
                       dispatch.Resolve());
  if (verdict.stop.has_value() && !verdict.found()) return *verdict.stop;
  if (verdict.stop.has_value()) {
    outcome.stop_status = *verdict.stop;
  } else if (verdict.budget.has_value()) {
    outcome.stop_status = *verdict.budget;
  }
  if (!verdict.found()) {
    // A shard cut short by its upper bound reports range-end — unless a
    // bounded search already set a budget status, which must survive
    // (range-end would let a merge attest full coverage of a range whose
    // valuations were only partially searched).
    if (v_hi < total && outcome.stop_status.ok()) {
      outcome.stop_status = Status::RangeEnd(
          "valuation sweep stopped at the end of the assigned range; the "
          "verdict covers exactly this shard's valuations");
    }
    return false;
  }
  // The engine.violations counter is bumped by Run(): lanes may record
  // several candidates, but exactly one witness is reported.
  outcome.violation_found = true;
  outcome.databases = dbs;
  outcome.label = task.valuations.DecodeSpellings(verdict.witness);
  for (ValuationLane& lane : lane_state) {
    if (lane.candidate.has_value() && lane.candidate->index == verdict.witness) {
      outcome.lasso = std::move(lane.candidate->lasso);
    }
  }
  outcome.violation_valuation_index = verdict.witness;
  return true;
}

namespace {

/// Snapshot of the engine's phase timers, for before/after deltas so the
/// outcome carries only this run's share of the global accumulators.
PhaseTimings TimerSnapshot() {
  obs::Registry& registry = obs::Registry::Global();
  PhaseTimings t;
  t.db_enum_ns = registry.timer("phase.db_enum").total_nanos();
  t.graph_expand_ns = registry.timer("phase.graph_expand").total_nanos();
  t.leaf_eval_ns = registry.timer("phase.leaf_eval").total_nanos();
  t.prefilter_ns = registry.timer("phase.prefilter").total_nanos();
  t.ndfs_ns = registry.timer("phase.ndfs").total_nanos();
  return t;
}

PhaseTimings TimerDelta(const PhaseTimings& before) {
  PhaseTimings now = TimerSnapshot();
  PhaseTimings d;
  d.db_enum_ns = now.db_enum_ns - before.db_enum_ns;
  d.graph_expand_ns = now.graph_expand_ns - before.graph_expand_ns;
  d.leaf_eval_ns = now.leaf_eval_ns - before.leaf_eval_ns;
  d.prefilter_ns = now.prefilter_ns - before.prefilter_ns;
  d.ndfs_ns = now.ndfs_ns - before.ndfs_ns;
  return d;
}

void CountDatabase(EngineOutcome& outcome) {
  ++outcome.databases_checked;
  static obs::Counter& dbs =
      obs::Registry::Global().counter("engine.databases_checked");
  dbs.Add(1);
  obs::ProgressMeter::Global().MaybeBeat();
}

/// Best-effort checkpoint write: a failed write must not take down a sweep
/// that is otherwise making progress, so the status is only counted.
void PersistCheckpoint(const EngineOptions& options,
                       const std::vector<IndexInterval>& covered,
                       const std::vector<size_t>& failed,
                       size_t databases_completed,
                       const std::string& stop_reason) {
  Checkpoint cp;
  cp.fingerprint = options.checkpoint_fingerprint;
  cp.covered = covered;
  // A parallel sweep can fail a database ahead of the completed run; such
  // indices are re-checked on resume (which restarts at the first hole), so
  // persisting them would be both redundant and unreadable — the checkpoint
  // format requires failed indices inside the covered intervals.
  for (size_t index : failed) {
    if (IntervalsContain(covered, index)) cp.failed_indices.push_back(index);
  }
  cp.databases_completed = databases_completed;
  cp.stop_reason = stop_reason;
  Status written = WriteCheckpoint(options.checkpoint_path, cp);
  obs::Registry& registry = obs::Registry::Global();
  if (written.ok()) {
    registry.counter("checkpoint.writes").Add(1);
  } else {
    registry.counter("checkpoint.write_errors").Add(1);
  }
}

}  // namespace

Result<EngineOutcome> VerificationEngine::Run(SymbolicTask& task) {
  EngineOutcome outcome;
  PhaseTimings timers_before = TimerSnapshot();
  size_t jobs = ThreadPool::ResolveJobs(options_.jobs);

  if (options_.db_range_hi < options_.db_range_lo) {
    return Status::InvalidSpec("--db-range upper bound " +
                               std::to_string(options_.db_range_hi) +
                               " is below its lower bound " +
                               std::to_string(options_.db_range_lo));
  }
  if (options_.valuation_range_hi < options_.valuation_range_lo) {
    return Status::InvalidSpec("--valuation-range upper bound " +
                               std::to_string(options_.valuation_range_hi) +
                               " is below its lower bound " +
                               std::to_string(options_.valuation_range_lo));
  }
  const bool has_valuation_range =
      options_.valuation_range_lo != 0 ||
      options_.valuation_range_hi != static_cast<size_t>(-1);
  if (has_valuation_range && !options_.fixed_databases.has_value()) {
    return Status::InvalidSpec(
        "--valuation-range requires pinned databases (--db): database "
        "sweeps shard with --db-range instead");
  }

  if (options_.count_only) {
    // Count-only: report the size of the enumeration space (the coordinate
    // system shard ranges index into) without checking anything.
    if (options_.fixed_databases.has_value()) {
      outcome.coverage_unit = "valuation";
      outcome.enumeration_count = task.valuations.size();
    } else {
      DatabaseEnumerator enumerator(comp_, domain_, fresh_,
                                    options_.iso_reduction);
      WSV_RETURN_IF_ERROR(enumerator.status());
      obs::PhaseTimer enum_phase("db_enum");
      std::vector<data::Instance> scratch;
      while (enumerator.Next(&scratch)) {
        ++outcome.enumeration_count;
        if (options_.control != nullptr) {
          WSV_RETURN_IF_ERROR(options_.control->Check());
        }
      }
    }
    outcome.timings = TimerDelta(timers_before);
    return outcome;
  }

  obs::Registry::Global()
      .counter("engine.instances")
      .Add(task.valuations.size());
  // The valuation slice every database checks: a pinned run's shard, the
  // whole space on database sweeps (which reject a valuation range).
  // Indices stay absolute, so a shard's witness valuation index matches the
  // unsharded run's.
  const size_t v_lo =
      std::min(options_.valuation_range_lo, task.valuations.size());
  const size_t v_hi =
      std::min(options_.valuation_range_hi, task.valuations.size());

  // Rebinds the engine's borrowed scheduler for the duration of this run;
  // cleared on every exit path so a later Run never sees a dangling pool.
  struct SchedulerBinding {
    VerificationEngine* engine;
    SchedulerBinding(VerificationEngine* e, ThreadPool* pool, size_t lanes)
        : engine(e) {
      e->pool_ = pool;
      e->lanes_ = lanes;
    }
    ~SchedulerBinding() {
      engine->pool_ = nullptr;
      engine->lanes_ = 1;
    }
  };

  if (options_.fixed_databases.has_value()) {
    // A single pinned database: all parallelism is within-database (graph
    // exploration, leaf sealing, valuation fan-out). The caller is lane 0,
    // so the pool only needs jobs - 1 helper threads.
    outcome.jobs = jobs;
    std::optional<ThreadPool> pool;
    if (jobs > 1) pool.emplace(jobs - 1);
    SchedulerBinding binding(this, pool.has_value() ? &*pool : nullptr, jobs);
    // Pinned runs know their work total up front: the assigned valuation
    // slice. The heartbeat turns it into an ETA.
    obs::ProgressMeter::Global().SetGoal(
        obs::ProgressMeter::GoalUnit::kValuations, v_hi - v_lo);
    CountDatabase(outcome);
    Result<bool> found = CheckDatabases(task, v_lo, v_hi,
                                        *options_.fixed_databases,
                                        /*db_index=*/0, outcome);
    if (!found.ok()) {
      if (!RunControl::IsStopStatus(found.status())) return found.status();
      // A deadline/cancel stop still yields a partial outcome: the caller
      // reports an inconclusive verdict over zero completed databases.
      outcome.stop_status = found.status();
    } else if (*found) {
      outcome.violation_db_index = 0;
      obs::Registry::Global().counter("engine.violations").Add(1);
    }
    if (found.ok()) outcome.completed_prefix = 1;
    // Pinned runs shard over valuations, so coverage is valuation-indexed:
    // a clean or range-end pass covered the whole assigned slice, a
    // violation covers the slice below its witness (mirroring the sweep's
    // witness-capped checkpoints), and any other stop claims nothing (the
    // fan-out has no per-valuation completion order to attest).
    outcome.coverage_unit = "valuation";
    if (found.ok()) {
      if (*found) {
        AddInterval(&outcome.covered, v_lo,
                    outcome.violation_valuation_index);
      } else if (outcome.stop_status.ok() ||
                 outcome.stop_status.code() == StatusCode::kRangeEnd) {
        AddInterval(&outcome.covered, v_lo, v_hi);
      }
    }
    outcome.stop_reason = StopReasonFromStatus(outcome.stop_status);
    if (outcome.stop_reason == StopReason::kDeadline) {
      obs::Registry::Global().counter("engine.deadline_hits").Add(1);
    }
    outcome.timings = TimerDelta(timers_before);
    return outcome;
  }

  DatabaseEnumerator enumerator(comp_, domain_, fresh_,
                                options_.iso_reduction);
  WSV_RETURN_IF_ERROR(enumerator.status());

  // Serial and parallel sweeps share one code path (jobs == 1 runs the
  // sweep on a single worker): fault isolation, deadline/cancel winding and
  // checkpointing behave identically at every job count.
  SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.max_databases = options_.max_databases;
  // The dispatch origin: the range start, or — when resuming — the end of
  // the covered run containing it. Indices stay absolute throughout.
  const size_t sweep_start =
      std::max(options_.resume_prefix, options_.db_range_lo);
  sweep_options.start_index = sweep_start;
  // Coverage inherited from a resume. Legacy callers pass only a prefix
  // (no intervals); that prefix attests [0, prefix), so lift it — otherwise
  // the witness cap below would erase resumed coverage from checkpoints.
  std::vector<IndexInterval> resume_base =
      NormalizeIntervals(options_.resume_covered);
  if (resume_base.empty() && options_.resume_prefix > 0) {
    AddInterval(&resume_base, 0, options_.resume_prefix);
  }
  sweep_options.end_index = options_.db_range_hi;
  // A bounded sweep (range upper bound or --max-databases) has a known
  // database total; the heartbeat derives an ETA from it. Unbounded sweeps
  // leave the goal unset — the enumeration size is what the run discovers.
  {
    const size_t bound =
        std::min(options_.db_range_hi, options_.max_databases);
    if (bound != static_cast<size_t>(-1) && bound > sweep_start) {
      obs::ProgressMeter::Global().SetGoal(
          obs::ProgressMeter::GoalUnit::kDatabases, bound - sweep_start);
    }
  }
  sweep_options.control = options_.control;
  sweep_options.skip_failed_databases =
      options_.on_db_error == OnDbError::kSkip;
  sweep_options.resume_failed = options_.resume_failed;
  if (options_.db_range_lo != 0 ||
      options_.db_range_hi != static_cast<size_t>(-1)) {
    obs::Registry& registry = obs::Registry::Global();
    registry.counter("sweep.range_lo").Add(options_.db_range_lo);
    if (options_.db_range_hi != static_cast<size_t>(-1)) {
      registry.counter("sweep.range_hi").Add(options_.db_range_hi);
    }
  }
  if (!options_.checkpoint_path.empty()) {
    sweep_options.checkpoint_every = options_.checkpoint_every;
    sweep_options.checkpoint_fn = [this, sweep_start, resume_base](
                                      size_t completed_prefix,
                                      const std::vector<size_t>& failed,
                                      size_t databases_completed) {
      std::vector<IndexInterval> covered = resume_base;
      AddInterval(&covered, sweep_start, completed_prefix);
      PersistCheckpoint(options_, covered, failed,
                        options_.resume_prefix + databases_completed,
                        "in-progress");
    };
  }
  // One shared pool feeds both scheduler levels: ParallelSweep runs its
  // database workers on it, and each worker's CheckDatabases borrows it
  // (pool_/lanes_) for within-database fan-out. Total threads = jobs, so
  // --jobs is a global cap with no oversubscription: within-database
  // helper tasks queue behind database workers and are simply abandoned
  // (the fanning worker drains its own chunks) when the pool is saturated.
  ThreadPool pool(jobs);
  sweep_options.pool = &pool;
  SchedulerBinding binding(this, jobs > 1 ? &pool : nullptr, jobs);
  ParallelSweep sweep(&enumerator, sweep_options);
  WSV_ASSIGN_OR_RETURN(
      EngineOutcome swept,
      sweep.Run([&](size_t db_index, const std::vector<data::Instance>& dbs,
                    EngineOutcome& worker_outcome) {
        return CheckDatabases(task, v_lo, v_hi, dbs, db_index,
                              worker_outcome);
      }));
  swept.jobs = jobs;
  if (swept.violation_found) {
    obs::Registry::Global().counter("engine.violations").Add(1);
  }
  if (swept.stop_reason == StopReason::kDeadline) {
    obs::Registry::Global().counter("engine.deadline_hits").Add(1);
  }
  // Coverage: resumed intervals plus the contiguous run this sweep
  // completed from its dispatch origin — capped below the witness when a
  // violation was found, so a resume (or a merge of shard checkpoints)
  // re-checks the witness database and reproduces the VIOLATED verdict
  // instead of silently skipping past it.
  std::vector<IndexInterval> covered = resume_base;
  AddInterval(&covered, sweep_start, swept.completed_prefix);
  if (swept.violation_found) {
    covered = IntersectIntervals(covered, 0, swept.violation_db_index);
  }
  swept.covered = covered;
  if (!options_.checkpoint_path.empty()) {
    // Final checkpoint carries the real stop reason — "complete" marks the
    // sweep as finished so a --resume of it is a no-op fast path.
    PersistCheckpoint(options_, covered, swept.failed_db_indices,
                      options_.resume_prefix + swept.databases_checked,
                      StopReasonName(swept.stop_reason));
  }
  swept.timings = TimerDelta(timers_before);
  return swept;
}

}  // namespace wsv::verifier
