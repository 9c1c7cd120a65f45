#include "verifier/snapshot_graph.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <utility>

#include "obs/lock_profile.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/timer.h"
#include "runtime/snapshot_view.h"

namespace wsv::verifier {

namespace {

/// Adds a memo's lane-local lookup counts and byte growth to the registry
/// (once per expansion chunk, not per lookup).
void PublishMemoCounts(runtime::MoveMemo& memo) {
  const runtime::MoveMemo::Counts counts = memo.TakeCounts();
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& move_hits = registry.counter("graph.move_memo_hits");
  static obs::Counter& move_misses =
      registry.counter("graph.move_memo_misses");
  static obs::Counter& input_hits = registry.counter("graph.input_memo_hits");
  static obs::Counter& input_misses =
      registry.counter("graph.input_memo_misses");
  static obs::Counter& bytes = registry.counter("graph.memo_bytes");
  move_hits.Add(counts.move_hits);
  move_misses.Add(counts.move_misses);
  input_hits.Add(counts.input_hits);
  input_misses.Add(counts.input_misses);
  bytes.Add(counts.bytes);
}

}  // namespace

SnapshotGraph::SnapshotGraph(const runtime::TransitionGenerator* generator,
                             SnapshotNormalization normalization)
    : generator_(generator),
      normalization_(std::move(normalization)),
      codec_(&generator->composition()) {}

void SnapshotGraph::Normalize(runtime::Snapshot* snap) const {
  if (!normalization_.keep_mover) snap->mover = runtime::kNoMover;
  if (!normalization_.keep_flags) {
    snap->received.assign(snap->received.size(), false);
    snap->sent.assign(snap->sent.size(), false);
  }
  if (!normalization_.keep_actions) {
    for (runtime::PeerConfig& cfg : snap->peers) cfg.action.Clear();
  }
  if (!normalization_.keep_prev.empty()) {
    for (size_t p = 0; p < snap->peers.size(); ++p) {
      const std::vector<bool>& keep = normalization_.keep_prev[p];
      for (size_t r = 0; r < keep.size(); ++r) {
        if (!keep[r]) snap->peers[p].prev.relation(r).Clear();
      }
    }
  }
}

SnapshotId SnapshotGraph::InternSpan(const uint32_t* words, uint32_t count,
                                     size_t hash) {
  SnapshotId found = intern_.Find(hash, [&](uint32_t id) {
    return flats_[id] == runtime::FlatSnapshot{words, count};
  });
  if (found != FlatIdSet::kEmpty) {
    static obs::Counter& hits =
        obs::Registry::Global().counter("graph.intern_hits");
    hits.Add(1);
    return found;
  }
  SnapshotId id = static_cast<SnapshotId>(flats_.size());
  flats_.push_back(runtime::FlatSnapshot{arena_.CopyWords(words, count), count});
  hashes_.push_back(hash);
  intern_.Insert(hash, id);
  successors_.emplace_back();
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& interned = registry.counter("graph.snapshots");
  static obs::Counter& arena_bytes = registry.counter("graph.arena_bytes");
  interned.Add(1);
  arena_bytes.Add(count * sizeof(uint32_t));
  return id;
}

SnapshotId SnapshotGraph::Intern(runtime::Snapshot& snap) {
  Normalize(&snap);
  codec_.Encode(snap, &encode_buf_);
  static obs::Counter& encodes =
      obs::Registry::Global().counter("graph.encode");
  encodes.Add(1);
  size_t hash =
      runtime::HashFlatSnapshot(encode_buf_.data(), encode_buf_.size());
  return InternSpan(encode_buf_.data(),
                    static_cast<uint32_t>(encode_buf_.size()), hash);
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Initials() {
  if (!initials_.has_value()) {
    WSV_ASSIGN_OR_RETURN(std::vector<runtime::Snapshot> snaps,
                         generator_->InitialSnapshots());
    std::vector<SnapshotId> ids;
    for (runtime::Snapshot& s : snaps) ids.push_back(Intern(s));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    initials_ = std::move(ids);
  }
  return &*initials_;
}

Result<const std::vector<SnapshotId>*> SnapshotGraph::Successors(
    SnapshotId sid) {
  if (!successors_[sid].has_value()) {
    // Decode into the reusable scratch snapshot: the flat span is
    // arena-stable, so unlike the old object store no defensive copy is
    // needed before Intern below grows the graph.
    codec_.Decode(flats_[sid], &decode_scratch_);
    std::vector<SnapshotId> ids;
    Status status = generator_->ForEachSuccessor(
        decode_scratch_, memo_,
        [&](runtime::Snapshot& s) { ids.push_back(Intern(s)); });
    PublishMemoCounts(memo_);
    WSV_RETURN_IF_ERROR(status);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    transitions_ += ids.size();
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& calls = registry.counter("graph.successor_calls");
    static obs::Counter& edges = registry.counter("graph.transitions");
    static obs::Histogram& fanout =
        registry.histogram("graph.successors_per_snapshot");
    calls.Add(1);
    edges.Add(ids.size());
    fanout.Record(ids.size());
    successors_[sid] = std::move(ids);
  }
  return &*successors_[sid];
}

Result<bool> SnapshotGraph::ExploreAll(size_t max_snapshots,
                                       RunControl* control, ThreadPool* pool,
                                       size_t lanes) {
  obs::PhaseTimer phase("graph_expand");
  if (pool == nullptr || lanes <= 1) {
    return ExploreAllSerial(max_snapshots, control);
  }
  return ExploreAllParallel(max_snapshots, control, pool, lanes);
}

Result<bool> SnapshotGraph::ExploreAllSerial(size_t max_snapshots,
                                             RunControl* control) {
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* inits, Initials());
  std::deque<SnapshotId> frontier(inits->begin(), inits->end());
  std::vector<bool> expanded;
  size_t expansions = 0;
  while (!frontier.empty()) {
    SnapshotId sid = frontier.front();
    frontier.pop_front();
    if (sid >= expanded.size()) expanded.resize(flats_.size(), false);
    if (expanded[sid]) continue;
    expanded[sid] = true;
    if ((++expansions & 0x3FF) == 0) {
      obs::ProgressMeter::Global().MaybeBeat();
      if (control != nullptr) WSV_RETURN_IF_ERROR(control->Check());
    }
    WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* succ, Successors(sid));
    for (SnapshotId next : *succ) {
      if (next >= expanded.size() || !expanded[next]) frontier.push_back(next);
    }
    if (flats_.size() > max_snapshots) return false;
  }
  fully_explored_ = true;
  return true;
}

namespace {

/// A successor's canonical encoding (a span into the expanding lane's
/// scratch arena) with its hash, and the id the resolve pass found for it
/// (FlatIdSet::kEmpty if the span was not yet interned).
struct Candidate {
  const uint32_t* data;
  uint32_t size;
  SnapshotId resolved;
  size_t hash;
};

/// One frontier node's expansion, computed concurrently: its successors are
/// candidates [begin, end) of lane `lane`, or the generator's error.
/// Successors stream through the generator's scratch snapshot — only the
/// flat spans survive to the merge.
struct NodeExpansion {
  Status status = Status::Ok();
  size_t lane = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Per-lane scratch reused across every frontier node the lane expands (and
/// across BFS levels): the decoded frontier snapshot, the encode buffer,
/// this level's candidates with the arena holding their spans, and the
/// lane's move memo (kept for the whole exploration).
/// Resetting the arena and the candidate list per level recycles their
/// storage, so steady-state expansion allocates nothing for the ~16x of
/// candidates that end up duplicates.
struct LaneScratch {
  runtime::Snapshot snap;
  std::vector<uint32_t> encode;
  Arena arena;
  std::vector<Candidate> candidates;
  runtime::MoveMemo memo;
};

}  // namespace

Result<bool> SnapshotGraph::ExploreAllParallel(size_t max_snapshots,
                                               RunControl* control,
                                               ThreadPool* pool,
                                               size_t lanes) {
  WSV_ASSIGN_OR_RETURN(const std::vector<SnapshotId>* inits, Initials());
  std::vector<SnapshotId> frontier(inits->begin(), inits->end());
  std::vector<LaneScratch> scratch(lanes);

  while (!frontier.empty()) {
    const size_t n = frontier.size();

    // Compute phase: expand every frontier node concurrently. The graph is
    // not mutated here — workers read stable flat spans, decode into their
    // lane scratch, and encode candidates into their lane arena; ids are
    // only assigned in the sequential merge below.
    std::vector<NodeExpansion> expansions(n);
    std::atomic<bool> stop_requested{false};
    obs::TimedMutex stop_mu{"graph.stop"};
    Status stop_status = Status::Ok();
    for (LaneScratch& s : scratch) {
      s.arena.Reset();
      s.candidates.clear();
    }
    const size_t per_chunk =
        std::max<size_t>(1, std::min<size_t>(64, n / (lanes * 4) + 1));
    const size_t num_chunks = (n + per_chunk - 1) / per_chunk;
    ThreadPool::ParallelChunks(
        pool, lanes - 1, num_chunks, [&](size_t lane, size_t chunk) {
          LaneScratch& lane_scratch = scratch[lane];
          const size_t begin = chunk * per_chunk;
          const size_t end = std::min(n, begin + per_chunk);
          for (size_t p = begin; p < end; ++p) {
            if (stop_requested.load(std::memory_order_relaxed)) break;
            if (control != nullptr && (p - begin) % 64 == 0) {
              if (lane == 0) obs::ProgressMeter::Global().MaybeBeat();
              Status status = control->Check();
              if (!status.ok()) {
                std::lock_guard<obs::TimedMutex> lock(stop_mu);
                if (stop_status.ok()) stop_status = std::move(status);
                stop_requested.store(true, std::memory_order_relaxed);
                break;
              }
            }
            NodeExpansion& out = expansions[p];
            codec_.Decode(flats_[frontier[p]], &lane_scratch.snap);
            out.lane = lane;
            out.begin = lane_scratch.candidates.size();
            out.status = generator_->ForEachSuccessor(
                lane_scratch.snap, lane_scratch.memo,
                [&](runtime::Snapshot& s) {
                  Normalize(&s);
                  std::vector<uint32_t>& words = lane_scratch.encode;
                  codec_.Encode(s, &words);
                  lane_scratch.candidates.push_back(Candidate{
                      lane_scratch.arena.CopyWords(words.data(), words.size()),
                      static_cast<uint32_t>(words.size()), FlatIdSet::kEmpty,
                      runtime::HashFlatSnapshot(words.data(), words.size())});
                });
            out.end = lane_scratch.candidates.size();
          }
          PublishMemoCounts(lane_scratch.memo);
        });
    if (!stop_status.ok()) return stop_status;

    // Resolve pass (parallel): probe every candidate against the interned
    // set as it stood before this level. Hits are final (existing ids never
    // change); misses are re-probed during the merge, which is the only
    // place the table grows.
    // Candidates are probed where the lanes left them, in slices of up to
    // 1024; the merge below reads them back in frontier order.
    struct Slice {
      std::vector<Candidate>* candidates;
      size_t begin;
      size_t end;
    };
    std::vector<Slice> slices;
    const size_t resolve_chunk = 1024;
    size_t total = 0;
    for (LaneScratch& s : scratch) {
      const size_t size = s.candidates.size();
      for (size_t begin = 0; begin < size; begin += resolve_chunk) {
        slices.push_back(
            Slice{&s.candidates, begin, std::min(size, begin + resolve_chunk)});
      }
      total += size;
    }
    static obs::Counter& encodes =
        obs::Registry::Global().counter("graph.encode");
    encodes.Add(total);
    ThreadPool::ParallelChunks(
        pool, lanes - 1, slices.size(), [&](size_t, size_t chunk) {
          const Slice& slice = slices[chunk];
          for (size_t j = slice.begin; j < slice.end; ++j) {
            Candidate& c = (*slice.candidates)[j];
            c.resolved = intern_.Find(c.hash, [&](uint32_t id) {
              return flats_[id] == runtime::FlatSnapshot{c.data, c.size};
            });
          }
        });

    // Merge pass (sequential): assign ids in exact frontier order — the
    // same order the serial BFS interns in — so ids, counters, transitions,
    // and the budget cut-off are bit-for-bit identical to a serial run.
    // Unresolved candidates re-probe the (now growing) table, which both
    // dedups within the level and copies each winner's span into the
    // persistent arena exactly once.
    obs::Registry& registry = obs::Registry::Global();
    static obs::Counter& intern_hits = registry.counter("graph.intern_hits");
    static obs::Counter& calls = registry.counter("graph.successor_calls");
    static obs::Counter& edges = registry.counter("graph.transitions");
    static obs::Histogram& fanout =
        registry.histogram("graph.successors_per_snapshot");
    std::vector<SnapshotId> next_frontier;
    const size_t before_level = flats_.size();
    for (size_t p = 0; p < n; ++p) {
      const NodeExpansion& exp = expansions[p];
      WSV_RETURN_IF_ERROR(exp.status);
      const std::vector<Candidate>& candidates = scratch[exp.lane].candidates;
      std::vector<SnapshotId> ids;
      ids.reserve(exp.end - exp.begin);
      for (size_t j = exp.begin; j < exp.end; ++j) {
        const Candidate& c = candidates[j];
        SnapshotId id = c.resolved;
        if (id != FlatIdSet::kEmpty) {
          intern_hits.Add(1);
        } else {
          id = InternSpan(c.data, c.size, c.hash);
        }
        ids.push_back(id);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      transitions_ += ids.size();
      calls.Add(1);
      edges.Add(ids.size());
      fanout.Record(ids.size());
      successors_[frontier[p]] = std::move(ids);
      if (flats_.size() > max_snapshots) return false;
    }
    next_frontier.reserve(flats_.size() - before_level);
    for (size_t id = before_level; id < flats_.size(); ++id) {
      next_frontier.push_back(static_cast<SnapshotId>(id));
    }

    obs::ProgressMeter::Global().MaybeBeat();
    if (control != nullptr) WSV_RETURN_IF_ERROR(control->Check());
    frontier = std::move(next_frontier);
  }
  fully_explored_ = true;
  return true;
}

LeafCache::LeafCache(SnapshotGraph* graph, std::vector<fo::FormulaPtr> leaves,
                     const Interner* interner)
    : graph_(graph),
      leaves_(std::move(leaves)),
      evaluator_(interner),
      layout_(runtime::PropertyStructureLayout(
          graph->generator().composition())) {
  leaf_vars_.reserve(leaves_.size());
  for (const fo::FormulaPtr& leaf : leaves_) {
    auto frees = leaf->FreeVariables();
    leaf_vars_.emplace_back(frees.begin(), frees.end());  // sets are sorted
  }
}

LeafCache::LaneScratch::LaneScratch(const runtime::StructureLayout& layout,
                                    const data::Domain& domain)
    : structure(&layout.names(), &domain) {}

Status LeafCache::EvaluateSnapshot(SnapshotId sid, LaneScratch& scratch) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter& misses = registry.counter("leafcache.misses");
  static obs::Counter& evals = registry.counter("leafcache.leaf_evals");
  misses.Add(1);
  evals.Add(leaves_.size());
  obs::PhaseTimer phase("leaf_eval");
  // Evaluate every leaf in one pass over one decode of the snapshot; the
  // structure only borrows the decoded relations.
  graph_->codec().Decode(graph_->flat(sid), &scratch.snap);
  const runtime::TransitionGenerator& generator = graph_->generator();
  layout_.Bind(generator.databases(), scratch.snap, &scratch.structure);
  cache_[sid].reserve(leaves_.size());
  for (const fo::FormulaPtr& formula : leaves_) {
    auto result = evaluator_.Evaluate(formula, scratch.structure);
    if (!result.ok()) return result.status();
    cache_[sid].emplace_back(std::move(result).value());
  }
  return Status::Ok();
}

Result<const fo::ValuationSet*> LeafCache::Get(SnapshotId sid, size_t leaf) {
  if (sid >= cache_.size()) cache_.resize(sid + 1);
  if (cache_[sid].empty() && !leaves_.empty()) {
    WSV_RETURN_IF_ERROR(EvaluateSnapshot(sid, Scratch(0)));
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& hits =
        obs::Registry::Global().counter("leafcache.hits");
    hits.Add(1);
  }
  return &*cache_[sid][leaf];
}

Result<const std::vector<std::optional<fo::ValuationSet>>*> LeafCache::GetAll(
    SnapshotId sid) {
  if (sid >= cache_.size()) cache_.resize(sid + 1);
  if (cache_[sid].empty() && !leaves_.empty()) {
    WSV_RETURN_IF_ERROR(EvaluateSnapshot(sid, Scratch(0)));
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& hits =
        obs::Registry::Global().counter("leafcache.hits");
    hits.Add(1);
  }
  return &cache_[sid];
}

Status LeafCache::SealAndPopulate(ThreadPool* pool, size_t lanes) {
  if (leaves_.empty()) return Status::Ok();
  const size_t n = graph_->size();
  if (cache_.size() < n) cache_.resize(n);
  const size_t per_chunk = 16;
  const size_t num_chunks = (n + per_chunk - 1) / per_chunk;
  const size_t helpers = lanes > 0 ? lanes - 1 : 0;
  Scratch(helpers);  // every lane's scratch exists before the fan-out
  obs::TimedMutex error_mu{"leafcache.seal"};
  SnapshotId error_sid = 0;
  Status error = Status::Ok();
  ThreadPool::ParallelChunks(
      pool, helpers, num_chunks, [&](size_t lane, size_t chunk) {
        const size_t begin = chunk * per_chunk;
        const size_t end = std::min(n, begin + per_chunk);
        for (size_t sid = begin; sid < end; ++sid) {
          if (!cache_[sid].empty()) continue;  // already evaluated lazily
          Status status =
              EvaluateSnapshot(static_cast<SnapshotId>(sid), scratch_[lane]);
          if (!status.ok()) {
            std::lock_guard<obs::TimedMutex> lock(error_mu);
            if (error.ok() || sid < error_sid) {
              error = std::move(status);
              error_sid = static_cast<SnapshotId>(sid);
            }
            return;
          }
        }
      });
  return error;
}

LeafCache::LaneScratch& LeafCache::Scratch(size_t lane) {
  while (scratch_.size() <= lane) {
    scratch_.emplace_back(layout_, graph_->generator().domain());
  }
  return scratch_[lane];
}

Result<std::vector<const fo::ValuationSet*>> LeafCache::AllSnapshots(
    size_t leaf) {
  std::vector<const fo::ValuationSet*> sets;
  sets.reserve(graph_->size());
  for (SnapshotId sid = 0; sid < graph_->size(); ++sid) {
    WSV_ASSIGN_OR_RETURN(const fo::ValuationSet* sat, Get(sid, leaf));
    sets.push_back(sat);
  }
  return sets;
}

Result<const fo::ValuationSet*> LeafCache::EverSatisfied(size_t leaf) {
  if (ever_.size() < leaves_.size()) ever_.resize(leaves_.size());
  if (!ever_[leaf].has_value()) {
    WSV_ASSIGN_OR_RETURN(std::vector<const fo::ValuationSet*> sets,
                         AllSnapshots(leaf));
    ever_[leaf] = fo::ValuationSet::UnionAll(
        leaf_vars_[leaf], sets, graph_->generator().domain());
  }
  return &*ever_[leaf];
}

Result<const fo::ValuationSet*> LeafCache::AlwaysSatisfied(size_t leaf) {
  if (always_.size() < leaves_.size()) always_.resize(leaves_.size());
  if (!always_[leaf].has_value()) {
    WSV_ASSIGN_OR_RETURN(std::vector<const fo::ValuationSet*> sets,
                         AllSnapshots(leaf));
    always_[leaf] =
        sets.empty() ? fo::ValuationSet(leaf_vars_[leaf])
                     : fo::ValuationSet::IntersectAll(
                           leaf_vars_[leaf], sets, graph_->generator().domain());
  }
  return &*always_[leaf];
}

}  // namespace wsv::verifier
