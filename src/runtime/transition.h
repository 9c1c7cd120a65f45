#ifndef WSVERIFY_RUNTIME_TRANSITION_H_
#define WSVERIFY_RUNTIME_TRANSITION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/interner.h"
#include "common/status.h"
#include "data/instance.h"
#include "data/value.h"
#include "fo/eval.h"
#include "runtime/run_options.h"
#include "runtime/snapshot.h"
#include "runtime/snapshot_view.h"
#include "spec/composition.h"

namespace wsv::runtime {

class TransitionGenerator;

/// Remembers, per peer, the outcome of evaluating the peer's rules on each
/// distinct local view, so a move is evaluated once per view instead of once
/// per expansion.
///
/// Definition 2.4 makes a move of peer P a function of P's rule structure
/// alone: its database, state, current input, previous inputs, the first
/// message and emptiness of each in-queue, and its send-error flags. The
/// other peers, the mover's actions and every queued message behind a head
/// never enter it. Two tables per peer are kept:
///
///  * moves, keyed by the flat encoding of state, input, prev, send errors
///    and, per in-queue, its head message or an "empty" marker; the value
///    is the pre-delivery successor configuration (state, actions, shifted
///    prev window, send errors) and the send alternatives;
///  * input options, keyed the same way without the input; the value is the
///    input digits (options per input relation) of the successor.
///
/// The key leaves the database (and the evaluation domain) out, so a memo
/// is bound to the one TransitionGenerator that first uses it, and using it
/// with another generator is an error. A memo is not thread-safe: each
/// expansion lane owns one. Keys and values live back to back in an arena
/// behind open-addressing id tables. Evaluation errors are returned and
/// never stored.
class MoveMemo {
 public:
  /// Lookups since the previous TakeCounts and the growth of the bytes the
  /// memo holds (lane-local counts that callers publish in batches).
  struct Counts {
    uint64_t move_hits = 0;
    uint64_t move_misses = 0;
    uint64_t input_hits = 0;
    uint64_t input_misses = 0;
    uint64_t bytes = 0;
  };

  /// Returns the counts since the previous call and starts a new count.
  Counts TakeCounts();

 private:
  friend class TransitionGenerator;

  /// Bytes held: keys and values, entry records and the id tables.
  size_t bytes() const;

  /// One stored key/value pair: `key_words` key words, then `value_words`
  /// value words, contiguous in the arena.
  struct Entry {
    const uint32_t* words;
    uint32_t key_words;
    uint32_t value_words;
  };

  struct Table {
    FlatIdSet index;
    std::vector<Entry> entries;
  };

  /// The value stored under key_ (whose hash is `hash`) in `table`, or
  /// null.
  const uint32_t* Find(const Table& table, size_t hash) const;

  /// Stores key_ -> value_ in `table` under `hash` (key_ must be absent).
  void Insert(Table& table, size_t hash);

  const TransitionGenerator* owner_ = nullptr;
  std::vector<Table> moves_;   // per peer
  std::vector<Table> inputs_;  // per peer
  Arena arena_{64 * 1024};
  /// Scratch encodings of the current lookup.
  std::vector<uint32_t> key_;
  std::vector<uint32_t> value_;
  Counts counts_;
  uint64_t published_bytes_ = 0;
};

/// Generates the legal successor snapshots of a composition configuration
/// (Definition 2.4 lifted to serialized runs, Definition 2.6).
///
/// A transition picks one mover (a peer, or the environment for open
/// compositions) and branches over: the user's input choices (at most one
/// option tuple per input relation), nondeterministic flat-send picks,
/// lossy-channel drops, and — for environment moves — arbitrary
/// domain-bounded message injections (Section 5).
class TransitionGenerator {
 public:
  /// `comp` must be validated and outlive the generator. `databases` is one
  /// instance of each peer's database schema, aligned with comp.peers().
  /// `domain` is the evaluation domain for rule quantifiers (the
  /// pseudo-domain during verification, or the active domain during
  /// simulation); `interner` resolves rule constants.
  TransitionGenerator(const spec::Composition* comp,
                      std::vector<data::Instance> databases,
                      data::Domain domain, const Interner* interner,
                      RunOptions options);

  const spec::Composition& composition() const { return *comp_; }
  const std::vector<data::Instance>& databases() const { return databases_; }
  const data::Domain& domain() const { return domain_; }
  const RunOptions& options() const { return options_; }

  /// All legal initial snapshots (Definition 2.6): states, previous inputs,
  /// actions and queues empty; every peer's current input is any
  /// options-consistent choice at the empty configuration (Definition 2.3
  /// requires each configuration to carry its input).
  Result<std::vector<Snapshot>> InitialSnapshots() const;

  /// Receives one successor at a time. The snapshot is the generator's
  /// scratch: it is valid only during the call, and the generator rewrites
  /// the moving peer's inputs in place before the next one. The sink may
  /// change the other parts (normalize the snapshot in place) as long as
  /// the change does not depend on those inputs.
  using SuccessorSink = std::function<void(Snapshot&)>;

  /// Streams every successor across all movers (peers, plus the
  /// environment when options().allow_env_moves) into `sink`: peers in
  /// index order, then the environment; per peer the send picks, then the
  /// delivery branches, then the input choices, with the first input
  /// relation as the most significant digit and every digit running "no
  /// input" first, then the option tuples in order. Peer moves and input
  /// options are looked up in, or evaluated into, `memo`, which must be
  /// fresh or used only with this generator before.
  Status ForEachSuccessor(const Snapshot& snap, MoveMemo& memo,
                          const SuccessorSink& sink) const;

  /// ForEachSuccessor collected into a vector, through a fresh memo
  /// (simulation and tests).
  Result<std::vector<Snapshot>> Successors(const Snapshot& snap) const;

  /// Successors where peer `peer_index` moves, collected (fresh memo).
  Result<std::vector<Snapshot>> SuccessorsForPeer(const Snapshot& snap,
                                                  size_t peer_index) const;

  /// Successors where the environment moves (open compositions only).
  Result<std::vector<Snapshot>> EnvSuccessors(const Snapshot& snap) const;

  /// The structure a peer's rules see in `snap` (database, state, previous
  /// inputs, first messages and queue-states of in-queues, send errors;
  /// current inputs only with `include_input`), borrowing from `snap`: it
  /// must not outlive `snap` or the generator.
  fo::SlotStructure RuleStructure(const Snapshot& snap, size_t peer_index,
                                  bool include_input) const;

 private:
  struct PeerWiring {
    /// Composition channel index per in-queue / out-queue (aligned with the
    /// peer's in_queues() / out_queues()).
    std::vector<size_t> in_channel;
    std::vector<size_t> out_channel;
    /// In-queues mentioned in some rule body (these are dequeued on every
    /// move of the peer, Definition 2.4).
    std::vector<bool> consumes;
  };

  /// A peer's rules, resolved once by head relation (null: no rule).
  struct PeerRules {
    std::vector<const spec::Rule*> state_insert;   // per declared state
    std::vector<const spec::Rule*> state_delete;   // per declared state
    std::vector<const spec::Rule*> action;         // per action relation
    std::vector<const spec::Rule*> send;           // per out-queue
    std::vector<const spec::Rule*> input_options;  // per input relation
  };

  /// A message produced by a send rule, before channel delivery.
  struct OutgoingMessage {
    size_t channel;
    spec::QueueKind kind;
    data::Relation content;  // singleton for flat
  };

  const StructureLayout& RuleLayout(size_t peer_index,
                                    bool include_input) const {
    return rule_layouts_[2 * peer_index + (include_input ? 1 : 0)];
  }

  /// One input relation with a non-empty options set: a digit of the input
  /// choice enumeration ("no input", then each option tuple).
  struct InputDigit {
    size_t peer;
    size_t relation;
    data::Relation options;
    size_t position = 0;  // 0 = no input, i = options.tuples()[i - 1]
  };

  /// Evaluates the options rule of every input relation of `peer_index`
  /// against `structure` (a rule structure without inputs) and appends one
  /// digit per relation with a non-empty options set (Definition 2.3: at
  /// most one option tuple per input relation).
  Status AddInputDigits(size_t peer_index, const fo::StructureView& structure,
                        std::vector<InputDigit>* digits) const;

  /// Writes every combination of `digits` into the (all-empty) inputs of
  /// `scratch` in place, first digit most significant, and hands each to
  /// `sink`. Leaves the inputs empty again.
  static void ForEachInputChoice(std::vector<InputDigit>& digits,
                                 Snapshot* scratch, const SuccessorSink& sink);

  /// Streams the successors where peer `peer_index` moves.
  Status ForEachPeerSuccessor(const Snapshot& snap, size_t peer_index,
                              MoveMemo& memo, const SuccessorSink& sink) const;

  /// Evaluates peer `peer_index`'s state, action and send rules on `snap`
  /// (the miss path of the move memo): writes the successor's state,
  /// actions, send errors and shifted prev window into `cfg` (a copy of the
  /// peer's configuration in `snap`) and the send alternatives into `sends`.
  Status EvaluateMove(const Snapshot& snap, size_t peer_index, PeerConfig* cfg,
                      std::vector<std::vector<OutgoingMessage>>* sends) const;

  /// Binds `memo` to this generator on first use; errors if it is bound to
  /// another one (its keys leave the database out).
  Status BindMemo(MoveMemo& memo) const;

  /// Encodes peer `peer_index`'s rule view of `snap` (without the database)
  /// as a memo key into `out`.
  void EncodeViewKey(const Snapshot& snap, size_t peer_index,
                     bool include_input, std::vector<uint32_t>* out) const;

  /// Applies channel delivery (lossy branching, bounds) of `messages` to
  /// `base`, appending all resulting snapshots to `out`.
  void DeliverMessages(Snapshot base,
                       const std::vector<OutgoingMessage>& messages,
                       size_t message_index,
                       std::vector<Snapshot>& out) const;

  bool ChannelIsLossy(spec::QueueKind kind) const;

  /// Candidate environment-message contents for a channel (configured
  /// finite domain, or every tuple over the evaluation domain).
  std::vector<data::Relation> EnvCandidates(size_t channel_index) const;

  const spec::Composition* comp_;
  std::vector<data::Instance> databases_;
  data::Domain domain_;
  const Interner* interner_;
  RunOptions options_;
  fo::Evaluator evaluator_;
  std::vector<PeerWiring> wiring_;
  std::vector<PeerRules> rules_;
  /// Per peer: the rule layout without, then with, current inputs.
  std::vector<StructureLayout> rule_layouts_;
};

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_TRANSITION_H_
