#ifndef WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_
#define WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/instance.h"
#include "data/relation.h"
#include "fo/structure.h"
#include "runtime/snapshot.h"
#include "spec/composition.h"

namespace wsv::runtime {

/// The shape of an evaluation structure over a snapshot: a fixed name ->
/// slot table and, per slot, where its relation lives. Built once (per peer
/// for rule bodies, per composition for properties); Bind then points a
/// fo::SlotStructure at one snapshot's relations without copying any.
///
/// Slots are declared with Add in binding order. A repeated name keeps its
/// first slot and takes the later source, so the later binding wins.
class StructureLayout {
 public:
  /// Where a slot's relation comes from at Bind time.
  enum class Source : uint8_t {
    kDatabase,    // databases[peer].relation(index)
    kState,       // snap.peers[peer].state.relation(index)
    kInput,       // snap.peers[peer].input.relation(index)
    kPrev,        // snap.peers[peer].prev.relation(index)
    kAction,      // snap.peers[peer].action.relation(index)
    kQueueFirst,  // f(q): first message of channel `index`, or empty
    kQueueLast,   // l(q): last message of channel `index`, or empty
    kQueueEmpty,  // 0-ary: channel `index` holds no message
    kMover,       // 0-ary: snap.mover == peer (kEnvMover for the env)
    kSendError,   // 0-ary: snap.peers[peer].send_errors[index]
    kReceived,    // 0-ary: snap.received[index]
    kSent,        // 0-ary: snap.sent[index]
  };

  /// `comp` must be validated.
  explicit StructureLayout(const spec::Composition* comp);

  void Add(const std::string& name, Source source, int peer,
           uint32_t index);

  /// Every relation of `schema` (peer `peer`'s part `source`) under
  /// `prefix` + its name, in schema order.
  void AddSchema(const std::string& prefix, const data::Schema& schema,
                 Source source, int peer);

  const fo::SlotNames& names() const { return names_; }

  /// Points every slot of `out` (built over names()) at `snap` and
  /// `databases`. `out` borrows: it is valid only while `snap`,
  /// `databases` and this layout live and are not modified structurally
  /// (a relation may change its tuples, not move).
  void Bind(const std::vector<data::Instance>& databases, const Snapshot& snap,
            fo::SlotStructure* out) const;

 private:
  struct Slot {
    Source source;
    int peer;
    uint32_t index;
  };

  fo::SlotNames names_;
  std::vector<Slot> slots_;  // by slot
  /// The empty message of each channel (f(q) / l(q) of an empty queue).
  std::vector<data::Relation> empty_messages_;
};

/// The layout of the structure over which composition-level LTL-FO
/// properties are evaluated at a snapshot (Section 3, "Semantics of LTL-FO
/// Properties"):
///
///  * every peer relation under "Peer.name" (database, state, input,
///    previous input, action);
///  * in-queue symbols as f(q) — the first message — under
///    "<receiver>.<queue>", and out-queue symbols as l(q) — the most
///    recently enqueued message — under "<sender>.<queue>";
///  * environment-facing queues under "env.<queue>" (f(q) for queues the
///    environment consumes, l(q) for queues it feeds — Section 5);
///  * queue-state propositions "Peer.empty_<queue>";
///  * run propositions "move_<peer>", "move_env", "received_<queue>",
///    "sent_<queue>".
///
/// Single-peer compositions also expose unqualified names (matching
/// Composition::Classify's resolution rule).
StructureLayout PropertyStructureLayout(const spec::Composition& comp);

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_SNAPSHOT_VIEW_H_
