#ifndef WSVERIFY_RUNTIME_FLAT_SNAPSHOT_H_
#define WSVERIFY_RUNTIME_FLAT_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/snapshot.h"
#include "spec/composition.h"

namespace wsv::runtime {

/// A canonical flat encoding of a (normalized) Snapshot: one contiguous
/// uint32 span. Because relations keep their tuples sorted and unique and
/// the layout below is prefix-decodable, the encoding is injective — two
/// snapshots of the same composition are equal exactly when their spans are
/// word-for-word equal. That turns the intern hot path into one hash pass
/// plus one memcmp, with no per-member traversal of the
/// vector<vector<Relation>>-of-Tuple object graph.
///
/// Layout (all words uint32):
///   [0]              mover + 2 (kEnvMover maps to 0, kNoMover to 1)
///   [1..f]           received/sent/send_errors event bits, packed 32/word
///                    in that order, peers' send_errors in peer order
///   then, per peer, per state/input/prev/action relation in schema order:
///                    [tuple_count, values...] (tuples sorted, arity fixed)
///   then, per channel:
///                    [message_count, per message [tuple_count, values...]]
struct FlatSnapshot {
  const uint32_t* data = nullptr;
  uint32_t size = 0;  // in words

  friend bool operator==(const FlatSnapshot& a, const FlatSnapshot& b) {
    return a.size == b.size &&
           (a.size == 0 ||
            std::memcmp(a.data, b.data, a.size * sizeof(uint32_t)) == 0);
  }
};

/// One-pass FNV-1a over the span words. Ids assigned by SnapshotGraph do
/// not depend on hash values (interning is ordered by frontier position),
/// so this hash does not need to match runtime::SnapshotHash.
inline size_t HashFlatSnapshot(const uint32_t* data, size_t words) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < words; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  // Final avalanche: FNV's low bits are weak and the intern table is
  // power-of-two masked.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h);
}

/// Appends `rel` as [tuple_count, values...], tuples in their sorted order:
/// the relation encoding of FlatSnapshotCodec, also used by MoveMemo keys
/// and values.
inline void AppendRelationWords(const data::Relation& rel,
                                std::vector<uint32_t>* out) {
  out->push_back(static_cast<uint32_t>(rel.size()));
  for (const data::Tuple& t : rel.tuples()) {
    for (data::Value v : t) out->push_back(v);
  }
}

/// Reads a relation written by AppendRelationWords at `p` into `rel`, whose
/// arity must match, reusing its tuple storage. Returns the word after it.
inline const uint32_t* ReadRelationWords(const uint32_t* p,
                                         data::Relation* rel) {
  const uint32_t count = *p++;
  rel->AssignSortedRows(p, count);
  return p + static_cast<size_t>(count) * rel->arity();
}

/// Encoder/decoder for one composition's snapshots. The codec captures the
/// fixed shape (peer schemas, queue wiring, channel count) once, so
/// encoding is a single append pass and decoding rebuilds structure without
/// schema lookups. `comp` must be validated and outlive the codec.
class FlatSnapshotCodec {
 public:
  explicit FlatSnapshotCodec(const spec::Composition* comp);

  const spec::Composition& composition() const { return *comp_; }

  /// Serializes `snap` into `out` (cleared first). The buffer is reusable
  /// across calls — the intern loop encodes ~16x more candidates than it
  /// keeps, so candidates must not allocate.
  void Encode(const Snapshot& snap, std::vector<uint32_t>* out) const;

  /// Rebuilds a Snapshot from a span produced by Encode. `out` is
  /// overwritten in place, reusing its relation storage where possible;
  /// pass the same scratch snapshot across calls to avoid reallocation.
  /// `out` must either be default-constructed or a previous Decode/
  /// MakeInitialSnapshot result for the same composition.
  void Decode(FlatSnapshot flat, Snapshot* out) const;

  /// Convenience: decode into a fresh Snapshot.
  Snapshot Decode(FlatSnapshot flat) const {
    Snapshot snap = MakeInitialSnapshot(*comp_);
    Decode(flat, &snap);
    return snap;
  }

  /// Number of event-bit words in the header (received + sent +
  /// send_errors packed together).
  size_t event_words() const { return event_words_; }

 private:
  const spec::Composition* comp_;
  /// Arity per channel.
  std::vector<uint32_t> channel_arities_;
  /// send_errors lengths per peer (out_queues count).
  std::vector<uint32_t> send_error_counts_;
  size_t event_bits_ = 0;
  size_t event_words_ = 0;
};

}  // namespace wsv::runtime

#endif  // WSVERIFY_RUNTIME_FLAT_SNAPSHOT_H_
