#include "runtime/flat_snapshot.h"

#include <cassert>

#include "data/schema.h"

namespace wsv::runtime {

namespace {

/// The four per-peer instance parts, in encode order.
const data::Schema& PartSchema(const spec::Peer& peer, size_t part) {
  switch (part) {
    case 0:
      return peer.declared_state_schema();
    case 1:
      return peer.input_schema();
    case 2:
      return peer.prev_input_schema();
    default:
      return peer.action_schema();
  }
}

const data::Instance& PartInstance(const PeerConfig& cfg, size_t part) {
  switch (part) {
    case 0:
      return cfg.state;
    case 1:
      return cfg.input;
    case 2:
      return cfg.prev;
    default:
      return cfg.action;
  }
}

data::Instance& PartInstance(PeerConfig& cfg, size_t part) {
  switch (part) {
    case 0:
      return cfg.state;
    case 1:
      return cfg.input;
    case 2:
      return cfg.prev;
    default:
      return cfg.action;
  }
}

}  // namespace

FlatSnapshotCodec::FlatSnapshotCodec(const spec::Composition* comp)
    : comp_(comp) {
  for (const spec::Peer& peer : comp_->peers()) {
    send_error_counts_.push_back(
        static_cast<uint32_t>(peer.out_queues().size()));
  }
  for (const spec::Channel& channel : comp_->channels()) {
    channel_arities_.push_back(static_cast<uint32_t>(channel.arity()));
  }
  event_bits_ = 2 * channel_arities_.size();  // received + sent
  for (uint32_t n : send_error_counts_) event_bits_ += n;
  event_words_ = (event_bits_ + 31) / 32;
}

void FlatSnapshotCodec::Encode(const Snapshot& snap,
                               std::vector<uint32_t>* out) const {
  out->clear();
  out->push_back(static_cast<uint32_t>(snap.mover + 2));

  // Event bits: received, sent, then every peer's send_errors.
  size_t bit = 0;
  size_t base = out->size();
  out->resize(base + event_words_, 0);
  auto push_bit = [&](bool value) {
    if (value) (*out)[base + bit / 32] |= 1u << (bit % 32);
    ++bit;
  };
  for (bool b : snap.received) push_bit(b);
  for (bool b : snap.sent) push_bit(b);
  for (const PeerConfig& cfg : snap.peers) {
    for (bool b : cfg.send_errors) push_bit(b);
  }
  assert(bit == event_bits_ && "snapshot shape does not match composition");

  for (const PeerConfig& cfg : snap.peers) {
    for (size_t part = 0; part < 4; ++part) {
      const data::Instance& inst = PartInstance(cfg, part);
      for (size_t r = 0; r < inst.size(); ++r) {
        AppendRelationWords(inst.relation(r), out);
      }
    }
  }
  for (const auto& queue : snap.channels) {
    out->push_back(static_cast<uint32_t>(queue.size()));
    for (const data::Relation& msg : queue) AppendRelationWords(msg, out);
  }
}

void FlatSnapshotCodec::Decode(FlatSnapshot flat, Snapshot* out) const {
  const uint32_t* p = flat.data;
  [[maybe_unused]] const uint32_t* end = flat.data + flat.size;
  out->mover = static_cast<int>(*p++) - 2;

  const uint32_t* events = p;
  p += event_words_;
  size_t bit = 0;
  auto read_bit = [&]() {
    bool value = (events[bit / 32] >> (bit % 32)) & 1u;
    ++bit;
    return value;
  };

  size_t num_channels = channel_arities_.size();
  out->received.resize(num_channels);
  out->sent.resize(num_channels);
  for (size_t c = 0; c < num_channels; ++c) out->received[c] = read_bit();
  for (size_t c = 0; c < num_channels; ++c) out->sent[c] = read_bit();

  const auto& peers = comp_->peers();
  out->peers.resize(peers.size());
  for (size_t i = 0; i < peers.size(); ++i) {
    PeerConfig& cfg = out->peers[i];
    cfg.send_errors.resize(send_error_counts_[i]);
    for (size_t q = 0; q < send_error_counts_[i]; ++q) {
      cfg.send_errors[q] = read_bit();
    }
  }

  // Every relation is rebuilt in its existing tuple storage.
  auto read_relation = [&](data::Relation& rel) {
    p = ReadRelationWords(p, &rel);
  };

  for (size_t i = 0; i < peers.size(); ++i) {
    PeerConfig& cfg = out->peers[i];
    for (size_t part = 0; part < 4; ++part) {
      const data::Schema& schema = PartSchema(peers[i], part);
      data::Instance& inst = PartInstance(cfg, part);
      if (inst.schema() != &schema) inst = data::Instance(&schema);
      for (size_t r = 0; r < schema.size(); ++r) {
        read_relation(inst.relation(r));
      }
    }
  }

  out->channels.resize(num_channels);
  for (size_t c = 0; c < num_channels; ++c) {
    uint32_t messages = *p++;
    auto& queue = out->channels[c];
    queue.resize(messages, data::Relation(channel_arities_[c]));
    for (data::Relation& msg : queue) read_relation(msg);
  }
  assert(p == end && "flat snapshot span length mismatch");
}

}  // namespace wsv::runtime
