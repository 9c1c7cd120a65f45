#include "runtime/snapshot_view.h"

#include <cassert>

namespace wsv::runtime {

namespace {

/// The shared 0-ary truth values every proposition slot points at.
const data::Relation* PropRelation(bool value) {
  static const data::Relation kFalse(0);
  static const data::Relation kTrue(0, {data::Tuple{}});
  return value ? &kTrue : &kFalse;
}

}  // namespace

StructureLayout::StructureLayout(const spec::Composition* comp) {
  empty_messages_.reserve(comp->channels().size());
  for (const spec::Channel& channel : comp->channels()) {
    empty_messages_.emplace_back(channel.arity());
  }
}

void StructureLayout::Add(const std::string& name, Source source, int peer,
                          uint32_t index) {
  size_t slot = names_.Add(name);
  Slot binding{source, peer, index};
  if (slot == slots_.size()) {
    slots_.push_back(binding);
  } else {
    slots_[slot] = binding;  // the later binding wins
  }
}

void StructureLayout::AddSchema(const std::string& prefix,
                                const data::Schema& schema, Source source,
                                int peer) {
  for (size_t i = 0; i < schema.size(); ++i) {
    Add(prefix + schema.relation(i).name, source, peer,
        static_cast<uint32_t>(i));
  }
}

void StructureLayout::Bind(const std::vector<data::Instance>& databases,
                           const Snapshot& snap,
                           fo::SlotStructure* out) const {
  assert(&out->names() == &names_ && "structure built over another layout");
  for (size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    const data::Relation* relation = nullptr;
    switch (slot.source) {
      case Source::kDatabase:
        relation = &databases[slot.peer].relation(slot.index);
        break;
      case Source::kState:
        relation = &snap.peers[slot.peer].state.relation(slot.index);
        break;
      case Source::kInput:
        relation = &snap.peers[slot.peer].input.relation(slot.index);
        break;
      case Source::kPrev:
        relation = &snap.peers[slot.peer].prev.relation(slot.index);
        break;
      case Source::kAction:
        relation = &snap.peers[slot.peer].action.relation(slot.index);
        break;
      case Source::kQueueFirst: {
        const auto& queue = snap.channels[slot.index];
        relation =
            queue.empty() ? &empty_messages_[slot.index] : &queue.front();
        break;
      }
      case Source::kQueueLast: {
        const auto& queue = snap.channels[slot.index];
        relation =
            queue.empty() ? &empty_messages_[slot.index] : &queue.back();
        break;
      }
      case Source::kQueueEmpty:
        relation = PropRelation(snap.channels[slot.index].empty());
        break;
      case Source::kMover:
        relation = PropRelation(snap.mover == slot.peer);
        break;
      case Source::kSendError: {
        const std::vector<bool>& errors = snap.peers[slot.peer].send_errors;
        relation =
            PropRelation(slot.index < errors.size() && errors[slot.index]);
        break;
      }
      case Source::kReceived:
        relation = PropRelation(snap.received[slot.index]);
        break;
      case Source::kSent:
        relation = PropRelation(snap.sent[slot.index]);
        break;
    }
    out->Bind(s, relation);
  }
}

StructureLayout PropertyStructureLayout(const spec::Composition& comp) {
  using Source = StructureLayout::Source;
  StructureLayout layout(&comp);
  bool single_peer = comp.peers().size() == 1;
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const spec::Peer& peer = comp.peers()[p];
    const int pi = static_cast<int>(p);
    const std::string prefix = peer.name() + ".";
    for (const std::string& pfx :
         single_peer ? std::vector<std::string>{prefix, ""}
                     : std::vector<std::string>{prefix}) {
      layout.AddSchema(pfx, peer.database_schema(), Source::kDatabase, pi);
      layout.AddSchema(pfx, peer.declared_state_schema(), Source::kState, pi);
      layout.AddSchema(pfx, peer.input_schema(), Source::kInput, pi);
      layout.AddSchema(pfx, peer.prev_input_schema(), Source::kPrev, pi);
      layout.AddSchema(pfx, peer.action_schema(), Source::kAction, pi);
    }
    layout.Add(spec::Composition::MovePropName(peer.name()), Source::kMover,
               pi, 0);
    for (size_t q = 0; q < peer.out_queues().size(); ++q) {
      layout.Add(prefix + "error_" + peer.out_queues()[q].name,
                 Source::kSendError, pi, static_cast<uint32_t>(q));
    }
  }
  layout.Add(spec::Composition::EnvMovePropName(), Source::kMover, kEnvMover,
             0);

  for (size_t c = 0; c < comp.channels().size(); ++c) {
    const spec::Channel& channel = comp.channels()[c];
    const uint32_t ci = static_cast<uint32_t>(c);
    if (channel.receiver != spec::Channel::kEnvironment) {
      const std::string& rname = comp.peers()[channel.receiver].name();
      layout.Add(rname + "." + channel.name, Source::kQueueFirst, 0, ci);
      layout.Add(rname + "." + spec::QueueEmptyStateName(channel.name),
                 Source::kQueueEmpty, 0, ci);
    } else {
      layout.Add("env." + channel.name, Source::kQueueFirst, 0, ci);
    }
    if (channel.sender != spec::Channel::kEnvironment) {
      const std::string& sname = comp.peers()[channel.sender].name();
      layout.Add(sname + "." + channel.name, Source::kQueueLast, 0, ci);
    } else {
      layout.Add("env." + channel.name, Source::kQueueLast, 0, ci);
    }
    layout.Add(spec::Composition::ReceivedPropName(channel.name),
               Source::kReceived, 0, ci);
    layout.Add("sent_" + channel.name, Source::kSent, 0, ci);
  }
  return layout;
}

}  // namespace wsv::runtime
