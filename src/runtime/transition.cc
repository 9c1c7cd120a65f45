#include "runtime/transition.h"

#include <cassert>
#include <cstring>

#include "runtime/flat_snapshot.h"

namespace wsv::runtime {

namespace {

/// A move-memo key word for an in-queue holding no message (a head message
/// starts with its tuple count, which never reaches this value).
constexpr uint32_t kEmptyQueueWord = ~static_cast<uint32_t>(0);

void AppendInstanceWords(const data::Instance& inst,
                         std::vector<uint32_t>* out) {
  for (size_t r = 0; r < inst.size(); ++r) {
    AppendRelationWords(inst.relation(r), out);
  }
}

const uint32_t* ReadInstanceWords(const uint32_t* p, data::Instance* inst) {
  for (size_t r = 0; r < inst->size(); ++r) {
    p = ReadRelationWords(p, &inst->relation(r));
  }
  return p;
}

/// [bit_count, bits packed 32 per word].
void AppendBitWords(const std::vector<bool>& bits,
                    std::vector<uint32_t>* out) {
  out->push_back(static_cast<uint32_t>(bits.size()));
  for (size_t i = 0; i < bits.size(); ++i) {
    if (i % 32 == 0) out->push_back(0);
    if (bits[i]) out->back() |= 1u << (i % 32);
  }
}

const uint32_t* ReadBitWords(const uint32_t* p, std::vector<bool>* bits) {
  const uint32_t count = *p++;
  bits->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    (*bits)[i] = (p[i / 32] >> (i % 32)) & 1u;
  }
  return p + (count + 31) / 32;
}

}  // namespace

MoveMemo::Counts MoveMemo::TakeCounts() {
  Counts out = counts_;
  const uint64_t held = bytes();
  out.bytes = held - published_bytes_;
  published_bytes_ = held;
  counts_ = Counts();
  return out;
}

size_t MoveMemo::bytes() const {
  size_t total = arena_.used_bytes();
  for (const std::vector<Table>* tables : {&moves_, &inputs_}) {
    for (const Table& table : *tables) {
      total += table.index.bytes() + table.entries.capacity() * sizeof(Entry);
    }
  }
  return total;
}

const uint32_t* MoveMemo::Find(const Table& table, size_t hash) const {
  const uint32_t id = table.index.Find(hash, [&](uint32_t candidate) {
    const Entry& entry = table.entries[candidate];
    return entry.key_words == key_.size() &&
           std::memcmp(entry.words, key_.data(),
                       key_.size() * sizeof(uint32_t)) == 0;
  });
  if (id == FlatIdSet::kEmpty) return nullptr;
  const Entry& entry = table.entries[id];
  return entry.words + entry.key_words;
}

void MoveMemo::Insert(Table& table, size_t hash) {
  uint32_t* words = arena_.AllocWords(key_.size() + value_.size());
  std::memcpy(words, key_.data(), key_.size() * sizeof(uint32_t));
  std::memcpy(words + key_.size(), value_.data(),
              value_.size() * sizeof(uint32_t));
  table.index.Insert(hash, static_cast<uint32_t>(table.entries.size()));
  table.entries.push_back(Entry{words, static_cast<uint32_t>(key_.size()),
                                static_cast<uint32_t>(value_.size())});
}

TransitionGenerator::TransitionGenerator(const spec::Composition* comp,
                                         std::vector<data::Instance> databases,
                                         data::Domain domain,
                                         const Interner* interner,
                                         RunOptions options)
    : comp_(comp),
      databases_(std::move(databases)),
      domain_(std::move(domain)),
      interner_(interner),
      options_(options),
      evaluator_(interner) {
  assert(databases_.size() == comp_->peers().size());
  // Precompute channel wiring per peer.
  wiring_.resize(comp_->peers().size());
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    const spec::Peer& peer = comp_->peers()[p];
    PeerWiring& w = wiring_[p];
    w.in_channel.resize(peer.in_queues().size());
    w.out_channel.resize(peer.out_queues().size());
    w.consumes.assign(peer.in_queues().size(), false);
    for (size_t q = 0; q < peer.in_queues().size(); ++q) {
      for (size_t c = 0; c < comp_->channels().size(); ++c) {
        if (comp_->channels()[c].name == peer.in_queues()[q].name) {
          w.in_channel[q] = c;
          break;
        }
      }
    }
    for (size_t q = 0; q < peer.out_queues().size(); ++q) {
      for (size_t c = 0; c < comp_->channels().size(); ++c) {
        if (comp_->channels()[c].name == peer.out_queues()[q].name) {
          w.out_channel[q] = c;
          break;
        }
      }
    }
    // In-queues mentioned anywhere in the peer's rules get dequeued on every
    // move (Definition 2.4).
    std::set<std::string> mentioned;
    for (const spec::Rule& rule : peer.rules()) {
      auto names = rule.body->RelationNames();
      mentioned.insert(names.begin(), names.end());
    }
    for (size_t q = 0; q < peer.in_queues().size(); ++q) {
      if (mentioned.count(peer.in_queues()[q].name) > 0) w.consumes[q] = true;
    }

    PeerRules& rules = rules_.emplace_back();
    auto resolve = [&](spec::RuleKind kind, const data::Schema& schema,
                       std::vector<const spec::Rule*>* out) {
      for (size_t i = 0; i < schema.size(); ++i) {
        out->push_back(peer.FindRule(kind, schema.relation(i).name));
      }
    };
    resolve(spec::RuleKind::kStateInsert, peer.declared_state_schema(),
            &rules.state_insert);
    resolve(spec::RuleKind::kStateDelete, peer.declared_state_schema(),
            &rules.state_delete);
    resolve(spec::RuleKind::kAction, peer.action_schema(), &rules.action);
    resolve(spec::RuleKind::kInputOptions, peer.input_schema(),
            &rules.input_options);
    for (const spec::QueueDecl& decl : peer.out_queues()) {
      rules.send.push_back(peer.FindRule(spec::RuleKind::kSend, decl.name));
    }

    // Rule layouts, in the binding order of Definition 2.4's structure:
    // database, state, previous inputs, inputs, then the queue views f(Q)
    // and empty_Q, then the send-error flags (Theorem 3.8: consultable by
    // rules; constant false outside the deterministic-send semantics).
    using Source = StructureLayout::Source;
    const int pi = static_cast<int>(p);
    for (bool include_input : {false, true}) {
      StructureLayout& layout = rule_layouts_.emplace_back(comp_);
      layout.AddSchema("", peer.database_schema(), Source::kDatabase, pi);
      layout.AddSchema("", peer.declared_state_schema(), Source::kState, pi);
      layout.AddSchema("", peer.prev_input_schema(), Source::kPrev, pi);
      if (include_input) {
        layout.AddSchema("", peer.input_schema(), Source::kInput, pi);
      }
      for (size_t q = 0; q < peer.in_queues().size(); ++q) {
        const std::string& name = peer.in_queues()[q].name;
        const uint32_t channel = static_cast<uint32_t>(w.in_channel[q]);
        layout.Add(name, Source::kQueueFirst, pi, channel);
        layout.Add(spec::QueueEmptyStateName(name), Source::kQueueEmpty, pi,
                   channel);
      }
      for (size_t q = 0; q < peer.out_queues().size(); ++q) {
        if (peer.out_queues()[q].kind != spec::QueueKind::kFlat) continue;
        layout.Add("error_" + peer.out_queues()[q].name, Source::kSendError,
                   pi, static_cast<uint32_t>(q));
      }
    }
  }
}

bool TransitionGenerator::ChannelIsLossy(spec::QueueKind kind) const {
  if (!options_.lossy) return false;
  if (kind == spec::QueueKind::kNested && options_.perfect_nested) {
    return false;
  }
  return true;
}

Status TransitionGenerator::BindMemo(MoveMemo& memo) const {
  if (memo.owner_ == this) return Status::Ok();
  if (memo.owner_ != nullptr) {
    return Status::Internal(
        "move memo is bound to another transition generator");
  }
  memo.owner_ = this;
  memo.moves_.resize(comp_->peers().size());
  memo.inputs_.resize(comp_->peers().size());
  return Status::Ok();
}

void TransitionGenerator::EncodeViewKey(const Snapshot& snap,
                                        size_t peer_index, bool include_input,
                                        std::vector<uint32_t>* out) const {
  const PeerConfig& cfg = snap.peers[peer_index];
  out->clear();
  AppendInstanceWords(cfg.state, out);
  if (include_input) AppendInstanceWords(cfg.input, out);
  AppendInstanceWords(cfg.prev, out);
  AppendBitWords(cfg.send_errors, out);
  for (size_t channel : wiring_[peer_index].in_channel) {
    const std::vector<data::Relation>& queue = snap.channels[channel];
    if (queue.empty()) {
      out->push_back(kEmptyQueueWord);
    } else {
      AppendRelationWords(queue.front(), out);
    }
  }
}

fo::SlotStructure TransitionGenerator::RuleStructure(const Snapshot& snap,
                                                     size_t peer_index,
                                                     bool include_input) const {
  const StructureLayout& layout = RuleLayout(peer_index, include_input);
  fo::SlotStructure structure(&layout.names(), &domain_);
  layout.Bind(databases_, snap, &structure);
  return structure;
}

Status TransitionGenerator::AddInputDigits(
    size_t peer_index, const fo::StructureView& structure,
    std::vector<InputDigit>* digits) const {
  const std::vector<const spec::Rule*>& rules =
      rules_[peer_index].input_options;
  for (size_t i = 0; i < rules.size(); ++i) {
    const spec::Rule* rule = rules[i];
    if (rule == nullptr) continue;  // only "no input" possible
    WSV_ASSIGN_OR_RETURN(
        data::Relation options,
        evaluator_.EvaluateQuery(rule->body, rule->head_vars, structure));
    if (options.empty()) continue;
    digits->push_back(InputDigit{peer_index, i, std::move(options)});
  }
  return Status::Ok();
}

void TransitionGenerator::ForEachInputChoice(std::vector<InputDigit>& digits,
                                             Snapshot* scratch,
                                             const SuccessorSink& sink) {
  while (true) {
    sink(*scratch);
    // Advance the odometer: the last digit moves fastest; a digit that runs
    // past its last option wraps to "no input" and carries.
    size_t i = digits.size();
    while (true) {
      if (i == 0) return;
      InputDigit& digit = digits[--i];
      data::Relation& input =
          scratch->peers[digit.peer].input.relation(digit.relation);
      input.Clear();
      if (++digit.position <= digit.options.size()) {
        input.Insert(digit.options.tuples()[digit.position - 1]);
        break;
      }
      digit.position = 0;
    }
  }
}

void TransitionGenerator::DeliverMessages(
    Snapshot base, const std::vector<OutgoingMessage>& messages,
    size_t message_index, std::vector<Snapshot>& out) const {
  if (message_index == messages.size()) {
    out.push_back(std::move(base));
    return;
  }
  const OutgoingMessage& msg = messages[message_index];
  base.sent[msg.channel] = true;

  // Drop branch (lossy channel) — also the only branch when the queue is
  // full (k-bounded semantics, Section 3.1).
  bool full = base.channels[msg.channel].size() >= options_.queue_bound;
  bool lossy = ChannelIsLossy(msg.kind);
  if (full || lossy) {
    Snapshot dropped = base;
    DeliverMessages(std::move(dropped), messages, message_index + 1, out);
  }
  if (!full) {
    Snapshot delivered = std::move(base);
    delivered.channels[msg.channel].push_back(msg.content);
    delivered.received[msg.channel] = true;
    DeliverMessages(std::move(delivered), messages, message_index + 1, out);
  }
}

Status TransitionGenerator::EvaluateMove(
    const Snapshot& snap, size_t peer_index, PeerConfig* cfg,
    std::vector<std::vector<OutgoingMessage>>* sends) const {
  const spec::Peer& peer = comp_->peers()[peer_index];
  const PeerRules& rules = rules_[peer_index];

  // Definition 2.4: the transition consumes the input *stored in the
  // current configuration* (Definition 2.3 requires it to be
  // options-consistent there); the successor's input is re-chosen against
  // the successor configuration.
  fo::SlotStructure structure =
      RuleStructure(snap, peer_index, /*include_input=*/true);

  // `cfg` is updated in place: every rule reads `structure`, which borrows
  // from `snap`, the *current* configuration (snapshot semantics).
  const PeerConfig& current = snap.peers[peer_index];

  // --- State updates. ---
  for (size_t s = 0; s < peer.declared_state_schema().size(); ++s) {
    const spec::Rule* ins = rules.state_insert[s];
    const spec::Rule* del = rules.state_delete[s];
    if (ins == nullptr && del == nullptr) continue;  // state unchanged
    const data::Relation& now = current.state.relation(s);
    data::Relation plus(now.arity());
    data::Relation minus(now.arity());
    if (ins != nullptr) {
      WSV_ASSIGN_OR_RETURN(
          plus,
          evaluator_.EvaluateQuery(ins->body, ins->head_vars, structure));
    }
    if (del != nullptr) {
      WSV_ASSIGN_OR_RETURN(
          minus,
          evaluator_.EvaluateQuery(del->body, del->head_vars, structure));
    }
    // (phi+ and not phi-) or (S and phi+ and phi-) or (S and not phi+ and
    // not phi-)  — conflicting insert+delete is a no-op (Definition 2.4).
    data::Relation result = plus.Difference(minus);
    result = result.Union(now.Intersection(plus.Intersection(minus)));
    result = result.Union(now.Difference(plus.Union(minus)));
    cfg->state.SetRelation(s, std::move(result));
  }

  // --- Actions. ---
  cfg->action.Clear();
  for (size_t a = 0; a < rules.action.size(); ++a) {
    const spec::Rule* rule = rules.action[a];
    if (rule == nullptr) continue;
    WSV_ASSIGN_OR_RETURN(
        data::Relation result,
        evaluator_.EvaluateQuery(rule->body, rule->head_vars, structure));
    cfg->action.SetRelation(a, std::move(result));
  }

  // --- Sends. ---
  std::vector<std::vector<OutgoingMessage>>& send_alternatives = *sends;
  send_alternatives.assign(1, {});  // start with "messages so far" = none
  cfg->send_errors.assign(peer.out_queues().size(), false);
  for (size_t q = 0; q < peer.out_queues().size(); ++q) {
    const spec::QueueDecl& decl = peer.out_queues()[q];
    const spec::Rule* rule = rules.send[q];
    if (rule == nullptr) continue;
    WSV_ASSIGN_OR_RETURN(
        data::Relation result,
        evaluator_.EvaluateQuery(rule->body, rule->head_vars, structure));
    size_t channel = wiring_[peer_index].out_channel[q];
    if (decl.kind == spec::QueueKind::kNested) {
      if (result.empty() && options_.skip_empty_nested_sends) continue;
      for (auto& alt : send_alternatives) {
        alt.push_back(OutgoingMessage{channel, decl.kind, result});
      }
    } else {
      if (result.empty()) continue;
      if (result.size() == 1) {
        data::Relation msg(decl.arity());
        msg.Insert(result.tuples()[0]);
        for (auto& alt : send_alternatives) {
          alt.push_back(OutgoingMessage{channel, decl.kind, std::move(msg)});
        }
      } else if (options_.deterministic_flat_sends) {
        // Theorem 3.8 semantics: runtime error, no message.
        cfg->send_errors[q] = true;
      } else {
        // Nondeterministically pick one tuple (Definition 2.4).
        std::vector<std::vector<OutgoingMessage>> expanded;
        for (const auto& alt : send_alternatives) {
          for (const data::Tuple& t : result) {
            data::Relation msg(decl.arity());
            msg.Insert(t);
            auto with = alt;
            with.push_back(OutgoingMessage{channel, decl.kind,
                                           std::move(msg)});
            expanded.push_back(std::move(with));
          }
        }
        send_alternatives = std::move(expanded);
      }
    }
  }

  // --- Previous-input window update (shift the lookback window with the
  // input this transition consumed). ---
  for (size_t i = 0; i < peer.input_schema().size(); ++i) {
    const std::string& iname = peer.input_schema().relation(i).name;
    if (current.input.relation(i).empty()) continue;  // window unchanged
    for (int k = peer.lookback(); k >= 2; --k) {
      cfg->prev.relation(spec::PrevInputName(iname, k)) =
          cfg->prev.relation(spec::PrevInputName(iname, k - 1));
    }
    cfg->prev.relation(spec::PrevInputName(iname, 1)) =
        current.input.relation(i);
  }
  return Status::Ok();
}

Status TransitionGenerator::ForEachPeerSuccessor(const Snapshot& snap,
                                                 size_t peer_index,
                                                 MoveMemo& memo,
                                                 const SuccessorSink& sink) const {
  WSV_RETURN_IF_ERROR(BindMemo(memo));
  const spec::Peer& peer = comp_->peers()[peer_index];
  const PeerWiring& wiring = wiring_[peer_index];

  Snapshot next = snap;
  next.mover = static_cast<int>(peer_index);
  next.received.assign(next.received.size(), false);
  next.sent.assign(next.sent.size(), false);
  PeerConfig& cfg = next.peers[peer_index];

  // --- The move (state, actions, sends, prev window), evaluated once per
  // distinct rule view of the mover. ---
  std::vector<std::vector<OutgoingMessage>> send_alternatives;
  EncodeViewKey(snap, peer_index, /*include_input=*/true, &memo.key_);
  size_t hash = HashFlatSnapshot(memo.key_.data(), memo.key_.size());
  MoveMemo::Table& moves = memo.moves_[peer_index];
  if (const uint32_t* value = memo.Find(moves, hash)) {
    ++memo.counts_.move_hits;
    value = ReadInstanceWords(value, &cfg.state);
    value = ReadInstanceWords(value, &cfg.action);
    value = ReadInstanceWords(value, &cfg.prev);
    value = ReadBitWords(value, &cfg.send_errors);
    send_alternatives.resize(*value++);
    for (std::vector<OutgoingMessage>& alt : send_alternatives) {
      alt.resize(*value++);
      for (OutgoingMessage& msg : alt) {
        msg.channel = *value++;
        msg.kind = static_cast<spec::QueueKind>(*value++);
        msg.content = data::Relation(*value++);
        value = ReadRelationWords(value, &msg.content);
      }
    }
  } else {
    ++memo.counts_.move_misses;
    WSV_RETURN_IF_ERROR(
        EvaluateMove(snap, peer_index, &cfg, &send_alternatives));
    std::vector<uint32_t>& out = memo.value_;
    out.clear();
    AppendInstanceWords(cfg.state, &out);
    AppendInstanceWords(cfg.action, &out);
    AppendInstanceWords(cfg.prev, &out);
    AppendBitWords(cfg.send_errors, &out);
    out.push_back(static_cast<uint32_t>(send_alternatives.size()));
    for (const std::vector<OutgoingMessage>& alt : send_alternatives) {
      out.push_back(static_cast<uint32_t>(alt.size()));
      for (const OutgoingMessage& msg : alt) {
        out.push_back(static_cast<uint32_t>(msg.channel));
        out.push_back(static_cast<uint32_t>(msg.kind));
        out.push_back(static_cast<uint32_t>(msg.content.arity()));
        AppendRelationWords(msg.content, &out);
      }
    }
    memo.Insert(moves, hash);
  }
  cfg.input.Clear();  // re-chosen per delivered successor below

  // --- Dequeue consumed in-queues. ---
  for (size_t q = 0; q < peer.in_queues().size(); ++q) {
    if (!wiring.consumes[q]) continue;
    auto& queue = next.channels[wiring.in_channel[q]];
    if (!queue.empty()) queue.erase(queue.begin());
  }

  // --- Deliver messages with lossy/bounded branching (the last send
  // alternative takes `next` itself). ---
  std::vector<Snapshot> delivered;
  for (size_t a = 0; a + 1 < send_alternatives.size(); ++a) {
    DeliverMessages(next, send_alternatives[a], 0, delivered);
  }
  DeliverMessages(std::move(next), send_alternatives.back(), 0, delivered);

  // --- Choose the successor configuration's input (Definition 2.3), in
  // place: each delivered snapshot is the scratch its input choices are
  // written into. The options are evaluated once per distinct rule view of
  // the successor (without inputs). ---
  const StructureLayout& succ_layout =
      RuleLayout(peer_index, /*include_input=*/false);
  fo::SlotStructure succ_structure(&succ_layout.names(), &domain_);
  MoveMemo::Table& inputs = memo.inputs_[peer_index];
  std::vector<InputDigit> digits;
  for (Snapshot& d : delivered) {
    digits.clear();
    EncodeViewKey(d, peer_index, /*include_input=*/false, &memo.key_);
    hash = HashFlatSnapshot(memo.key_.data(), memo.key_.size());
    if (const uint32_t* value = memo.Find(inputs, hash)) {
      ++memo.counts_.input_hits;
      const data::Schema& schema = peer.input_schema();
      for (uint32_t n = *value++; n > 0; --n) {
        const size_t relation = *value++;
        digits.push_back(InputDigit{
            peer_index, relation,
            data::Relation(schema.relation(relation).arity())});
        value = ReadRelationWords(value, &digits.back().options);
      }
    } else {
      ++memo.counts_.input_misses;
      succ_layout.Bind(databases_, d, &succ_structure);
      WSV_RETURN_IF_ERROR(
          AddInputDigits(peer_index, succ_structure, &digits));
      std::vector<uint32_t>& out = memo.value_;
      out.clear();
      out.push_back(static_cast<uint32_t>(digits.size()));
      for (const InputDigit& digit : digits) {
        out.push_back(static_cast<uint32_t>(digit.relation));
        AppendRelationWords(digit.options, &out);
      }
      memo.Insert(inputs, hash);
    }
    ForEachInputChoice(digits, &d, sink);
  }
  return Status::Ok();
}

Result<std::vector<Snapshot>> TransitionGenerator::SuccessorsForPeer(
    const Snapshot& snap, size_t peer_index) const {
  MoveMemo memo;
  std::vector<Snapshot> successors;
  WSV_RETURN_IF_ERROR(ForEachPeerSuccessor(
      snap, peer_index, memo, [&](Snapshot& s) { successors.push_back(s); }));
  return successors;
}

Result<std::vector<Snapshot>> TransitionGenerator::InitialSnapshots() const {
  // States, previous inputs, actions and queues empty; each peer's input is
  // any options-consistent choice at the empty configuration, earlier peers
  // being the more significant digits.
  Snapshot scratch = MakeInitialSnapshot(*comp_);
  std::vector<InputDigit> digits;
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    fo::SlotStructure structure =
        RuleStructure(scratch, p, /*include_input=*/false);
    WSV_RETURN_IF_ERROR(AddInputDigits(p, structure, &digits));
  }
  std::vector<Snapshot> initials;
  ForEachInputChoice(digits, &scratch,
                     [&](Snapshot& s) { initials.push_back(s); });
  return initials;
}

std::vector<data::Relation> TransitionGenerator::EnvCandidates(
    size_t channel_index) const {
  const spec::Channel& channel = comp_->channels()[channel_index];
  // The configured finite domain for this channel (Section 5's finite-domain
  // assumption), or every tuple over the evaluation domain.
  std::vector<data::Relation> candidates;
  auto configured = options_.env_message_candidates.find(channel.name);
  if (configured != options_.env_message_candidates.end()) {
    for (const std::vector<std::string>& spelling_row : configured->second) {
      if (spelling_row.size() != channel.arity()) continue;
      std::vector<data::Value> row;
      bool ok = true;
      for (const std::string& spelling : spelling_row) {
        SymbolId v = interner_->Lookup(spelling);
        if (v == kInvalidSymbol) {
          ok = false;  // spelling outside the task's domain: skip
          break;
        }
        row.push_back(v);
      }
      if (!ok) continue;
      data::Relation msg(channel.arity());
      msg.Insert(data::Tuple(std::move(row)));
      candidates.push_back(std::move(msg));
    }
    return candidates;
  }
  if (channel.kind == spec::QueueKind::kFlat ||
      options_.env_nested_max_tuples <= 1) {
    // All single tuples over domain^arity.
    std::vector<size_t> idx(channel.arity(), 0);
    if (!domain_.empty() || channel.arity() == 0) {
      while (true) {
        std::vector<data::Value> row(channel.arity());
        for (size_t i = 0; i < channel.arity(); ++i) {
          row[i] = domain_.values()[idx[i]];
        }
        data::Relation msg(channel.arity());
        msg.Insert(data::Tuple(std::move(row)));
        candidates.push_back(std::move(msg));
        size_t i = 0;
        while (i < idx.size()) {
          if (++idx[i] < domain_.size()) break;
          idx[i] = 0;
          ++i;
        }
        if (i == idx.size()) break;
      }
    }
  }
  return candidates;
}

Result<std::vector<Snapshot>> TransitionGenerator::EnvSuccessors(
    const Snapshot& snap) const {
  std::vector<Snapshot> successors;
  if (!options_.allow_env_moves) return successors;

  // Channels the environment consumes from (peer -> environment) and feeds
  // (environment -> peer).
  std::vector<size_t> env_consume;
  std::vector<size_t> env_feed;
  for (size_t c = 0; c < comp_->channels().size(); ++c) {
    if (comp_->channels()[c].ToEnvironment()) env_consume.push_back(c);
    if (comp_->channels()[c].FromEnvironment()) env_feed.push_back(c);
  }

  Snapshot stutter = snap;
  stutter.mover = kEnvMover;
  stutter.received.assign(stutter.received.size(), false);
  stutter.sent.assign(stutter.sent.size(), false);

  if (options_.env_single_action) {
    // One action per environment move: stutter, consume one head, or feed
    // one message (delivered or dropped) into one queue.
    std::vector<Snapshot> successors{stutter};
    for (size_t c : env_consume) {
      if (snap.channels[c].empty()) continue;
      Snapshot consumed = stutter;
      consumed.channels[c].erase(consumed.channels[c].begin());
      successors.push_back(std::move(consumed));
    }
    for (size_t c : env_feed) {
      const spec::Channel& channel = comp_->channels()[c];
      bool full = stutter.channels[c].size() >= options_.queue_bound;
      bool lossy = ChannelIsLossy(channel.kind);
      for (const data::Relation& msg : EnvCandidates(c)) {
        if (lossy || full) {
          Snapshot dropped = stutter;
          dropped.sent[c] = true;
          successors.push_back(std::move(dropped));
        }
        if (!full) {
          Snapshot fed = stutter;
          fed.sent[c] = true;
          fed.channels[c].push_back(msg);
          fed.received[c] = true;
          successors.push_back(std::move(fed));
        }
      }
    }
    return successors;
  }

  // Definition-faithful multi-queue environment transition: consume any
  // subset of front messages, then feed any combination of messages.
  std::vector<Snapshot> bases;
  {
    size_t combos = static_cast<size_t>(1) << env_consume.size();
    for (size_t mask = 0; mask < combos; ++mask) {
      Snapshot base = stutter;
      for (size_t i = 0; i < env_consume.size(); ++i) {
        if (((mask >> i) & 1) == 0) continue;
        auto& queue = base.channels[env_consume[i]];
        if (!queue.empty()) queue.erase(queue.begin());
      }
      bases.push_back(std::move(base));
    }
  }

  // For each feed channel: nothing, or one message over the candidate set.
  for (size_t c : env_feed) {
    const spec::Channel& channel = comp_->channels()[c];
    std::vector<data::Relation> candidates = EnvCandidates(c);
    std::vector<Snapshot> expanded;
    for (const Snapshot& base : bases) {
      expanded.push_back(base);  // feed nothing
      bool full = base.channels[c].size() >= options_.queue_bound;
      bool lossy = ChannelIsLossy(channel.kind);
      for (const data::Relation& msg : candidates) {
        // "sent but dropped" branch.
        if (lossy || full) {
          Snapshot dropped = base;
          dropped.sent[c] = true;
          expanded.push_back(std::move(dropped));
        }
        if (!full) {
          Snapshot fed = base;
          fed.sent[c] = true;
          fed.channels[c].push_back(msg);
          fed.received[c] = true;
          expanded.push_back(std::move(fed));
        }
      }
    }
    bases = std::move(expanded);
  }
  return bases;
}

Status TransitionGenerator::ForEachSuccessor(
    const Snapshot& snap, MoveMemo& memo, const SuccessorSink& sink) const {
  for (size_t p = 0; p < comp_->peers().size(); ++p) {
    WSV_RETURN_IF_ERROR(ForEachPeerSuccessor(snap, p, memo, sink));
  }
  if (options_.allow_env_moves) {
    WSV_ASSIGN_OR_RETURN(std::vector<Snapshot> succ, EnvSuccessors(snap));
    for (Snapshot& s : succ) sink(s);
  }
  return Status::Ok();
}

Result<std::vector<Snapshot>> TransitionGenerator::Successors(
    const Snapshot& snap) const {
  MoveMemo memo;
  std::vector<Snapshot> all;
  WSV_RETURN_IF_ERROR(
      ForEachSuccessor(snap, memo, [&](Snapshot& s) { all.push_back(s); }));
  return all;
}

}  // namespace wsv::runtime
