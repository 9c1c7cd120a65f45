// Parity of the borrowed slot structures (runtime::StructureLayout +
// fo::SlotStructure) with the copying name -> relation map they replace.
// The map builders below are the reference semantics: every relation is
// copied into a MapStructure under its name, and a repeated name keeps the
// later binding. On reachable snapshots of every checked-in composition,
// each name must resolve to an equal relation in both, and no name may
// resolve in one but not the other.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "map_structure.h"
#include "runtime/snapshot.h"
#include "runtime/snapshot_view.h"
#include "runtime/transition.h"
#include "spec/parser.h"

#ifndef WSV_SPECS_DIR
#error "WSV_SPECS_DIR must point at the checked-in specs directory"
#endif

namespace wsv::runtime {
namespace {

data::Relation Prop(bool value) {
  data::Relation r(0);
  if (value) r.Insert(data::Tuple{});
  return r;
}

void AddInstance(fo::MapStructure& structure, const std::string& prefix,
                 const data::Instance& inst) {
  for (size_t i = 0; i < inst.schema()->size(); ++i) {
    structure.Set(prefix + inst.schema()->relation(i).name, inst.relation(i));
  }
}

size_t ChannelIndex(const spec::Composition& comp, const std::string& name) {
  for (size_t c = 0; c < comp.channels().size(); ++c) {
    if (comp.channels()[c].name == name) return c;
  }
  ADD_FAILURE() << "no channel " << name;
  return 0;
}

/// The structure a peer's rules see, built by copying.
fo::MapStructure MapRuleStructure(const TransitionGenerator& gen,
                                  const Snapshot& snap, size_t p,
                                  bool include_input) {
  const spec::Composition& comp = gen.composition();
  const spec::Peer& peer = comp.peers()[p];
  const PeerConfig& cfg = snap.peers[p];
  fo::MapStructure structure;
  structure.SetDomain(gen.domain());
  AddInstance(structure, "", gen.databases()[p]);
  AddInstance(structure, "", cfg.state);
  AddInstance(structure, "", cfg.prev);
  if (include_input) AddInstance(structure, "", cfg.input);
  for (const spec::QueueDecl& decl : peer.in_queues()) {
    const auto& queue = snap.channels[ChannelIndex(comp, decl.name)];
    structure.Set(decl.name, queue.empty() ? data::Relation(decl.arity())
                                           : queue.front());
    structure.Set(spec::QueueEmptyStateName(decl.name), Prop(queue.empty()));
  }
  for (size_t q = 0; q < peer.out_queues().size(); ++q) {
    if (peer.out_queues()[q].kind != spec::QueueKind::kFlat) continue;
    structure.Set("error_" + peer.out_queues()[q].name,
                  Prop(q < cfg.send_errors.size() && cfg.send_errors[q]));
  }
  return structure;
}

/// The property structure of a snapshot, built by copying.
fo::MapStructure MapPropertyStructure(const TransitionGenerator& gen,
                                      const Snapshot& snap) {
  const spec::Composition& comp = gen.composition();
  fo::MapStructure structure;
  structure.SetDomain(gen.domain());
  bool single_peer = comp.peers().size() == 1;
  for (size_t p = 0; p < comp.peers().size(); ++p) {
    const spec::Peer& peer = comp.peers()[p];
    const PeerConfig& cfg = snap.peers[p];
    const std::string prefix = peer.name() + ".";
    for (const std::string& pfx :
         single_peer ? std::vector<std::string>{prefix, ""}
                     : std::vector<std::string>{prefix}) {
      AddInstance(structure, pfx, gen.databases()[p]);
      AddInstance(structure, pfx, cfg.state);
      AddInstance(structure, pfx, cfg.input);
      AddInstance(structure, pfx, cfg.prev);
      AddInstance(structure, pfx, cfg.action);
    }
    structure.Set(spec::Composition::MovePropName(peer.name()),
                  Prop(snap.mover == static_cast<int>(p)));
    for (size_t q = 0; q < peer.out_queues().size(); ++q) {
      structure.Set(prefix + "error_" + peer.out_queues()[q].name,
                    Prop(q < cfg.send_errors.size() && cfg.send_errors[q]));
    }
  }
  structure.Set(spec::Composition::EnvMovePropName(),
                Prop(snap.mover == kEnvMover));
  for (size_t c = 0; c < comp.channels().size(); ++c) {
    const spec::Channel& channel = comp.channels()[c];
    const auto& queue = snap.channels[c];
    data::Relation first =
        queue.empty() ? data::Relation(channel.arity()) : queue.front();
    data::Relation last =
        queue.empty() ? data::Relation(channel.arity()) : queue.back();
    if (channel.receiver != spec::Channel::kEnvironment) {
      const std::string& rname = comp.peers()[channel.receiver].name();
      structure.Set(rname + "." + channel.name, first);
      structure.Set(rname + "." + spec::QueueEmptyStateName(channel.name),
                    Prop(queue.empty()));
    } else {
      structure.Set("env." + channel.name, first);
    }
    if (channel.sender != spec::Channel::kEnvironment) {
      structure.Set(comp.peers()[channel.sender].name() + "." + channel.name,
                    last);
    } else {
      structure.Set("env." + channel.name, last);
    }
    structure.Set(spec::Composition::ReceivedPropName(channel.name),
                  Prop(snap.received[c]));
    structure.Set("sent_" + channel.name, Prop(snap.sent[c]));
  }
  return structure;
}

/// Every name resolves to an equal relation in both structures, and no name
/// resolves in only one of them.
void ExpectSameStructure(const fo::MapStructure& oracle,
                         const fo::SlotStructure& slots,
                         const std::string& where) {
  for (const auto& [name, relation] : oracle.relations()) {
    const data::Relation* found = slots.Find(name);
    ASSERT_NE(found, nullptr) << where << ": " << name << " not bound";
    EXPECT_EQ(*found, relation) << where << ": " << name;
  }
  for (size_t slot = 0; slot < slots.names().size(); ++slot) {
    EXPECT_NE(oracle.Find(slots.names().name(slot)), nullptr)
        << where << ": extra name " << slots.names().name(slot);
  }
  EXPECT_EQ(slots.EvaluationDomain(), oracle.EvaluationDomain()) << where;
}

/// A composition with a small database and environment, plus the
/// generator over it.
struct Fixture {
  explicit Fixture(spec::Composition parsed)
      : comp(std::move(parsed)), interner(comp.BuildInterner()) {
    for (const char* extra : {"v1", "v2"}) interner.Intern(extra);
    for (SymbolId id = 0; id < interner.size(); ++id) domain.Add(id);
    // Two tuples per database relation: all-first-value and a mixed one.
    for (const spec::Peer& peer : comp.peers()) {
      data::Instance db(&peer.database_schema());
      for (size_t r = 0; r < db.size(); ++r) {
        size_t arity = db.relation(r).arity();
        std::vector<data::Value> same(arity, domain.values()[0]);
        std::vector<data::Value> mixed(arity);
        for (size_t i = 0; i < arity; ++i) {
          mixed[i] = domain.values()[(i + 1) % domain.size()];
        }
        db.relation(r).Insert(data::Tuple(same));
        db.relation(r).Insert(data::Tuple(mixed));
      }
      dbs.push_back(std::move(db));
    }
    RunOptions options;
    options.allow_env_moves = !comp.IsClosed();
    // Two messages per queue, so f(q) and l(q) can differ.
    options.queue_bound = 2;
    // A small environment: two candidate messages per fed channel.
    for (const spec::Channel& channel : comp.channels()) {
      if (!channel.FromEnvironment()) continue;
      for (const char* value : {"v1", "v2"}) {
        options.env_message_candidates[channel.name].push_back(
            std::vector<std::string>(channel.arity(), value));
      }
    }
    generator = std::make_unique<TransitionGenerator>(&comp, dbs, domain,
                                                      &interner, options);
  }

  /// Up to `limit` distinct reachable snapshots, breadth-first.
  std::vector<Snapshot> Reachable(size_t limit) {
    auto initials = generator->InitialSnapshots();
    EXPECT_TRUE(initials.ok()) << initials.status();
    std::unordered_set<Snapshot, SnapshotHash> seen;
    std::vector<Snapshot> order;
    for (Snapshot& s : *initials) {
      if (seen.insert(s).second) order.push_back(s);
    }
    for (size_t i = 0; i < order.size() && order.size() < limit; ++i) {
      auto succ = generator->Successors(order[i]);
      EXPECT_TRUE(succ.ok()) << succ.status();
      for (Snapshot& s : *succ) {
        if (order.size() >= limit) break;
        if (seen.insert(s).second) order.push_back(s);
      }
    }
    return order;
  }

  /// Compares every rule and property structure on `snapshots`; returns
  /// the longest queue seen (coverage: f(q) and l(q) differ only at 2).
  size_t CheckAll(const std::vector<Snapshot>& snapshots,
                  const std::string& label) {
    StructureLayout property = PropertyStructureLayout(comp);
    fo::SlotStructure property_slots(&property.names(), &generator->domain());
    size_t longest = 0;
    for (size_t i = 0; i < snapshots.size(); ++i) {
      const Snapshot& snap = snapshots[i];
      const std::string where = label + " snapshot " + std::to_string(i);
      for (const auto& queue : snap.channels) {
        longest = std::max(longest, queue.size());
      }
      property.Bind(dbs, snap, &property_slots);
      ExpectSameStructure(MapPropertyStructure(*generator, snap),
                          property_slots, where + " property");
      for (size_t p = 0; p < comp.peers().size(); ++p) {
        for (bool include_input : {false, true}) {
          fo::SlotStructure rule =
              generator->RuleStructure(snap, p, include_input);
          fo::MapStructure oracle =
              MapRuleStructure(*generator, snap, p, include_input);
          ExpectSameStructure(oracle, rule,
                              where + " rules of " + comp.peers()[p].name() +
                                  (include_input ? " with" : " without") +
                                  " input");
          if (include_input) continue;
          // Input names are not bound without inputs (unless another
          // relation of the peer carries the same name).
          const data::Schema& inputs = comp.peers()[p].input_schema();
          for (size_t r = 0; r < inputs.size(); ++r) {
            const std::string& name = inputs.relation(r).name;
            EXPECT_EQ(rule.Find(name) == nullptr, oracle.Find(name) == nullptr)
                << where << ": " << name;
          }
        }
      }
    }
    return longest;
  }

  spec::Composition comp;
  Interner interner;
  data::Domain domain;
  std::vector<data::Instance> dbs;
  std::unique_ptr<TransitionGenerator> generator;
};

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(StructureParity, ReachableSnapshotsOfEverySpec) {
  size_t specs = 0;
  size_t longest = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(WSV_SPECS_DIR)) {
    if (entry.path().extension() != ".wsv") continue;
    auto comp = spec::ParseComposition(ReadFile(entry.path()));
    ASSERT_TRUE(comp.ok()) << entry.path() << ": " << comp.status();
    Fixture fixture(std::move(*comp));
    std::vector<Snapshot> snapshots = fixture.Reachable(300);
    ASSERT_FALSE(snapshots.empty()) << entry.path();
    size_t spec_longest =
        fixture.CheckAll(snapshots, entry.path().filename().string());
    // Queue views are only meaningful with messages in flight.
    if (!fixture.comp.channels().empty()) {
      EXPECT_GT(spec_longest, 0u) << entry.path();
    }
    longest = std::max(longest, spec_longest);
    ++specs;
  }
  EXPECT_GE(specs, 7u);
  EXPECT_EQ(longest, 2u);
}

TEST(StructureParity, SinglePeerExposesUnqualifiedNames) {
  auto comp = spec::ParseComposition(ReadFile(
      std::filesystem::path(WSV_SPECS_DIR) / "shop.wsv"));
  ASSERT_TRUE(comp.ok()) << comp.status();
  Fixture fixture(std::move(*comp));
  std::vector<Snapshot> snapshots = fixture.Reachable(40);
  fixture.CheckAll(snapshots, "shop");
  StructureLayout layout = PropertyStructureLayout(fixture.comp);
  fo::SlotStructure slots(&layout.names(), &fixture.domain);
  layout.Bind(fixture.dbs, snapshots.back(), &slots);
  for (const char* name : {"product", "Shop.product", "cart", "Shop.cart",
                           "view", "prev_view", "ship", "move_Shop"}) {
    EXPECT_NE(slots.Find(name), nullptr) << name;
  }
  EXPECT_EQ(*slots.Find("product"), *slots.Find("Shop.product"));
}

// A name bound twice keeps the later binding. A channel whose sender is its
// own receiver would bind "P.q" first to f(q) and then to l(q), but
// Composition::Validate rejects such a channel; the same double binding
// arises through valid specs when a relation shares a name with a derived
// one, as here: the state relations error_q and sent_q collide with the
// send-error flag of out-queue q (in rule and property structures) and
// with the sent_q run proposition (unqualified, single peer).
constexpr char kCollidingNames[] = R"(
peer P {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); error_q(); sent_q(); }
  inqueue flat  { r(x); }
  outqueue flat { q(x); }
  rules {
    options ask(x) :- item(x);
    send q(x) :- ask(x);
    insert got(x) :- ?r(x);
    insert error_q() :- exists x: ask(x);
    insert sent_q() :- exists x: got(x);
  }
}
composition Collide { peers P; }
)";

TEST(StructureParity, LaterBindingWinsAndEnvironmentQueues) {
  auto comp = spec::ParseComposition(kCollidingNames);
  ASSERT_TRUE(comp.ok()) << comp.status();
  Fixture fixture(std::move(*comp));
  std::vector<Snapshot> snapshots = fixture.Reachable(120);
  EXPECT_EQ(fixture.CheckAll(snapshots, "collide"), 2u);

  // The state relation error_q() is shadowed by the (false) send-error flag
  // once it holds: find a snapshot where the two differ.
  StructureLayout layout = PropertyStructureLayout(fixture.comp);
  fo::SlotStructure slots(&layout.names(), &fixture.domain);
  bool shadowed = false;
  for (const Snapshot& snap : snapshots) {
    if (snap.peers[0].state.relation("error_q").empty()) continue;
    layout.Bind(fixture.dbs, snap, &slots);
    EXPECT_TRUE(slots.Find("P.error_q")->empty());
    fo::SlotStructure rule = fixture.generator->RuleStructure(snap, 0, true);
    EXPECT_TRUE(rule.Find("error_q")->empty());
    shadowed = true;
  }
  EXPECT_TRUE(shadowed);
  // Environment-facing queues: r is fed by, q consumed by, the environment.
  for (const char* name : {"env.q", "env.r", "P.q", "P.r", "P.empty_r"}) {
    EXPECT_NE(slots.Find(name), nullptr) << name;
  }
}

TEST(StructureParity, RepeatedSlotNameKeepsTheLaterSource) {
  auto comp = spec::ParseComposition(kCollidingNames);
  ASSERT_TRUE(comp.ok()) << comp.status();
  Fixture fixture(std::move(*comp));
  // Bind "P.q" to the first, then to the last message of the same queue:
  // the sender/receiver double binding, on the layout directly.
  StructureLayout layout(&fixture.comp);
  const uint32_t q = static_cast<uint32_t>(ChannelIndex(fixture.comp, "q"));
  layout.Add("P.q", StructureLayout::Source::kQueueFirst, 0, q);
  layout.Add("P.q", StructureLayout::Source::kQueueLast, 0, q);
  ASSERT_EQ(layout.names().size(), 1u);
  Snapshot snap = MakeInitialSnapshot(fixture.comp);
  data::Relation first(1), last(1);
  first.Insert({fixture.interner.Lookup("v1")});
  last.Insert({fixture.interner.Lookup("v2")});
  snap.channels[q] = {first, last};
  fo::SlotStructure slots(&layout.names(), &fixture.domain);
  layout.Bind(fixture.dbs, snap, &slots);
  EXPECT_EQ(*slots.Find("P.q"), last);
}

}  // namespace
}  // namespace wsv::runtime
