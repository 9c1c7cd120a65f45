// The peer-local move memo (runtime::MoveMemo) replays a peer's move and
// its successor's input options from the first evaluation on the same rule
// view. These tests pin that replay to fresh evaluation on every checked-in
// composition and channel semantics, check which snapshot differences share
// an entry and which must not, and check that evaluation errors are
// returned and never stored.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "runtime/snapshot.h"
#include "runtime/transition.h"
#include "spec/parser.h"

#ifndef WSV_SPECS_DIR
#error "WSV_SPECS_DIR must point at the checked-in specs directory"
#endif

namespace wsv::runtime {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A composition with a small database (two tuples per relation) and
/// environment (two candidate messages per fed channel), plus a generator
/// over it. The domain is v1, v2 and, unless `spec_constants` is false, the
/// spec's own constants.
struct Fixture {
  Fixture(spec::Composition parsed, RunOptions options,
          bool spec_constants = true)
      : comp(std::move(parsed)) {
    if (spec_constants) interner = comp.BuildInterner();
    for (const char* extra : {"v1", "v2"}) interner.Intern(extra);
    for (SymbolId id = 0; id < interner.size(); ++id) domain.Add(id);
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
    options.allow_env_moves = !comp.IsClosed();
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

  data::Value Sym(const char* spelling) const {
    return interner.Lookup(spelling);
  }

  spec::Composition comp;
  Interner interner;
  data::Domain domain;
  std::vector<data::Instance> dbs;
  std::unique_ptr<TransitionGenerator> generator;
};

/// ForEachSuccessor through `memo`, collected.
std::vector<Snapshot> Through(const TransitionGenerator& gen, MoveMemo& memo,
                              const Snapshot& snap) {
  std::vector<Snapshot> out;
  Status status =
      gen.ForEachSuccessor(snap, memo, [&](Snapshot& s) { out.push_back(s); });
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

/// Successors through `memo` must equal those of a fresh memo, element for
/// element and in order.
void ExpectSameAsFresh(const TransitionGenerator& gen, MoveMemo& memo,
                       const Snapshot& snap, const std::string& where) {
  std::vector<Snapshot> warm = Through(gen, memo, snap);
  auto fresh = gen.Successors(snap);
  ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status();
  ASSERT_EQ(warm.size(), fresh->size()) << where;
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], (*fresh)[i]) << where << ", successor " << i;
  }
}

TEST(MoveMemo, WarmMemoReplaysFreshSuccessorsOnEverySpec) {
  struct Semantics {
    const char* name;
    RunOptions options;
  };
  std::vector<Semantics> semantics(4);
  semantics[0].name = "default";
  semantics[1].name = "perfect";
  semantics[1].options.lossy = false;
  semantics[2].name = "deterministic_flat_sends";
  semantics[2].options.deterministic_flat_sends = true;
  semantics[3].name = "empty_nested_sends";
  semantics[3].options.skip_empty_nested_sends = false;
  for (Semantics& s : semantics) s.options.queue_bound = 2;

  size_t specs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(WSV_SPECS_DIR)) {
    if (entry.path().extension() != ".wsv") continue;
    ++specs;
    const std::string text = ReadFile(entry.path());
    for (const Semantics& s : semantics) {
      auto comp = spec::ParseComposition(text);
      ASSERT_TRUE(comp.ok()) << entry.path() << ": " << comp.status();
      Fixture fixture(std::move(*comp), s.options);
      const TransitionGenerator& gen = *fixture.generator;
      const std::string label =
          entry.path().filename().string() + " (" + s.name + ")";

      // Breadth-first to a cap, every expansion through one warm memo.
      auto initials = gen.InitialSnapshots();
      ASSERT_TRUE(initials.ok()) << label << ": " << initials.status();
      std::unordered_set<Snapshot, SnapshotHash> seen;
      std::vector<Snapshot> order;
      for (Snapshot& snap : *initials) {
        if (seen.insert(snap).second) order.push_back(snap);
      }
      MoveMemo memo;
      const size_t cap = 120;
      for (size_t i = 0; i < order.size(); ++i) {
        const std::string where = label + " snapshot " + std::to_string(i);
        ExpectSameAsFresh(gen, memo, order[i], where);
        if (HasFatalFailure()) return;
        for (Snapshot& next : Through(gen, memo, order[i])) {
          if (order.size() >= cap) break;
          if (seen.insert(next).second) order.push_back(next);
        }
      }
      MoveMemo::Counts counts = memo.TakeCounts();
      EXPECT_GT(counts.move_hits, 0u) << label;
      EXPECT_GT(counts.move_misses, 0u) << label;
      EXPECT_GT(counts.bytes, 0u) << label;
    }
  }
  EXPECT_GE(specs, 7u);
}

// Pinger's rule view is its state, input, prev window, send errors and the
// head of `pong`; its actions, Ponger's configuration and messages behind
// the head are outside it.
constexpr char kPingPong[] = R"(
peer Pinger {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); }
  action   { show(x); }
  inqueue flat  { pong(x); }
  outqueue flat { ping(x); }
  rules {
    options ask(x) :- item(x);
    send ping(x) :- ask(x);
    insert got(x) :- ?pong(x);
    action show(x) :- ask(x);
  }
}
peer Ponger {
  state    { heard(x); }
  inqueue flat  { ping(x); }
  outqueue flat { pong(x); }
  rules {
    send pong(x) :- ?ping(x);
    insert heard(x) :- ?ping(x);
  }
}
composition PingPong { peers Pinger, Ponger; }
)";

size_t Channel(const spec::Composition& comp, const std::string& name) {
  for (size_t c = 0; c < comp.channels().size(); ++c) {
    if (comp.channels()[c].name == name) return c;
  }
  ADD_FAILURE() << "no channel " << name;
  return 0;
}

data::Relation Message(data::Value v) {
  data::Relation msg(1);
  msg.Insert(data::Tuple{v});
  return msg;
}

TEST(MoveMemo, ViewsOutsideTheRuleStructureShareOneEntry) {
  RunOptions options;
  options.queue_bound = 2;
  auto comp = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(comp.ok()) << comp.status();
  Fixture fixture(std::move(*comp), options);
  const TransitionGenerator& gen = *fixture.generator;
  const data::Value v1 = fixture.Sym("v1");
  const data::Value v2 = fixture.Sym("v2");
  const size_t pong = Channel(fixture.comp, "pong");

  Snapshot base = MakeInitialSnapshot(fixture.comp);
  base.peers[0].input.relation("ask").Insert(data::Tuple{v1});
  base.channels[pong] = {Message(v1), Message(v1)};

  Snapshot actions = base;  // Pinger's actions differ
  actions.peers[0].action.relation("show").Insert(data::Tuple{v2});
  Snapshot behind_head = base;  // the message behind pong's head differs
  behind_head.channels[pong][1] = Message(v2);
  Snapshot other_peer = base;  // Ponger's state differs
  other_peer.peers[1].state.relation("heard").Insert(data::Tuple{v2});

  MoveMemo memo;
  ExpectSameAsFresh(gen, memo, base, "base");
  MoveMemo::Counts counts = memo.TakeCounts();
  EXPECT_EQ(counts.move_misses, 2u);  // one per peer
  EXPECT_EQ(counts.move_hits, 0u);

  // Neither peer's view changes: both moves replay.
  for (const Snapshot* snap : {&actions, &behind_head}) {
    ExpectSameAsFresh(gen, memo, *snap, "same views");
    counts = memo.TakeCounts();
    EXPECT_EQ(counts.move_misses, 0u);
    EXPECT_EQ(counts.move_hits, 2u);
  }

  // Only Ponger's view changes: Pinger's move still replays.
  ExpectSameAsFresh(gen, memo, other_peer, "other peer");
  counts = memo.TakeCounts();
  EXPECT_EQ(counts.move_misses, 1u);
  EXPECT_EQ(counts.move_hits, 1u);
}

// The flagged() and got(x) updates read the send-error flag and the head
// of r, so views that differ only there must not share a move; the options
// of ask read the head of r too.
constexpr char kErrorAndHead[] = R"(
peer P {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); flagged(); }
  inqueue flat  { r(x); }
  outqueue flat { q(x); }
  rules {
    options ask(x) :- item(x) and not ?r(x);
    send q(x) :- item(x);
    insert got(x) :- ?r(x);
    insert flagged() :- error_q();
  }
}
composition ErrorAndHead { peers P; }
)";

TEST(MoveMemo, SendErrorsAndQueueHeadsAreInTheKey) {
  RunOptions options;
  options.queue_bound = 2;
  options.deterministic_flat_sends = true;
  auto comp = spec::ParseComposition(kErrorAndHead);
  ASSERT_TRUE(comp.ok()) << comp.status();
  Fixture fixture(std::move(*comp), options);
  const TransitionGenerator& gen = *fixture.generator;
  const data::Value v1 = fixture.Sym("v1");
  const data::Value v2 = fixture.Sym("v2");
  const size_t r = Channel(fixture.comp, "r");

  Snapshot base = MakeInitialSnapshot(fixture.comp);
  Snapshot error = base;
  error.peers[0].send_errors[0] = true;
  Snapshot head1 = base;
  head1.channels[r] = {Message(v1)};
  Snapshot head2 = base;
  head2.channels[r] = {Message(v2)};
  Snapshot head2_then1 = base;  // same head as head2
  head2_then1.channels[r] = {Message(v2), Message(v1)};

  MoveMemo memo;
  ExpectSameAsFresh(gen, memo, base, "base");
  ExpectSameAsFresh(gen, memo, error, "send error");
  ExpectSameAsFresh(gen, memo, head1, "head v1");
  ExpectSameAsFresh(gen, memo, head2, "head v2");
  MoveMemo::Counts counts = memo.TakeCounts();
  EXPECT_EQ(counts.move_misses, 4u);
  EXPECT_EQ(counts.move_hits, 0u);

  ExpectSameAsFresh(gen, memo, head2_then1, "head v2, then v1");
  counts = memo.TakeCounts();
  EXPECT_EQ(counts.move_misses, 0u);
  EXPECT_EQ(counts.move_hits, 1u);

  // The error flag reaches the successor state, and the head reaches both
  // the state and the options chosen after the move.
  std::vector<Snapshot> flagged = Through(gen, memo, error);
  ASSERT_FALSE(flagged.empty());
  EXPECT_FALSE(flagged[0].peers[0].state.relation("flagged").empty());
  std::vector<Snapshot> plain = Through(gen, memo, base);
  ASSERT_FALSE(plain.empty());
  EXPECT_TRUE(plain[0].peers[0].state.relation("flagged").empty());
}

// Rules whose constant "zz" the generator's interner does not know: their
// evaluation fails (Evaluator::ResolveConstant).
constexpr char kBadMoveConstant[] = R"(
peer P {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); }
  rules {
    options ask(x) :- item(x);
    insert got(x) :- x = "zz";
  }
}
composition BadMove { peers P; }
)";

constexpr char kBadOptionsConstant[] = R"(
peer P {
  database { item(x); }
  input    { ask(x); }
  state    { got(x); }
  rules {
    options ask(x) :- item(x) and not x = "zz";
    insert got(x) :- ask(x);
  }
}
composition BadOptions { peers P; }
)";

TEST(MoveMemo, EvaluationErrorsAreReturnedAndNotStored) {
  for (const char* text : {kBadMoveConstant, kBadOptionsConstant}) {
    const bool bad_move = text == kBadMoveConstant;
    SCOPED_TRACE(bad_move ? "move rule" : "options rule");
    auto comp = spec::ParseComposition(text);
    ASSERT_TRUE(comp.ok()) << comp.status();
    Fixture fixture(std::move(*comp), RunOptions{}, /*spec_constants=*/false);
    ASSERT_EQ(fixture.interner.Lookup("zz"), kInvalidSymbol);
    const Snapshot start = MakeInitialSnapshot(fixture.comp);

    MoveMemo memo;
    for (int attempt = 0; attempt < 2; ++attempt) {
      Status status = fixture.generator->ForEachSuccessor(
          start, memo, [](Snapshot&) {});
      EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
      MoveMemo::Counts counts = memo.TakeCounts();
      if (bad_move) {
        // Never stored: the second attempt evaluates (and fails) again.
        EXPECT_EQ(counts.move_misses, 1u);
        EXPECT_EQ(counts.move_hits, 0u);
        EXPECT_EQ(counts.input_misses + counts.input_hits, 0u);
      } else {
        // The move succeeds and is stored; the options never are.
        EXPECT_EQ(counts.move_misses, attempt == 0 ? 1u : 0u);
        EXPECT_EQ(counts.move_hits, attempt == 0 ? 0u : 1u);
        EXPECT_EQ(counts.input_misses, 1u);
        EXPECT_EQ(counts.input_hits, 0u);
      }
    }
  }
}

TEST(MoveMemo, BoundToOneGenerator) {
  auto first = spec::ParseComposition(kPingPong);
  auto second = spec::ParseComposition(kPingPong);
  ASSERT_TRUE(first.ok() && second.ok());
  Fixture a(std::move(*first), RunOptions{});
  Fixture b(std::move(*second), RunOptions{});
  MoveMemo memo;
  Through(*a.generator, memo, MakeInitialSnapshot(a.comp));
  Status status = b.generator->ForEachSuccessor(
      MakeInitialSnapshot(b.comp), memo, [](Snapshot&) {});
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

}  // namespace
}  // namespace wsv::runtime
