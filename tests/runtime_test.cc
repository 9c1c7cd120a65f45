#include <gtest/gtest.h>

#include "runtime/simulator.h"
#include "runtime/snapshot_view.h"
#include "runtime/transition.h"
#include "spec/parser.h"

namespace wsv::runtime {
namespace {

/// Harness around a parsed composition with one database and an evaluation
/// domain of the database values plus constants.
struct Harness {
  explicit Harness(const char* source, RunOptions options = {}) {
    auto parsed = spec::ParseComposition(source);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    comp = std::make_unique<spec::Composition>(std::move(*parsed));
    interner = comp->BuildInterner();
    for (const auto& peer : comp->peers()) {
      dbs.emplace_back(&peer.database_schema());
    }
    generator = nullptr;
    run_options = options;
  }

  void Finalize() {
    data::Domain domain;
    for (const auto& db : dbs) db.CollectActiveDomain(domain);
    for (SymbolId id = 0; id < interner.size(); ++id) domain.Add(id);
    generator = std::make_unique<TransitionGenerator>(
        comp.get(), dbs, domain, &interner, run_options);
  }

  data::Value V(const std::string& s) { return interner.Intern(s); }

  std::unique_ptr<spec::Composition> comp;
  Interner interner;
  std::vector<data::Instance> dbs;
  RunOptions run_options;
  std::unique_ptr<TransitionGenerator> generator;
};

constexpr char kCounterSpec[] = R"(
peer P {
  database { item(x); }
  input    { tick(x); }
  state    { on(x); }
  rules {
    options tick(x) :- item(x);
    insert on(x) :- tick(x) and not on(x);
    delete on(x) :- tick(x) and on(x);
  }
}
)";

TEST(Transition, InitialSnapshotsCarryOptionsConsistentInputs) {
  Harness h(kCounterSpec);
  h.dbs[0].relation("item").Insert({h.V("a")});
  h.Finalize();
  auto initials = h.generator->InitialSnapshots();
  ASSERT_TRUE(initials.ok());
  // Input choices at the empty configuration: nothing, or tick(a).
  EXPECT_EQ(initials->size(), 2u);
  bool has_empty = false;
  bool has_tick = false;
  for (const Snapshot& s : *initials) {
    if (s.peers[0].input.relation("tick").empty()) {
      has_empty = true;
    } else {
      EXPECT_TRUE(s.peers[0].input.relation("tick").Contains({h.V("a")}));
      has_tick = true;
    }
  }
  EXPECT_TRUE(has_empty && has_tick);
}

TEST(Transition, InsertDeleteToggleAndPrevUpdate) {
  Harness h(kCounterSpec);
  h.dbs[0].relation("item").Insert({h.V("a")});
  h.Finalize();
  // Start from the snapshot whose input is tick(a).
  auto initials = h.generator->InitialSnapshots();
  ASSERT_TRUE(initials.ok());
  Snapshot start;
  for (Snapshot& s : *initials) {
    if (!s.peers[0].input.relation("tick").empty()) start = std::move(s);
  }
  auto succ = h.generator->SuccessorsForPeer(start, 0);
  ASSERT_TRUE(succ.ok());
  ASSERT_FALSE(succ->empty());
  for (const Snapshot& s : *succ) {
    // tick(a) consumed: on toggles to {a}; prev records the input.
    EXPECT_TRUE(s.peers[0].state.relation("on").Contains({h.V("a")}));
    EXPECT_TRUE(s.peers[0].prev.relation("prev_tick").Contains({h.V("a")}));
  }
  // One more tick toggles off (delete rule), prev unchanged.
  Snapshot second;
  for (const Snapshot& s : *succ) {
    if (!s.peers[0].input.relation("tick").empty()) second = s;
  }
  auto succ2 = h.generator->SuccessorsForPeer(second, 0);
  ASSERT_TRUE(succ2.ok());
  for (const Snapshot& s : *succ2) {
    EXPECT_TRUE(s.peers[0].state.relation("on").empty());
  }
}

TEST(Transition, EmptyInputLeavesPrevUnchanged) {
  Harness h(kCounterSpec);
  h.dbs[0].relation("item").Insert({h.V("a")});
  h.Finalize();
  Snapshot start = MakeInitialSnapshot(*h.comp);  // empty input
  auto succ = h.generator->SuccessorsForPeer(start, 0);
  ASSERT_TRUE(succ.ok());
  for (const Snapshot& s : *succ) {
    EXPECT_TRUE(s.peers[0].prev.relation("prev_tick").empty());
    EXPECT_TRUE(s.peers[0].state.relation("on").empty());
  }
}

constexpr char kConflictSpec[] = R"(
peer P {
  database { item(x); }
  state    { s(x); }
  input    { go(x); }
  rules {
    options go(x) :- item(x);
    insert s(x) :- go(x);
    delete s(x) :- go(x);
  }
}
)";

TEST(Transition, ConflictingInsertDeleteIsNoOp) {
  // Definition 2.4: a tuple derived by both the insertion and the deletion
  // rule keeps its previous status.
  Harness h(kConflictSpec);
  h.dbs[0].relation("item").Insert({h.V("a")});
  h.Finalize();
  auto initials = h.generator->InitialSnapshots();
  ASSERT_TRUE(initials.ok());
  Snapshot with_input;
  for (Snapshot& s : *initials) {
    if (!s.peers[0].input.relation("go").empty()) with_input = std::move(s);
  }
  auto succ = h.generator->SuccessorsForPeer(with_input, 0);
  ASSERT_TRUE(succ.ok());
  for (const Snapshot& s : *succ) {
    // Not in s before, conflicting rules: stays absent.
    EXPECT_TRUE(s.peers[0].state.relation("s").empty());
  }
}

constexpr char kSenderReceiver[] = R"(
peer S {
  database { d(x); }
  input    { go(x); }
  outqueue flat { q(x); }
  rules {
    options go(x) :- d(x);
    send q(x) :- go(x);
  }
}
peer R {
  state { got(x); }
  inqueue flat { q(x); }
  rules {
    insert got(x) :- ?q(x);
  }
}
)";

TEST(Transition, LossyChannelsBranchOnDelivery) {
  Harness h(kSenderReceiver);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.Finalize();
  auto initials = h.generator->InitialSnapshots();
  ASSERT_TRUE(initials.ok());
  Snapshot sending;
  for (Snapshot& s : *initials) {
    if (!s.peers[0].input.relation("go").empty()) sending = std::move(s);
  }
  auto succ = h.generator->SuccessorsForPeer(sending, 0);
  ASSERT_TRUE(succ.ok());
  bool delivered = false;
  bool dropped = false;
  for (const Snapshot& s : *succ) {
    if (s.channels[0].empty()) {
      dropped = true;
      EXPECT_TRUE(s.sent[0]);
      EXPECT_FALSE(s.received[0]);
    } else {
      delivered = true;
      EXPECT_TRUE(s.sent[0]);
      EXPECT_TRUE(s.received[0]);
      EXPECT_TRUE(s.channels[0].front().Contains({h.V("a")}));
    }
  }
  EXPECT_TRUE(delivered && dropped);
}

TEST(Transition, PerfectChannelsAlwaysDeliver) {
  RunOptions options;
  options.lossy = false;
  Harness h(kSenderReceiver, options);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.Finalize();
  auto initials = h.generator->InitialSnapshots();
  ASSERT_TRUE(initials.ok());
  Snapshot sending;
  for (Snapshot& s : *initials) {
    if (!s.peers[0].input.relation("go").empty()) sending = std::move(s);
  }
  auto succ = h.generator->SuccessorsForPeer(sending, 0);
  ASSERT_TRUE(succ.ok());
  for (const Snapshot& s : *succ) {
    EXPECT_FALSE(s.channels[0].empty());
  }
}

TEST(Transition, BoundedQueueDropsWhenFull) {
  RunOptions options;
  options.lossy = false;
  options.queue_bound = 1;
  Harness h(kSenderReceiver, options);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.Finalize();
  Snapshot s = MakeInitialSnapshot(*h.comp);
  // Pre-fill the queue to the bound.
  data::Relation msg(1);
  msg.Insert({h.V("a")});
  s.channels[0].push_back(msg);
  s.peers[0].input.relation("go").Insert({h.V("a")});
  auto succ = h.generator->SuccessorsForPeer(s, 0);
  ASSERT_TRUE(succ.ok());
  for (const Snapshot& next : *succ) {
    EXPECT_EQ(next.channels[0].size(), 1u);  // still one message: drop
    EXPECT_TRUE(next.sent[0]);
    EXPECT_FALSE(next.received[0]);
  }
}

TEST(Transition, ReceiverConsumesMentionedQueueEveryMove) {
  Harness h(kSenderReceiver);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.Finalize();
  Snapshot s = MakeInitialSnapshot(*h.comp);
  data::Relation msg(1);
  msg.Insert({h.V("a")});
  s.channels[0].push_back(msg);
  auto succ = h.generator->SuccessorsForPeer(s, 1);  // receiver moves
  ASSERT_TRUE(succ.ok());
  for (const Snapshot& next : *succ) {
    EXPECT_TRUE(next.channels[0].empty());  // dequeued (Definition 2.4)
    EXPECT_TRUE(next.peers[1].state.relation("got").Contains({h.V("a")}));
  }
}

constexpr char kMultiSend[] = R"(
peer S {
  database { d(x); }
  outqueue flat { q(x); }
  rules {
    send q(x) :- d(x);
  }
}
peer R {
  state { got(x); }
  inqueue flat { q(x); }
  rules { insert got(x) :- ?q(x); }
}
)";

TEST(Transition, FlatSendPicksOneTupleNondeterministically) {
  Harness h(kMultiSend);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.dbs[0].relation("d").Insert({h.V("b")});
  h.Finalize();
  Snapshot s = MakeInitialSnapshot(*h.comp);
  auto succ = h.generator->SuccessorsForPeer(s, 0);
  ASSERT_TRUE(succ.ok());
  bool sent_a = false;
  bool sent_b = false;
  for (const Snapshot& next : *succ) {
    if (next.channels[0].empty()) continue;
    EXPECT_EQ(next.channels[0].front().size(), 1u);  // single-tuple message
    if (next.channels[0].front().Contains({h.V("a")})) sent_a = true;
    if (next.channels[0].front().Contains({h.V("b")})) sent_b = true;
  }
  EXPECT_TRUE(sent_a && sent_b);
}

TEST(Transition, DeterministicFlatSendSetsErrorFlag) {
  RunOptions options;
  options.deterministic_flat_sends = true;
  Harness h(kMultiSend, options);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.dbs[0].relation("d").Insert({h.V("b")});
  h.Finalize();
  Snapshot s = MakeInitialSnapshot(*h.comp);
  auto succ = h.generator->SuccessorsForPeer(s, 0);
  ASSERT_TRUE(succ.ok());
  for (const Snapshot& next : *succ) {
    EXPECT_TRUE(next.channels[0].empty());        // no message sent
    EXPECT_TRUE(next.peers[0].send_errors[0]);    // error_q raised (Thm 3.8)
  }
}

constexpr char kErrorConsult[] = R"(
peer S {
  database { d(x); }
  state    { failed(); }
  outqueue flat { q(x); }
  rules {
    send q(x) :- d(x) and not error_q;
    insert failed() :- error_q;
  }
}
peer R {
  state { got(x); }
  inqueue flat { q(x); }
  rules { insert got(x) :- ?q(x); }
}
)";

TEST(Transition, RulesMayConsultSendErrorFlags) {
  // Theorem 3.8's semantics: ambiguous flat sends raise error_<Q>, which
  // rules can consult — here the peer records the failure in state.
  RunOptions options;
  options.deterministic_flat_sends = true;
  Harness h(kErrorConsult, options);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.dbs[0].relation("d").Insert({h.V("b")});
  h.Finalize();
  Snapshot s = MakeInitialSnapshot(*h.comp);
  auto succ = h.generator->SuccessorsForPeer(s, 0);
  ASSERT_TRUE(succ.ok()) << succ.status();
  ASSERT_FALSE(succ->empty());
  // First move: the send rule yields two candidates -> error flag raised.
  Snapshot flagged = succ->front();
  EXPECT_TRUE(flagged.peers[0].send_errors[0]);
  // Second move: the insert rule sees error_q and records the failure.
  auto succ2 = h.generator->SuccessorsForPeer(flagged, 0);
  ASSERT_TRUE(succ2.ok());
  for (const Snapshot& next : *succ2) {
    EXPECT_FALSE(next.peers[0].state.relation("failed").empty());
  }
}

TEST(SnapshotView, ExposesQueueViewsAndRunPropositions) {
  Harness h(kSenderReceiver);
  h.dbs[0].relation("d").Insert({h.V("a")});
  h.Finalize();
  Snapshot s = MakeInitialSnapshot(*h.comp);
  data::Relation m1(1);
  m1.Insert({h.V("a")});
  data::Relation m2(1);
  data::Value b = h.V("b");
  m2.Insert({b});
  s.channels[0].push_back(m1);
  s.channels[0].push_back(m2);
  s.mover = 0;
  s.received[0] = true;

  StructureLayout layout = PropertyStructureLayout(*h.comp);
  fo::SlotStructure view(&layout.names(), &h.generator->domain());
  layout.Bind(h.dbs, s, &view);
  // Receiver sees the first message, sender view shows the last.
  EXPECT_TRUE(view.Find("R.q")->Contains({h.V("a")}));
  EXPECT_TRUE(view.Find("S.q")->Contains({b}));
  EXPECT_FALSE(view.Find("R.empty_q")->Contains(data::Tuple{}));
  EXPECT_TRUE(view.Find("move_S")->Contains(data::Tuple{}));
  EXPECT_FALSE(view.Find("move_R")->Contains(data::Tuple{}));
  EXPECT_TRUE(view.Find("received_q")->Contains(data::Tuple{}));
  EXPECT_FALSE(view.Find("sent_q")->Contains(data::Tuple{}));
}

TEST(Simulator, RunsWithoutDeadlock) {
  Harness h(kCounterSpec);
  h.dbs[0].relation("item").Insert({h.V("a")});
  Simulator sim(h.comp.get(), h.dbs, &h.interner, RunOptions{}, 123);
  auto trace = sim.Run(20);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 21u);  // initial + 20 steps; peers always move
}

TEST(Simulator, DifferentSeedsExploreDifferentRuns) {
  Harness h(kSenderReceiver);
  h.dbs[0].relation("d").Insert({h.V("a")});
  std::set<size_t> hashes;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Simulator sim(h.comp.get(), h.dbs, &h.interner, RunOptions{}, seed);
    auto trace = sim.Run(6);
    ASSERT_TRUE(trace.ok());
    size_t hash = 0;
    for (const Snapshot& s : *trace) HashCombine(hash, s.Hash());
    hashes.insert(hash);
  }
  EXPECT_GT(hashes.size(), 1u);
}

/// Lookback windows shift correctly for every k (peers with k-lookback).
class LookbackTest : public ::testing::TestWithParam<int> {};

TEST_P(LookbackTest, WindowShiftsInOrder) {
  int k = GetParam();
  Harness h(kCounterSpec);
  h.dbs[0].relation("item").Insert({h.V("a")});
  h.dbs[0].relation("item").Insert({h.V("b")});
  // Rebuild the composition with lookback k.
  spec::Composition rebuilt("lookback");
  spec::Peer peer = h.comp->peers()[0];
  peer.SetLookback(k);
  ASSERT_TRUE(rebuilt.AddPeer(std::move(peer)).ok());
  ASSERT_TRUE(rebuilt.Validate().ok());
  data::Domain domain;
  h.dbs[0].CollectActiveDomain(domain);
  TransitionGenerator generator(&rebuilt, h.dbs, domain, &h.interner,
                                RunOptions{});

  // Feed inputs a, b alternately and check the window order.
  Snapshot s = MakeInitialSnapshot(rebuilt);
  std::vector<data::Value> fed;
  for (int step = 0; step < k + 1; ++step) {
    data::Value v = step % 2 == 0 ? h.V("a") : h.V("b");
    s.peers[0].input.Clear();
    s.peers[0].input.relation("tick").Insert({v});
    fed.push_back(v);
    auto succ = generator.SuccessorsForPeer(s, 0);
    ASSERT_TRUE(succ.ok());
    ASSERT_FALSE(succ->empty());
    s = succ->front();
  }
  // prev_tick holds the most recent input, prev<i>_tick the i-th previous.
  for (int i = 1; i <= k; ++i) {
    const data::Relation& slot =
        s.peers[0].prev.relation(spec::PrevInputName("tick", i));
    if (static_cast<size_t>(i) <= fed.size()) {
      EXPECT_TRUE(slot.Contains({fed[fed.size() - i]}))
          << "slot " << i << " with lookback " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, LookbackTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace wsv::runtime
