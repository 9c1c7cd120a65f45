// The ordered-first-witness protocol (verifier/first_witness.h) driven with
// scripted item outcomes: whatever the lane count and whichever items above
// the witness lanes happened to check, the resolved outcome is the one a
// serial loop over the script reports.

#include "verifier/first_witness.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace wsv::verifier {
namespace {

enum class Item { kClean, kWitness, kBudget, kError, kDeadline, kCancel };

constexpr Item C = Item::kClean;
constexpr Item W = Item::kWitness;
constexpr Item B = Item::kBudget;
constexpr Item E = Item::kError;
constexpr Item D = Item::kDeadline;
constexpr Item X = Item::kCancel;

/// What a caller of the protocol reports: the witness index, the hard
/// error returned instead of a verdict, and the stop status the sweep ends
/// with (the stop, else the replayed budget event). Statuses compare by
/// message, which names the item that produced them.
struct Resolved {
  size_t witness = FirstWitnessDispatch::kNone;
  std::string error;
  std::string status;

  bool operator==(const Resolved&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Resolved& r) {
  return os << "{witness=" << static_cast<long long>(r.witness)
            << " error='" << r.error << "' status='" << r.status << "'}";
}

Status StatusOf(Item item, size_t index) {
  const std::string at = "@" + std::to_string(index);
  switch (item) {
    case Item::kBudget:
      return Status::BudgetExceeded("budget" + at);
    case Item::kError:
      return Status::Internal("error" + at);
    case Item::kDeadline:
      return Status::DeadlineExceeded("deadline" + at);
    case Item::kCancel:
      return Status::Canceled("cancel" + at);
    default:
      return Status::Ok();
  }
}

/// Reports one item's scripted outcome the way the engine's valuation
/// loop does.
void Report(FirstWitnessDispatch& dispatch, size_t lane, size_t index,
            Item item) {
  switch (item) {
    case Item::kClean:
      return;
    case Item::kWitness:
      dispatch.Witness(index);
      return;
    case Item::kBudget:
      dispatch.Budget(lane, index, StatusOf(item, index));
      return;
    default:
      dispatch.Fail(index, StatusOf(item, index));
  }
}

Resolved Summarize(const Result<FirstWitnessDispatch::Verdict>& verdict) {
  Resolved out;
  if (!verdict.ok()) {
    out.error = verdict.status().message();
    return out;
  }
  out.witness = verdict->witness;
  if (verdict->stop.has_value()) {
    out.status = verdict->stop->message();
  } else if (verdict->budget.has_value()) {
    out.status = verdict->budget->message();
  }
  return out;
}

/// The reference: one loop in index order that stops at the first
/// witness, hard error or stop.
Resolved Serial(const std::vector<Item>& script) {
  Resolved out;
  for (size_t i = 0; i < script.size(); ++i) {
    switch (script[i]) {
      case Item::kClean:
        continue;
      case Item::kBudget:
        out.status = StatusOf(script[i], i).message();
        continue;
      case Item::kWitness:
        out.witness = i;
        return out;
      case Item::kError:
        return Resolved{FirstWitnessDispatch::kNone,
                        StatusOf(script[i], i).message(), ""};
      case Item::kDeadline:
      case Item::kCancel:
        out.status = StatusOf(script[i], i).message();
        return out;
    }
  }
  return out;
}

/// Lanes claim one-item chunks in increasing order and honor the fence,
/// as the engine's valuation stage does.
Resolved Dispatched(const std::vector<Item>& script, size_t lanes,
                    ThreadPool* pool) {
  FirstWitnessDispatch dispatch(lanes, "test.first_witness");
  ThreadPool::ParallelChunks(
      pool, lanes - 1, script.size(), [&](size_t lane, size_t i) {
        if (!dispatch.Admits(i)) return;
        std::this_thread::yield();  // widen the interleavings
        Report(dispatch, lane, i, script[i]);
      });
  return Summarize(dispatch.Resolve());
}

/// The worst case for hiding: every item was already in flight when the
/// fence dropped, and the ones above the witness report first.
Resolved AllInFlight(const std::vector<Item>& script, size_t lanes) {
  FirstWitnessDispatch dispatch(lanes, "test.first_witness");
  for (size_t i = script.size(); i-- > 0;) {
    Report(dispatch, i % lanes, i, script[i]);
  }
  return Summarize(dispatch.Resolve());
}

struct Case {
  const char* name;
  std::vector<Item> script;
  Resolved expected;
};

std::vector<Case> Cases() {
  const size_t none = FirstWitnessDispatch::kNone;
  return {
      {"witness", {C, C, C, W, C, W, C}, {3, "", ""}},
      {"error_below_witness_is_reported",
       {C, E, C, W, C},
       {none, "error@1", ""}},
      {"lowest_error_is_reported",
       {C, C, E, C, E, W},
       {none, "error@2", ""}},
      {"error_above_witness_is_hidden", {C, C, W, C, E, C}, {2, "", ""}},
      {"budget_above_witness_is_dropped", {C, W, B, B, C}, {1, "", ""}},
      {"budget_below_witness_is_kept", {B, C, B, W, B}, {3, "", "budget@2"}},
      {"last_budget_without_witness",
       {B, C, B, C, C},
       {none, "", "budget@2"}},
      {"deadline_without_witness",
       {C, B, D, C, C},
       {none, "", "deadline@2"}},
      {"cancel_without_witness", {X, C, C}, {none, "", "cancel@0"}},
      {"clean", {C, C, C, C}, {none, "", ""}},
  };
}

TEST(FirstWitnessDispatch, ScriptsResolveAsTheSerialOrderAtEveryLaneCount) {
  ThreadPool pool(3);
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(Serial(c.script), c.expected);
    for (size_t lanes : {1u, 2u, 4u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      for (int rep = 0; rep < 25; ++rep) {
        EXPECT_EQ(Dispatched(c.script, lanes, lanes > 1 ? &pool : nullptr),
                  c.expected);
      }
      // A stop is a point in time, not an item: items above it may run on
      // other lanes first, so only the fenced dispatch models it.
      const bool has_stop = !c.expected.status.empty() &&
                            c.expected.status.rfind("budget", 0) != 0;
      if (!has_stop) {
        EXPECT_EQ(AllInFlight(c.script, lanes), c.expected);
      }
    }
  }
}

/// A witness that raced a deadline or cancel on another lane is still
/// reported, with the stop as the sweep's stop status: it supersedes the
/// budget events below the witness.
TEST(FirstWitnessDispatch, StopBesideAWitnessKeepsTheWitness) {
  for (Item stop : {D, X}) {
    for (size_t lanes : {1u, 2u, 4u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes));
      FirstWitnessDispatch dispatch(lanes, "test.first_witness");
      Report(dispatch, 0, 1, B);
      Report(dispatch, 1 % lanes, 4, W);
      Report(dispatch, 2 % lanes, 6, stop);
      Report(dispatch, 3 % lanes, 2, D);  // the first stop recorded stays
      const std::string first = StatusOf(stop, 6).message();
      EXPECT_EQ(Summarize(dispatch.Resolve()), (Resolved{4, "", first}));
      Result<FirstWitnessDispatch::Verdict> verdict = dispatch.Resolve();
      ASSERT_TRUE(verdict.ok());
      ASSERT_TRUE(verdict->budget.has_value());
      EXPECT_EQ(verdict->budget->message(), "budget@1");
    }
  }
}

TEST(FirstWitnessDispatch, FenceAdmitsOnlyIndicesBelowTheWitness) {
  FirstWitnessDispatch dispatch(1, "test.first_witness");
  EXPECT_TRUE(dispatch.Admits(100));
  dispatch.Witness(7);
  dispatch.Witness(9);  // a later, higher witness does not raise the fence
  EXPECT_TRUE(dispatch.Admits(6));
  EXPECT_FALSE(dispatch.Admits(7));
  EXPECT_TRUE(dispatch.open());
  Report(dispatch, 0, 2, B);  // a budget event leaves dispatch open
  EXPECT_TRUE(dispatch.Admits(6));
  dispatch.Fail(3, Status::Internal("error@3"));
  EXPECT_FALSE(dispatch.open());
  EXPECT_FALSE(dispatch.Admits(0));
}

TEST(FirstWitnessDispatch, StopClosesDispatch) {
  for (Item stop : {D, X}) {
    FirstWitnessDispatch dispatch(1, "test.first_witness");
    Report(dispatch, 0, 5, stop);
    EXPECT_FALSE(dispatch.open());
    EXPECT_FALSE(dispatch.Admits(0));
  }
}

}  // namespace
}  // namespace wsv::verifier
