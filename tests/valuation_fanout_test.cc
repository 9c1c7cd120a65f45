#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/run_control.h"
#include "ltl/property.h"
#include "obs/metrics.h"
#include "spec/parser.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

// A pinned database drives the within-database path: one configuration
// graph, many property instances (|domain|^2 with two closure variables),
// exercising the parallel graph exploration + valuation fan-out levels of
// the scheduler rather than the across-database sweep.
constexpr char kPipeline[] = R"(
peer Store {
  database { r(x); }
  input    { in(x); }
  state    { s(x); t(x); }
  rules {
    options in(x) :- r(x);
    insert s(x) :- in(x);
    insert t(x) :- s(x);
  }
}
)";

struct RunResult {
  VerificationResult result;
  std::string counterexample_text;  // empty when holds
  uint64_t violations_counter = 0;
  uint64_t chunks_counter = 0;
};

RunResult VerifyPinned(const spec::Composition& comp,
                       const std::string& property_text, size_t jobs,
                       RunControl* control = nullptr) {
  obs::Registry::Global().Reset();
  auto property = ltl::Property::Parse(property_text);
  EXPECT_TRUE(property.ok()) << property.status();
  VerifierOptions options;
  options.fresh_domain_size = 2;
  options.jobs = jobs;
  options.control = control;
  NamedDatabase db;
  db["r"] = {{"a"}, {"b"}, {"c"}};
  options.fixed_databases = std::vector<NamedDatabase>{db};
  Verifier verifier(&comp, options);
  auto result = verifier.Verify(*property);
  EXPECT_TRUE(result.ok()) << result.status();
  RunResult run;
  run.result = std::move(*result);
  if (run.result.counterexample.has_value()) {
    run.counterexample_text =
        run.result.counterexample->ToString(comp, verifier.interner());
  }
  run.violations_counter =
      obs::Registry::Global().counter("engine.violations").value();
  run.chunks_counter =
      obs::Registry::Global().counter("engine.valuation_chunks").value();
  return run;
}

/// The determinism contract for the within-database fan-out: verdict,
/// witness valuation index, witness label and the full rendered
/// counterexample are bit-for-bit identical at jobs = 1, 2 and 4.
TEST(ValuationFanout, ViolationIsDeterministicAcrossJobCounts) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  // Violated: Store eventually inserts t(a) while G(not ...) demands never.
  const std::string property =
      "forall x, y: G(not (Store.t(x) and Store.t(y)))";

  RunResult serial = VerifyPinned(*comp, property, 1);
  ASSERT_FALSE(serial.result.holds);
  ASSERT_TRUE(serial.result.counterexample.has_value());
  EXPECT_EQ(serial.violations_counter, 1u);
  EXPECT_EQ(serial.result.stats.jobs, 1u);
  const size_t serial_vi = serial.result.counterexample->valuation_index;
  ASSERT_NE(serial_vi, static_cast<size_t>(-1));

  for (size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult parallel = VerifyPinned(*comp, property, jobs);
    ASSERT_FALSE(parallel.result.holds);
    ASSERT_TRUE(parallel.result.counterexample.has_value());
    EXPECT_EQ(parallel.result.stats.jobs, jobs);
    EXPECT_EQ(parallel.result.counterexample->valuation_index, serial_vi);
    EXPECT_EQ(parallel.result.counterexample->database_index,
              serial.result.counterexample->database_index);
    EXPECT_EQ(parallel.result.counterexample->closure_valuation,
              serial.result.counterexample->closure_valuation);
    EXPECT_EQ(parallel.counterexample_text, serial.counterexample_text);
    // Exactly one violation reported even with concurrent candidates.
    EXPECT_EQ(parallel.violations_counter, 1u);
  }
}

/// When the property holds every valuation is checked exactly once at any
/// job count, so all aggregate statistics — graph size, searches,
/// prefilter and memo totals, leaf-cache hits/misses — match the serial
/// run's exactly. This pins down the sharded interning (ids bit-for-bit),
/// the sealed leaf cache (one miss per snapshot) and the exactly-once
/// prefilter memo.
TEST(ValuationFanout, HoldsVerdictHasIdenticalStatistics) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  // Holds: t(x) is only ever inserted from s(x).
  const std::string property =
      "forall x, y: G((Store.t(x) -> Store.s(x)) and "
      "(Store.t(y) -> Store.s(y)))";

  RunResult serial = VerifyPinned(*comp, property, 1);
  ASSERT_TRUE(serial.result.holds) << serial.counterexample_text;
  EXPECT_EQ(serial.violations_counter, 0u);
  EXPECT_GT(serial.result.stats.valuations_checked, 1u);
  EXPECT_EQ(serial.chunks_counter, 0u);  // serial path: no chunk dispatch

  for (size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RunResult parallel = VerifyPinned(*comp, property, jobs);
    EXPECT_TRUE(parallel.result.holds) << parallel.counterexample_text;
    EXPECT_EQ(parallel.violations_counter, 0u);
    // Proof the fan-out actually engaged: the chunked dispatcher ran.
    EXPECT_GT(parallel.chunks_counter, 0u);
    EXPECT_EQ(parallel.result.stats.valuations_checked,
              serial.result.stats.valuations_checked);
    EXPECT_EQ(parallel.result.stats.searches, serial.result.stats.searches);
    EXPECT_EQ(parallel.result.stats.prefiltered,
              serial.result.stats.prefiltered);
    EXPECT_EQ(parallel.result.stats.prefilter_memo_misses,
              serial.result.stats.prefilter_memo_misses);
    EXPECT_EQ(parallel.result.stats.prefilter_memo_hits,
              serial.result.stats.prefilter_memo_hits);
    EXPECT_EQ(parallel.result.stats.search.snapshots,
              serial.result.stats.search.snapshots);
    EXPECT_EQ(parallel.result.stats.search.graph_transitions,
              serial.result.stats.search.graph_transitions);
    EXPECT_EQ(parallel.result.stats.search.product_states,
              serial.result.stats.search.product_states);
    EXPECT_EQ(parallel.result.stats.search.leaf_cache_hits,
              serial.result.stats.search.leaf_cache_hits);
    EXPECT_EQ(parallel.result.stats.search.leaf_cache_misses,
              serial.result.stats.search.leaf_cache_misses);
  }
}

/// An already-canceled control stops a parallel within-database run before
/// any instance is checked: deterministic partial outcome, kCanceled.
TEST(ValuationFanout, CancelStopsParallelRunDeterministically) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  RunControl control;
  control.RequestCancel();
  RunResult run = VerifyPinned(
      *comp, "forall x, y: G(not (Store.t(x) and Store.t(y)))", 4, &control);
  EXPECT_TRUE(run.result.holds);  // no witness reached — partial verdict
  EXPECT_EQ(run.result.coverage.stop_reason, StopReason::kCanceled);
  EXPECT_EQ(run.result.stats.searches, 0u);
  EXPECT_EQ(run.violations_counter, 0u);
}

/// An expired deadline cuts a parallel valuation sweep between chunks: the
/// stop status propagates out of the fan-out as kDeadline, not as a crash,
/// hang or hard error.
TEST(ValuationFanout, ExpiredDeadlineCutsParallelSweep) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  RunControl control;
  control.ArmDeadlineMs(1);
  // Let the deadline lapse before the run starts; the first poll latches it.
  while (control.Check().ok()) {
  }
  RunResult run = VerifyPinned(
      *comp, "forall x, y: G(not (Store.t(x) and Store.t(y)))", 4, &control);
  EXPECT_TRUE(run.result.holds);
  EXPECT_EQ(run.result.coverage.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(run.violations_counter, 0u);
}

/// A valuation space past 2^63 — here 28 closure variables over a domain
/// of five, which saturates the index space at SIZE_MAX — still resolves to
/// its low-index witness. The chunk arithmetic must neither wrap to zero
/// chunks (a silent "holds") nor leave the lanes draining 2^56 dead chunks
/// after the witness.
TEST(ValuationFanout, SaturatedSpaceFindsLowIndexWitness) {
  auto comp = spec::ParseComposition(kPipeline);
  ASSERT_TRUE(comp.ok()) << comp.status();
  std::string vars = "x0";
  for (int i = 1; i < 28; ++i) vars += ", x" + std::to_string(i);
  const std::string property = "forall " + vars + ": G(not Store.t(x0))";

  RunResult serial = VerifyPinned(*comp, property, 1);
  ASSERT_FALSE(serial.result.holds);
  ASSERT_TRUE(serial.result.counterexample.has_value());
  const size_t serial_vi = serial.result.counterexample->valuation_index;
  EXPECT_LT(serial_vi, 5u);

  RunResult parallel = VerifyPinned(*comp, property, 4);
  ASSERT_FALSE(parallel.result.holds);
  ASSERT_TRUE(parallel.result.counterexample.has_value());
  EXPECT_EQ(parallel.result.counterexample->valuation_index, serial_vi);
  EXPECT_EQ(parallel.result.counterexample->closure_valuation,
            serial.result.counterexample->closure_valuation);
  EXPECT_EQ(parallel.counterexample_text, serial.counterexample_text);
}

}  // namespace
}  // namespace wsv::verifier
