// Round-trip property: PrintComposition output re-parses into a composition
// with the same structure, rules and verification behavior — across every
// library composition and a programmatically built CFSM embedding.

#include <gtest/gtest.h>

#include <ostream>

#include "cfsm/embed.h"
#include "ltl/property.h"
#include "spec/library.h"
#include "spec/parser.h"
#include "spec/printer.h"
#include "verifier/verifier.h"

namespace wsv::spec {
namespace {

void ExpectStructurallyEqual(const Composition& a, const Composition& b) {
  ASSERT_EQ(a.peers().size(), b.peers().size());
  for (size_t p = 0; p < a.peers().size(); ++p) {
    const Peer& pa = a.peers()[p];
    const Peer& pb = b.peers()[p];
    EXPECT_EQ(pa.name(), pb.name());
    EXPECT_EQ(pa.database_schema().size(), pb.database_schema().size());
    EXPECT_EQ(pa.declared_state_schema().size(),
              pb.declared_state_schema().size());
    EXPECT_EQ(pa.input_schema().size(), pb.input_schema().size());
    EXPECT_EQ(pa.action_schema().size(), pb.action_schema().size());
    EXPECT_EQ(pa.in_queues().size(), pb.in_queues().size());
    EXPECT_EQ(pa.out_queues().size(), pb.out_queues().size());
    EXPECT_EQ(pa.lookback(), pb.lookback());
    ASSERT_EQ(pa.rules().size(), pb.rules().size());
    for (size_t r = 0; r < pa.rules().size(); ++r) {
      EXPECT_EQ(pa.rules()[r].kind, pb.rules()[r].kind);
      EXPECT_EQ(pa.rules()[r].relation, pb.rules()[r].relation);
      EXPECT_EQ(pa.rules()[r].head_vars, pb.rules()[r].head_vars);
      EXPECT_EQ(pa.rules()[r].body->ToString(),
                pb.rules()[r].body->ToString());
    }
  }
  ASSERT_EQ(a.channels().size(), b.channels().size());
  for (size_t c = 0; c < a.channels().size(); ++c) {
    EXPECT_EQ(a.channels()[c].name, b.channels()[c].name);
    EXPECT_EQ(a.channels()[c].kind, b.channels()[c].kind);
  }
}

// One library composition. Printed by name, so the case name that test
// discovery derives from the parameter is stable across runs (a bare function
// pointer would print as its load address, which varies from run to run).
struct LibraryCase {
  const char* name;
  Result<Composition> (*build)();
};

void PrintTo(const LibraryCase& c, std::ostream* os) { *os << c.name; }

class PrinterRoundTripTest : public ::testing::TestWithParam<LibraryCase> {};

TEST_P(PrinterRoundTripTest, PrintedSpecReparsesEquivalently) {
  auto original = GetParam().build();
  ASSERT_TRUE(original.ok()) << original.status();
  std::string printed = PrintComposition(*original);
  auto reparsed = ParseComposition(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n--- printed ---\n"
                             << printed;
  ExpectStructurallyEqual(*original, *reparsed);
  // Idempotence: printing the reparsed composition gives the same text.
  EXPECT_EQ(printed, PrintComposition(*reparsed));
}

INSTANTIATE_TEST_SUITE_P(
    Library, PrinterRoundTripTest,
    ::testing::Values(LibraryCase{"Loan", &library::LoanComposition},
                      LibraryCase{"OfficerOnly",
                                  &library::OfficerOnlyComposition},
                      LibraryCase{"Bookstore", &library::BookstoreComposition},
                      LibraryCase{"Airline", &library::AirlineComposition},
                      LibraryCase{"MotoGp", &library::MotoGpComposition}));

TEST(PrinterRoundTrip, ShopWithLookback) {
  auto original = library::ShopComposition(3);
  ASSERT_TRUE(original.ok());
  auto reparsed = ParseComposition(PrintComposition(*original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->peers()[0].lookback(), 3);
}

TEST(PrinterRoundTrip, CfsmEmbeddingSurvivesSerialization) {
  // Programmatically-built composition -> DSL -> parse -> verify: the
  // stop-and-wait invariant must hold in the reparsed composition too.
  cfsm::CfsmSystem system;
  cfsm::CfsmMachine sender;
  sender.name = "sender";
  sender.num_states = 2;
  sender.transitions.push_back(
      {0, 1, cfsm::CfsmTransition::Kind::kSend, 0, "data"});
  sender.transitions.push_back(
      {1, 0, cfsm::CfsmTransition::Kind::kReceive, 1, "ack"});
  cfsm::CfsmMachine receiver;
  receiver.name = "receiver";
  receiver.num_states = 2;
  receiver.transitions.push_back(
      {0, 1, cfsm::CfsmTransition::Kind::kReceive, 0, "data"});
  receiver.transitions.push_back(
      {1, 0, cfsm::CfsmTransition::Kind::kSend, 1, "ack"});
  system.machines = {sender, receiver};
  system.channels = {{"d", 0, 1}, {"a", 1, 0}};

  auto embedded = cfsm::EmbedAsComposition(system);
  ASSERT_TRUE(embedded.ok());
  auto reparsed = ParseComposition(PrintComposition(*embedded));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ExpectStructurallyEqual(*embedded, *reparsed);

  auto property = ltl::Property::Parse(
      "G((not receiver.empty_d) -> sender.at_1)");
  ASSERT_TRUE(property.ok());
  verifier::VerifierOptions options;
  options.fresh_domain_size = 1;
  verifier::Verifier verifier(&*reparsed, options);
  auto result = verifier.Verify(*property);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->holds);
}

}  // namespace
}  // namespace wsv::spec
