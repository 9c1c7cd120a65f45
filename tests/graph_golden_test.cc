// Golden fingerprints of two explored snapshot graphs: an FNV-1a hash over
// the initial ids, every interned flat span in id order and every
// successor list. Snapshot ids and edge order feed every witness and
// statistic, so they must stay bit-for-bit identical across changes to
// successor generation, normalization and interning, at every job count.
// Registered under the `flat` ctest label.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "ltl/grounding.h"
#include "ltl/property.h"
#include "spec/library.h"
#include "verifier/engine.h"
#include "verifier/snapshot_graph.h"

namespace wsv::verifier {
namespace {

struct Fingerprint {
  size_t snapshots = 0;
  size_t transitions = 0;
  uint64_t hash = 0;
};

struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint32_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  }
};

/// Explores the graph the engine would build for `property_text` on one
/// pinned database and fingerprints it.
Fingerprint Explore(const spec::Composition& comp,
                    const std::string& property_text, size_t fresh,
                    const std::vector<NamedDatabase>& named, size_t jobs) {
  auto property = ltl::Property::Parse(property_text);
  EXPECT_TRUE(property.ok()) << property.status();
  PseudoDomain pd = BuildPseudoDomain(comp, property->Constants(), fresh);
  auto dbs = MaterializeDatabases(comp, named, pd.interner, pd.domain);
  EXPECT_TRUE(dbs.ok()) << dbs.status();
  auto ground = ltl::GroundToPropositional(property->formula(),
                                           /*negate=*/true,
                                           /*allow_free_leaves=*/true);
  EXPECT_TRUE(ground.ok()) << ground.status();
  runtime::TransitionGenerator generator(&comp, *dbs, pd.domain, &pd.interner,
                                         runtime::RunOptions{});
  SnapshotGraph graph(&generator,
                      NormalizationForLeaves(comp, ground->propositions));
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs - 1);
  auto complete = graph.ExploreAll(static_cast<size_t>(-1), nullptr,
                                   pool.get(), jobs);
  EXPECT_TRUE(complete.ok() && *complete);

  Fnv1a fnv;
  auto initials = graph.Initials();
  EXPECT_TRUE(initials.ok());
  fnv.Add(static_cast<uint32_t>((*initials)->size()));
  for (SnapshotId id : **initials) fnv.Add(id);
  for (SnapshotId sid = 0; sid < graph.size(); ++sid) {
    runtime::FlatSnapshot flat = graph.flat(sid);
    fnv.Add(flat.size);
    for (uint32_t i = 0; i < flat.size; ++i) fnv.Add(flat.data[i]);
  }
  for (SnapshotId sid = 0; sid < graph.size(); ++sid) {
    auto succ = graph.Successors(sid);
    EXPECT_TRUE(succ.ok());
    fnv.Add(static_cast<uint32_t>((*succ)->size()));
    for (SnapshotId id : **succ) fnv.Add(id);
  }
  return Fingerprint{graph.size(), graph.transitions_computed(), fnv.h};
}

class GraphGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GraphGoldenTest, LoanExample22Graph) {
  auto comp = spec::library::LoanComposition();
  ASSERT_TRUE(comp.ok()) << comp.status();
  // The full Example 2.2 database, under the Example 3.2 policy property.
  std::vector<NamedDatabase> dbs(4);
  dbs[0]["wants"] = {{"c1", "l1"}};
  dbs[1]["customer"] = {{"c1", "s1", "ann"}};
  dbs[2]["client"] = {{"c1", "s1", "ann"}};
  dbs[3]["creditRecord"] = {{"s1", "good"}};
  dbs[3]["accounts"] = {{"s1", "a1", "b1"}};
  Fingerprint fp = Explore(*comp, spec::library::LoanPropertyPolicy(),
                           /*fresh=*/1, dbs, GetParam());
  EXPECT_EQ(fp.snapshots, 18468u);
  EXPECT_EQ(fp.transitions, 260442u);
  EXPECT_EQ(fp.hash, 0x3b6196f7bbadd91aULL);
}

TEST_P(GraphGoldenTest, ShopGraph) {
  auto comp = spec::library::ShopComposition();
  ASSERT_TRUE(comp.ok()) << comp.status();
  std::vector<NamedDatabase> dbs(1);
  dbs[0]["product"] = {{"laptop", "p999"}, {"tablet", "p999"}};
  dbs[0]["inStock"] = {{"laptop"}};
  Fingerprint fp =
      Explore(*comp, "forall p: G(Shop.ship(p) -> Shop.inStock(p))",
              /*fresh=*/3, dbs, GetParam());
  EXPECT_EQ(fp.snapshots, 192u);
  EXPECT_EQ(fp.transitions, 1824u);
  EXPECT_EQ(fp.hash, 0xba5559ae0f6b9b96ULL);
}

INSTANTIATE_TEST_SUITE_P(Jobs, GraphGoldenTest, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace wsv::verifier
