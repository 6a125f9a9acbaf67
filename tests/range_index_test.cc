// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "goddag/index.h"
#include "goddag/kygoddag.h"
#include "workload/generator.h"

namespace mhx::goddag {
namespace {

// Brute-force reference for every query, over the same node set.
std::vector<NodeId> Brute(const KyGoddag& kg,
                          bool (*pred)(const TextRange&, const TextRange&),
                          const TextRange& query) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(id).kind != GNodeKind::kElement) continue;
    if (pred(kg.node(id).range, query)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Sorted(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

class RangeIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::EditionConfig config;
    config.seed = 7;
    config.word_count = 120;
    config.chars_per_line = 17;  // plenty of word/line conflicts
    config.damage_coverage = 0.2;
    config.restoration_coverage = 0.2;
    auto doc = workload::BuildEditionDocument(config);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::make_unique<MultihierarchicalDocument>(std::move(doc).value());
  }

  std::unique_ptr<MultihierarchicalDocument> doc_;
};

TEST_F(RangeIndexTest, MatchesBruteForceOnManyQueries) {
  const KyGoddag& kg = doc_->goddag();
  RangeIndex index(&kg);
  EXPECT_EQ(index.size(), kg.element_count());
  const size_t n = kg.base_text().size();
  std::vector<TextRange> queries;
  for (size_t begin = 0; begin < n; begin += 13) {
    queries.push_back(TextRange(begin, std::min(n, begin + 1)));
    queries.push_back(TextRange(begin, std::min(n, begin + 9)));
    queries.push_back(TextRange(begin, std::min(n, begin + 64)));
  }
  queries.push_back(TextRange(0, n));
  for (const TextRange& q : queries) {
    if (q.empty()) continue;
    EXPECT_EQ(Sorted(index.NodesIntersecting(q)),
              Brute(kg, [](const TextRange& r, const TextRange& query) {
                return r.Intersects(query);
              }, q))
        << "intersecting " << q.ToString();
    EXPECT_EQ(Sorted(index.NodesOverlapping(q)),
              Brute(kg, [](const TextRange& r, const TextRange& query) {
                return OverlappingRange(r, query);
              }, q))
        << "overlapping " << q.ToString();
    EXPECT_EQ(Sorted(index.NodesContaining(q)),
              Brute(kg, [](const TextRange& r, const TextRange& query) {
                return r.Contains(query);
              }, q))
        << "containing " << q.ToString();
    EXPECT_EQ(Sorted(index.NodesContainedIn(q)),
              Brute(kg, [](const TextRange& r, const TextRange& query) {
                return query.Contains(r);
              }, q))
        << "contained in " << q.ToString();
    EXPECT_EQ(Sorted(index.NodesBeginningAtOrAfter(q.end)),
              Brute(kg, [](const TextRange& r, const TextRange& query) {
                return r.begin >= query.end;
              }, q))
        << "beginning at/after " << q.end;
    EXPECT_EQ(Sorted(index.NodesEndingAtOrBefore(q.begin)),
              Brute(kg, [](const TextRange& r, const TextRange& query) {
                return r.end <= query.begin;
              }, q))
        << "ending at/before " << q.begin;
  }
}

TEST_F(RangeIndexTest, SnapshotCarriesRevision) {
  std::unique_ptr<KyGoddag> kg = doc_->PinSnapshot()->goddag().Clone();
  RangeIndex index(kg.get());
  EXPECT_EQ(index.revision(), kg->revision());
  auto h = kg->AddVirtualHierarchy(
      "v", {VirtualElement{"x", TextRange(1, 5), {}}});
  ASSERT_TRUE(h.ok());
  EXPECT_NE(index.revision(), kg->revision());
  ASSERT_TRUE(kg->RemoveVirtualHierarchy(*h).ok());
}

TEST(RangeIndexEmptyTest, EmptyGoddag) {
  KyGoddag kg("");
  RangeIndex index(&kg);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.NodesIntersecting(TextRange(0, 1)).empty());
  EXPECT_TRUE(index.NodesOverlapping(TextRange(0, 1)).empty());
  EXPECT_TRUE(index.NodesContaining(TextRange(0, 1)).empty());
  EXPECT_TRUE(index.NodesContainedIn(TextRange(0, 1)).empty());
  EXPECT_TRUE(index.NodesBeginningAtOrAfter(0).empty());
  EXPECT_TRUE(index.NodesEndingAtOrBefore(99).empty());
}

}  // namespace
}  // namespace mhx::goddag
