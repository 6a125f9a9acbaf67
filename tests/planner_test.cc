// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Cost-based planner + SIMD kernel coverage:
//   * SnapshotStats counts, name interning, histogram, and RangeSoA layout
//     against a brute-force node-table walk on randomized editions;
//   * stats staleness across Writer::Commit — a pinned snapshot's stats
//     follow its version, never the document head;
//   * every kernel ISA (scalar / SSE2 / AVX2 / auto) against the naive
//     Definition-1 predicate, name pushdown and context exclusion included;
//   * RangeIndex ProbeFilter pushdown vs. post-hoc name filtering;
//   * planner strategy choices (containment probes vs. ordering scans on a
//     large edition), predicate-reordering safety, PlanCache replan
//     accounting, ExplainPlan rendering, and plan-mode byte-identity.

#include "xquery/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "document.h"
#include "goddag/index.h"
#include "goddag/snapshot.h"
#include "goddag/stats.h"
#include "workload/generator.h"
#include "xpath/axes.h"
#include "xpath/kernels.h"
#include "xquery/engine.h"
#include "xquery/parser.h"
#include "xquery/plan_cache.h"

namespace mhx {
namespace {

using goddag::GNodeKind;
using goddag::kNoNameKey;
using goddag::NodeId;
using goddag::ProbeFilter;
using goddag::RangeIndex;
using goddag::SnapshotStats;
using xpath::Axis;
using xpath::ExtendedAxisMatches;
using xpath::KernelIsa;

MultihierarchicalDocument BuildEdition(size_t words, uint32_t seed) {
  workload::EditionConfig config;
  config.seed = seed;
  config.word_count = words;
  config.chars_per_line = 28;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  auto doc = workload::BuildEditionDocument(config);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

constexpr Axis kExtendedAxes[] = {Axis::kXAncestor, Axis::kXDescendant,
                                  Axis::kOverlapping, Axis::kXFollowing,
                                  Axis::kXPreceding};

// Every live element id, in table order.
std::vector<NodeId> LiveElements(const goddag::KyGoddag& kg) {
  std::vector<NodeId> out;
  for (size_t id = 0; id < kg.node_table_size(); ++id) {
    if (kg.node(static_cast<NodeId>(id)).kind == GNodeKind::kElement) {
      out.push_back(static_cast<NodeId>(id));
    }
  }
  return out;
}

// --- SnapshotStats ----------------------------------------------------------

TEST(SnapshotStatsTest, MatchesBruteForceOnRandomizedEditions) {
  for (uint32_t seed : {7u, 99u, 2026u}) {
    SCOPED_TRACE(seed);
    auto doc = BuildEdition(120 + seed % 80, seed);
    const auto& kg = doc.goddag();
    SnapshotStats stats(&kg);

    size_t elements = 0;
    size_t total_len = 0;
    std::map<std::string, size_t> names;
    std::vector<size_t> hist(stats.range_length_log2_histogram().size(), 0);
    ASSERT_EQ(stats.node_name_keys().size(), kg.node_table_size());
    for (size_t id = 0; id < kg.node_table_size(); ++id) {
      const auto& n = kg.node(static_cast<NodeId>(id));
      if (n.kind != GNodeKind::kElement) {
        EXPECT_EQ(stats.node_name_keys()[id], kNoNameKey);
        continue;
      }
      ++elements;
      ++names[n.name];
      const size_t len = n.range.length();
      total_len += len;
      size_t bucket = 0;
      while ((len >> (bucket + 1)) != 0) ++bucket;  // floor(log2), 0 -> 0
      ++hist[bucket];
      EXPECT_EQ(stats.node_name_keys()[id], stats.name_key(n.name));
      EXPECT_NE(stats.node_name_keys()[id], kNoNameKey);
    }

    EXPECT_EQ(stats.element_count(), elements);
    EXPECT_EQ(stats.node_table_size(), kg.node_table_size());
    EXPECT_EQ(stats.text_size(), doc.base_text().size());
    EXPECT_EQ(stats.total_range_length(), total_len);
    EXPECT_EQ(stats.name_table_size(), names.size());
    for (const auto& [name, count] : names) {
      EXPECT_EQ(stats.name_count(name), count) << name;
    }
    EXPECT_EQ(stats.range_length_log2_histogram(), hist);
    EXPECT_EQ(stats.name_key("no-such-element-name"), kNoNameKey);
    EXPECT_EQ(stats.name_count("no-such-element-name"), 0u);

    // The packed scan surface mirrors the live elements in NodeId order.
    const auto& soa = stats.soa();
    ASSERT_TRUE(soa.valid);
    ASSERT_EQ(soa.size(), elements);
    NodeId prev = 0;
    for (size_t i = 0; i < soa.size(); ++i) {
      const NodeId id = soa.id[i];
      EXPECT_TRUE(i == 0 || id > prev) << "soa ids not ascending at " << i;
      prev = id;
      const auto& n = kg.node(id);
      ASSERT_EQ(n.kind, GNodeKind::kElement);
      EXPECT_EQ(soa.begin[i], n.range.begin);
      EXPECT_EQ(soa.end[i], n.range.end);
      EXPECT_EQ(soa.name_key[i], stats.name_key(n.name));
    }
  }
}

TEST(SnapshotStatsTest, StatsFollowThePinnedSnapshotAcrossCommit) {
  auto doc = BuildEdition(80, 5);
  auto before = doc.PinSnapshot();
  before->EnsureStats();
  const SnapshotStats* old_stats = &before->stats();
  const size_t old_elements = old_stats->element_count();
  const uint64_t old_version = before->version();
  ASSERT_EQ(old_stats->name_count("plannertestextra"), 0u);

  auto writer = doc.NewWriter();
  writer.AddVirtualHierarchy(
      "planner-test-extra",
      {goddag::VirtualElement{"plannertestextra", TextRange(0, 5), {}},
       goddag::VirtualElement{"plannertestextra", TextRange(6, 9), {}}});
  auto version = writer.Commit();
  ASSERT_TRUE(version.ok()) << version.status();

  auto after = doc.PinSnapshot();
  after->EnsureStats();
  EXPECT_GT(after->version(), old_version);

  // Build-once: repeated access returns the same immutable block, and the
  // old snapshot still describes the old version — never the new head.
  EXPECT_EQ(&before->stats(), old_stats);
  EXPECT_EQ(before->stats().element_count(), old_elements);
  EXPECT_EQ(before->stats().name_count("plannertestextra"), 0u);

  // The new snapshot's stats see the commit.
  EXPECT_EQ(after->stats().name_count("plannertestextra"), 2u);
  EXPECT_GT(after->stats().element_count(), old_elements);
}

// --- Kernels ----------------------------------------------------------------

TEST(KernelTest, EveryIsaMatchesTheNaivePredicate) {
  auto doc = BuildEdition(150, 11);
  const auto& kg = doc.goddag();
  SnapshotStats stats(&kg);
  ASSERT_TRUE(stats.soa().valid);

  std::vector<NodeId> elements = LiveElements(kg);
  ASSERT_FALSE(elements.empty());
  std::vector<NodeId> contexts;
  for (size_t i = 0; i < elements.size(); i += 7) {
    contexts.push_back(elements[i]);
  }

  const KernelIsa isas[] = {KernelIsa::kScalar, KernelIsa::kSse2,
                            KernelIsa::kAvx2, KernelIsa::kAuto};
  // kNoNameKey = no pushdown; "w" is dense, "dmg" sparse.
  const uint32_t keys[] = {kNoNameKey, stats.name_key("w"),
                           stats.name_key("dmg")};
  for (NodeId context : contexts) {
    const TextRange range = kg.node(context).range;
    for (Axis axis : kExtendedAxes) {
      for (uint32_t key : keys) {
        std::vector<NodeId> expected;
        for (NodeId id : elements) {
          if (id == context) continue;
          if (key != kNoNameKey && stats.node_name_keys()[id] != key) {
            continue;
          }
          if (ExtendedAxisMatches(axis, range, kg.node(id).range)) {
            expected.push_back(id);
          }
        }
        for (KernelIsa isa : isas) {
          std::vector<NodeId> got;
          ASSERT_TRUE(xpath::ScanExtendedAxis(stats.soa(), axis, range,
                                              context, key, isa, &got));
          EXPECT_EQ(got, expected)
              << "axis " << xpath::AxisName(axis) << " isa "
              << xpath::KernelIsaName(isa == KernelIsa::kAuto
                                          ? xpath::DispatchedKernelIsa()
                                          : isa)
              << " key " << key << " context " << context;
        }
      }
    }
  }
}

TEST(KernelTest, WiderIsaRequestsClampInsteadOfFaulting) {
  auto doc = BuildEdition(40, 2);
  SnapshotStats stats(&doc.goddag());
  ASSERT_TRUE(stats.soa().valid);
  const NodeId context = LiveElements(doc.goddag()).front();
  const TextRange range = doc.goddag().node(context).range;
  // kAvx2 on a non-AVX2 machine must clamp down and still answer; on an
  // AVX2 machine it is simply the fast path. Either way: same bytes.
  std::vector<NodeId> wide;
  std::vector<NodeId> scalar;
  ASSERT_TRUE(xpath::ScanExtendedAxis(stats.soa(), Axis::kXFollowing, range,
                                      context, kNoNameKey, KernelIsa::kAvx2,
                                      &wide));
  ASSERT_TRUE(xpath::ScanExtendedAxis(stats.soa(), Axis::kXFollowing, range,
                                      context, kNoNameKey,
                                      KernelIsa::kScalar, &scalar));
  EXPECT_EQ(wide, scalar);
}

// --- RangeIndex ProbeFilter -------------------------------------------------

TEST(ProbeFilterTest, PushdownEqualsPostFilterAcrossProbes) {
  auto doc = BuildEdition(120, 29);
  const auto& kg = doc.goddag();
  SnapshotStats stats(&kg);
  RangeIndex index(&kg);
  const uint32_t key = stats.name_key("w");
  ASSERT_NE(key, kNoNameKey);
  const ProbeFilter filter{stats.node_name_keys().data(), key};

  auto post_filtered = [&](std::vector<NodeId> ids) {
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](NodeId id) {
                               return stats.node_name_keys()[id] != key;
                             }),
              ids.end());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  auto sorted = [](std::vector<NodeId> ids) {
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  std::vector<NodeId> elements = LiveElements(kg);
  for (size_t i = 0; i < elements.size(); i += 11) {
    const TextRange range = kg.node(elements[i]).range;
    EXPECT_EQ(sorted(index.NodesContaining(range, filter)),
              post_filtered(index.NodesContaining(range)));
    EXPECT_EQ(sorted(index.NodesContainedIn(range, filter)),
              post_filtered(index.NodesContainedIn(range)));
    EXPECT_EQ(sorted(index.NodesOverlapping(range, filter)),
              post_filtered(index.NodesOverlapping(range)));
    EXPECT_EQ(sorted(index.NodesBeginningAtOrAfter(range.end, filter)),
              post_filtered(index.NodesBeginningAtOrAfter(range.end)));
    EXPECT_EQ(sorted(index.NodesEndingAtOrBefore(range.begin, filter)),
              post_filtered(index.NodesEndingAtOrBefore(range.begin)));
  }
  // A kNoNameKey filter (name absent from the snapshot) matches nothing.
  const ProbeFilter absent{stats.node_name_keys().data(), kNoNameKey};
  EXPECT_TRUE(index.NodesContaining(kg.node(elements[0]).range, absent)
                  .empty());
}

// --- Planner ----------------------------------------------------------------

TEST(PlannerTest, ContainmentProbesOrderingScansOnALargeEdition) {
  auto doc = BuildEdition(4000, 17);
  SnapshotStats stats(&doc.goddag());
  ASSERT_TRUE(stats.soa().valid);

  auto contained = xquery::ParseQuery("/descendant::w/xancestor::dmg");
  ASSERT_TRUE(contained.ok());
  auto plan = xquery::PlanQuery((*contained)->root(), stats, 41);
  EXPECT_EQ(plan.snapshot_version, 41u);
  const auto& steps = (*contained)->root().steps;
  ASSERT_EQ(steps.size(), 2u);
  // The tree-walk step carries no annotation (no strategy choice to make).
  EXPECT_EQ(plan.steps.count(&steps[0]), 0u);
  auto it = plan.steps.find(&steps[1]);
  ASSERT_NE(it, plan.steps.end());
  EXPECT_TRUE(it->second.exec.use_index);
  EXPECT_TRUE(it->second.exec.pushdown);
  EXPECT_LT(it->second.cost_indexed, it->second.cost_scan);

  auto ordering = xquery::ParseQuery("/descendant::w/xfollowing::line");
  ASSERT_TRUE(ordering.ok());
  auto plan2 = xquery::PlanQuery((*ordering)->root(), stats, 41);
  const auto& steps2 = (*ordering)->root().steps;
  ASSERT_EQ(steps2.size(), 2u);
  auto it2 = plan2.steps.find(&steps2[1]);
  ASSERT_NE(it2, plan2.steps.end());
  // Ordering axes return ~half the document; the vectorized scan wins.
  EXPECT_FALSE(it2->second.exec.use_index);
  EXPECT_LT(it2->second.cost_scan, it2->second.cost_indexed);
  EXPECT_GT(it2->second.est_hits, it->second.est_hits);
}

TEST(PlannerTest, ReordersOnlyProvablyBooleanPredicates) {
  auto doc = BuildEdition(80, 3);
  SnapshotStats stats(&doc.goddag());

  // Two statically boolean predicates, the cheaper one second: the plan
  // runs it first.
  auto boolean = xquery::ParseQuery(
      "/descendant::w[xancestor::dmg or overlapping::res or "
      "xfollowing::line][not(xdescendant::res)]");
  ASSERT_TRUE(boolean.ok());
  auto plan = xquery::PlanQuery((*boolean)->root(), stats, 1);
  const auto& steps = (*boolean)->root().steps;
  ASSERT_EQ(steps.size(), 1u);
  auto it = plan.steps.find(&steps[0]);
  ASSERT_NE(it, plan.steps.end());
  EXPECT_EQ(it->second.predicate_order, (std::vector<uint16_t>{1, 0}));

  // A positional predicate (integer-valued) pins source order.
  auto positional =
      xquery::ParseQuery("/descendant::w[2][string(.) = 'x']");
  ASSERT_TRUE(positional.ok());
  auto plan2 = xquery::PlanQuery((*positional)->root(), stats, 1);
  const auto& steps2 = (*positional)->root().steps;
  ASSERT_EQ(steps2.size(), 1u);
  auto it2 = plan2.steps.find(&steps2[0]);
  if (it2 != plan2.steps.end()) {
    EXPECT_TRUE(it2->second.predicate_order.empty());
  }

  // analyze-string() in a predicate body pins source order too: its
  // temporary hierarchies register in evaluation order.
  auto analyze = xquery::ParseQuery(
      "/descendant::line[string(.) = 'a' or "
      "count(analyze-string(., '<a>x</a>')) > 0][true()]");
  ASSERT_TRUE(analyze.ok());
  auto plan3 = xquery::PlanQuery((*analyze)->root(), stats, 1);
  const auto& steps3 = (*analyze)->root().steps;
  ASSERT_EQ(steps3.size(), 1u);
  auto it3 = plan3.steps.find(&steps3[0]);
  if (it3 != plan3.steps.end()) {
    EXPECT_TRUE(it3->second.predicate_order.empty());
  }
}

TEST(PlanCacheTest, ReplansOnlyOnVersionOrKeyChange) {
  xquery::PlanCache cache;
  auto e1 = xquery::ParseQuery("/descendant::w");
  auto e2 = xquery::ParseQuery("/descendant::line");
  ASSERT_TRUE(e1.ok() && e2.ok());
  int builds = 0;
  auto build = [&builds] {
    ++builds;
    return xquery::QueryPlan{};
  };
  const int doc_a = 0;
  const int doc_b = 0;

  auto p1 = cache.PlanFor(e1->get(), &doc_a, 1, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.plan_replans(), 1u);
  // Same (expr, doc, version): cached, same plan object.
  auto p1_again = cache.PlanFor(e1->get(), &doc_a, 1, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p1_again.get(), p1.get());
  // A commit bumps the version: exactly one replan.
  auto p2 = cache.PlanFor(e1->get(), &doc_a, 2, build);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(p2.get(), p1.get());
  // The old shared_ptr stays valid after the replan evicted it.
  EXPECT_EQ(p1->snapshot_version, 0u);
  // Distinct documents and distinct exprs plan separately.
  cache.PlanFor(e1->get(), &doc_b, 2, build);
  EXPECT_EQ(builds, 3);
  cache.PlanFor(e2->get(), &doc_a, 2, build);
  EXPECT_EQ(builds, 4);
  EXPECT_EQ(cache.plan_replans(), 4u);
}

// --- Engine surface ---------------------------------------------------------

TEST(PlannerTest, ExplainPlanNamesStrategiesAndKernel) {
  auto doc = BuildEdition(2000, 31);
  auto out = doc.engine()->ExplainPlan("/descendant::w/xancestor::dmg");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("plan version="), std::string::npos) << *out;
  EXPECT_NE(out->find("kernel="), std::string::npos) << *out;
  EXPECT_NE(out->find("strategy=arcs"), std::string::npos) << *out;
  EXPECT_NE(out->find("strategy=indexed"), std::string::npos) << *out;
  EXPECT_NE(out->find("pushdown=dmg"), std::string::npos) << *out;

  auto scan = doc.engine()->ExplainPlan("/descendant::w/xfollowing::line");
  ASSERT_TRUE(scan.ok());
  EXPECT_NE(scan->find("strategy=scan"), std::string::npos) << *scan;

  EXPECT_FALSE(doc.engine()->ExplainPlan("][").ok());
}

TEST(PlannerTest, PlanModesAreByteIdenticalAndCountersMove) {
  auto doc = BuildEdition(200, 23);
  const char* kQuery =
      "for $w in /descendant::w[xancestor::dmg or xdescendant::res or "
      "overlapping::dmg] return <m>{$w/xfollowing::line[1]}</m>";

  QueryOptions brute;
  brute.plan_mode = xquery::PlanMode::kForceSort;
  auto baseline = doc.Query(kQuery, brute);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  using xquery::PlanMode;
  for (PlanMode mode : {PlanMode::kAuto, PlanMode::kForceNaive,
                        PlanMode::kForceIndexed, PlanMode::kForceSort}) {
    QueryOptions options;
    options.plan_mode = mode;
    auto got = doc.Query(kQuery, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *baseline)
        << "plan mode " << xquery::PlanModeName(mode);
  }

  // The kAuto run above drove planned extended-axis steps: the strategy
  // counters moved, and the name tests rode into the probes/kernels.
  EXPECT_GT(doc.engine()->plan_steps_indexed() +
                doc.engine()->plan_steps_scanned(),
            0u);
  EXPECT_GT(doc.engine()->plan_pushdowns(), 0u);
}

}  // namespace
}  // namespace mhx
