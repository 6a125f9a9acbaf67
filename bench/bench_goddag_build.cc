// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Experiments E1/E2/E10 (DESIGN.md): KyGODDAG construction cost vs. edition
// size and number of hierarchies, plus the cost of virtual-hierarchy
// add/remove cycles (what every analyze-string() call pays).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "document.h"
#include "goddag/kygoddag.h"
#include "goddag/overlay.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xml/parser.h"

namespace {

using mhx::goddag::KyGoddag;

void BM_BuildPaperDocument(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = mhx::workload::BuildPaperDocument();
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_BuildPaperDocument);

void BM_BuildEdition_BySize(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = state.range(0);
  mhx::workload::Edition edition = mhx::workload::GenerateEdition(config);
  size_t bytes = edition.base_text.size();
  for (auto _ : state) {
    auto doc = mhx::workload::BuildEditionDocument(config);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes *
                          4);  // 4 encodings parsed per build
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildEdition_BySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Complexity();

void BM_BuildEdition_ByHierarchyCount(benchmark::State& state) {
  // 1..4 hierarchies over the same base text.
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = 800;
  mhx::workload::Edition e = mhx::workload::GenerateEdition(config);
  std::vector<std::pair<std::string, std::string>> all = {
      {"physical", e.physical_xml},
      {"structural", e.structural_xml},
      {"restoration", e.restoration_xml},
      {"condition", e.condition_xml},
  };
  int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mhx::MultihierarchicalDocument::Builder builder;
    builder.SetBaseText(e.base_text);
    for (int i = 0; i < count; ++i) {
      builder.AddHierarchy(all[i].first, all[i].second);
    }
    auto doc = builder.Build();
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_BuildEdition_ByHierarchyCount)->DenseRange(1, 4);

void BM_VirtualHierarchyCycle(benchmark::State& state) {
  // Add + remove a virtual hierarchy (the analyze-string() substrate) on a
  // bare clone of an edition of the given size. arg1 toggles incremental leaf maintenance
  // (the E10 ablation: patched splice vs. full partition rebuild).
  mhx::workload::EditionConfig config;
  config.seed = 5;
  config.word_count = state.range(0);
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  std::unique_ptr<KyGoddag> kg = doc->PinSnapshot()->goddag().Clone();
  kg->set_incremental_leaves(state.range(1) != 0);
  size_t n = kg->base_text().size();
  for (auto _ : state) {
    auto h = kg->AddVirtualHierarchy(
        "rest",
        {mhx::goddag::VirtualElement{"res", mhx::TextRange(n / 4, n / 2), {}},
         mhx::goddag::VirtualElement{"m", mhx::TextRange(n / 3, n / 2 - 1),
                                     {}}});
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());  // force rebuild
    if (!kg->RemoveVirtualHierarchy(*h).ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VirtualHierarchyCycle)
    ->ArgsProduct({{100, 400, 1600, 6400}, {0, 1}})
    ->Complexity();

void BM_XmlParseOnly(benchmark::State& state) {
  mhx::workload::EditionConfig config;
  config.seed = 3;
  config.word_count = state.range(0);
  mhx::workload::Edition e = mhx::workload::GenerateEdition(config);
  for (auto _ : state) {
    auto doc = mhx::xml::Parse(e.structural_xml);
    if (!doc.ok()) std::abort();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          e.structural_xml.size());
}
BENCHMARK(BM_XmlParseOnly)->Arg(400)->Arg(6400);

void BM_LeafPartitionRebuild(benchmark::State& state) {
  // Isolated cost of a full lazy leaf rebuild after a structural change
  // (incremental maintenance disabled; with it on, the change is a splice —
  // see BM_VirtualHierarchyCycle's ablation). Each iteration performs one
  // add + rebuild + remove + rebuild cycle, all timed.
  mhx::workload::EditionConfig config;
  config.seed = 5;
  config.word_count = state.range(0);
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  std::unique_ptr<KyGoddag> kg = doc->PinSnapshot()->goddag().Clone();
  kg->set_incremental_leaves(false);
  size_t n = kg->base_text().size();
  for (auto _ : state) {
    auto h = kg->AddVirtualHierarchy(
        "rest",
        {mhx::goddag::VirtualElement{"res", mhx::TextRange(1, n - 1), {}}});
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(kg->leaves().size());
    (void)kg->RemoveVirtualHierarchy(*h);
    benchmark::DoNotOptimize(kg->leaves().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeafPartitionRebuild)->Arg(400)->Arg(1600)->Arg(6400)->Complexity();

// --- E10 follow-up: OverlayView boundary splice, batched vs per-boundary --

// A fixed 6400-word edition plus one overlay carrying `boundaries` fresh
// cuts (arg 0): what an analyze-string() call with many matches queues on
// the evaluation's view before its first leaf() step.
struct SpliceFixture {
  std::unique_ptr<mhx::MultihierarchicalDocument> doc;
  std::shared_ptr<mhx::goddag::OverlayIdAllocator> ids;
  std::shared_ptr<const mhx::goddag::GoddagOverlay> overlay;
};

SpliceFixture* MakeSpliceFixture(size_t boundaries) {
  static auto* cache = new std::map<size_t, SpliceFixture*>();
  auto it = cache->find(boundaries);
  if (it != cache->end()) return it->second;
  auto* fx = new SpliceFixture();
  mhx::workload::EditionConfig config;
  config.seed = 7;
  config.word_count = 6400;
  auto doc = mhx::workload::BuildEditionDocument(config);
  if (!doc.ok()) std::abort();
  fx->doc = std::make_unique<mhx::MultihierarchicalDocument>(
      std::move(doc).value());
  fx->doc->goddag().leaves();  // materialise, as the engine does
  fx->ids = std::make_shared<mhx::goddag::OverlayIdAllocator>();
  // boundaries/2 disjoint elements, each contributing two interior cuts at
  // odd offsets (word cells are multi-character, so odd positions split).
  const size_t n = fx->doc->base_text().size();
  std::vector<mhx::goddag::VirtualElement> elements;
  const size_t count = boundaries / 2;
  const size_t stride = (n - 8) / (count + 1);
  if (stride < 4) std::abort();
  for (size_t i = 0; i < count; ++i) {
    const size_t begin = (1 + (i + 1) * stride) | 1;
    elements.push_back(
        mhx::goddag::VirtualElement{"m", mhx::TextRange(begin, begin + 2),
                                    {}});
  }
  auto overlay = mhx::goddag::GoddagOverlay::Create(
      &fx->doc->goddag(), fx->ids, "m", std::move(elements));
  if (!overlay.ok()) std::abort();
  fx->overlay = *overlay;
  (*cache)[boundaries] = fx;
  return fx;
}

// The shipped path: OverlayView::leaves() drains all queued boundaries in
// one batched sorted merge pass — O(partition + N).
void BM_OverlaySplice_Batched(benchmark::State& state) {
  SpliceFixture* fx = MakeSpliceFixture(state.range(0));
  size_t cells = 0;
  for (auto _ : state) {
    mhx::goddag::OverlayView view(&fx->doc->goddag());
    view.AddOverlay(fx->overlay);
    cells = view.leaves().size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["merged_cells"] = static_cast<double>(cells);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OverlaySplice_Batched)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Complexity();

// The pre-batching algorithm, reproduced here as the ablation baseline:
// one binary search + vector insert per boundary, O(partition) each —
// O(partition * N) per drain. The batched path must beat this from ~64
// boundaries up.
void BM_OverlaySplice_PerBoundaryInsert(benchmark::State& state) {
  SpliceFixture* fx = MakeSpliceFixture(state.range(0));
  const auto& base_leaves = fx->doc->goddag().leaves();
  const size_t n = fx->doc->base_text().size();
  size_t cells = 0;
  for (auto _ : state) {
    std::vector<mhx::goddag::Leaf> merged = base_leaves;
    const auto& overlay = *fx->overlay;
    for (mhx::goddag::NodeId id = overlay.root(); id < overlay.id_end();
         ++id) {
      const mhx::TextRange& range = overlay.node(id).range;
      for (size_t pos : {range.begin, range.end}) {
        if (pos == 0 || pos >= n) continue;
        auto it = std::upper_bound(
            merged.begin(), merged.end(), pos,
            [](size_t p, const mhx::goddag::Leaf& leaf) {
              return p < leaf.range.end;
            });
        if (it == merged.end() || it->range.begin >= pos) continue;
        const size_t leaf_end = it->range.end;
        it->range.end = pos;
        merged.insert(it + 1, mhx::goddag::Leaf{mhx::TextRange(pos, leaf_end)});
      }
    }
    cells = merged.size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["merged_cells"] = static_cast<double>(cells);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OverlaySplice_PerBoundaryInsert)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
