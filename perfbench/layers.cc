// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Direct timed calls into each layer's public functions, made on the
// workload's own generated editions and query texts (the traced run's third
// view of the layers, next to the QueryTrace spans and the registry deltas).
// Every figure is the median over repeated calls, so one preempted call does
// not move it.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "document.h"
#include "goddag/persist.h"
#include "regex/regex.h"
#include "workload/generator.h"
#include "xml/parser.h"
#include "xpath/axes.h"
#include "xpath/kernels.h"
#include "xquery/parser.h"

namespace perfbench {
namespace {

using mhx::xpath::Axis;

constexpr size_t kMaxEditions = 4;   // editions probed per workload
constexpr size_t kMaxContexts = 64;  // context nodes per axis probe
constexpr size_t kMaxTexts = 16;     // query texts / patterns probed
constexpr int kReps = 5;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nanoseconds one call of `fn` takes.
template <typename Fn>
double TimeNs(Fn&& fn) {
  const uint64_t start = NowNs();
  fn();
  return static_cast<double>(NowNs() - start);
}

const struct {
  Axis axis;
  const char* name;
} kExtendedAxes[] = {
    {Axis::kXAncestor, "xancestor"},   {Axis::kXDescendant, "xdescendant"},
    {Axis::kOverlapping, "overlapping"}, {Axis::kXFollowing, "xfollowing"},
    {Axis::kXPreceding, "xpreceding"},
};

// Up to kMaxContexts `w` elements of the structural hierarchy, evenly
// spaced through the text.
std::vector<mhx::goddag::NodeId> WordContexts(const mhx::goddag::KyGoddag& g) {
  std::vector<mhx::goddag::NodeId> words;
  for (mhx::goddag::NodeId id : g.hierarchy(1).nodes) {
    if (g.node(id).name == "w") words.push_back(id);
  }
  std::vector<mhx::goddag::NodeId> picked;
  const size_t step = std::max<size_t>(1, words.size() / kMaxContexts);
  for (size_t i = 0; i < words.size() && picked.size() < kMaxContexts;
       i += step) {
    picked.push_back(words[i]);
  }
  return picked;
}

}  // namespace

void MeasureLayers(const Workload& w, uint64_t seed,
                   const std::vector<QueryText>& texts,
                   const std::string& scratch_dir, JsonWriter* out) {
  std::error_code ec;
  std::filesystem::create_directories(scratch_dir, ec);
  if (ec) Die("cannot create " + scratch_dir);

  std::vector<double> parse_ns_per_byte, build_ms_per_kword, commit_ms;
  std::vector<double> serialize_us, write_us, load_us, arena_bytes;
  std::vector<double> probe_us[5], kernel_ns_per_interval[5];
  double kernel_tested = 0, kernel_matched = 0;
  std::vector<double> findall_ns_per_byte;

  // The regex patterns the workload's II.1 texts use.
  std::vector<std::string> patterns;
  for (const QueryText& t : texts) {
    if (t.cls == kII1 && patterns.size() < kMaxTexts) {
      patterns.push_back(".*" + t.term + ".*");
    }
  }

  const size_t editions = std::min(w.editions, kMaxEditions);
  for (size_t e = 0; e < editions; ++e) {
    const auto config = EditionConfigFor(w, seed, e);
    const mhx::workload::Edition edition =
        mhx::workload::GenerateEdition(config);
    const std::string* xmls[] = {&edition.physical_xml,
                                 &edition.structural_xml,
                                 &edition.restoration_xml,
                                 &edition.condition_xml};
    size_t xml_bytes = 0;
    for (const std::string* xml : xmls) xml_bytes += xml->size();

    // xml: the four hierarchy encodings.
    for (int r = 0; r < kReps; ++r) {
      const double ns = TimeNs([&] {
        for (const std::string* xml : xmls) {
          if (!mhx::xml::Parse(*xml).ok()) Die("xml parse");
        }
      });
      parse_ns_per_byte.push_back(ns / static_cast<double>(xml_bytes));
    }

    // goddag: Builder::Build (parse + merge + snapshot publication).
    std::unique_ptr<mhx::MultihierarchicalDocument> doc;
    for (int r = 0; r < kReps; ++r) {
      mhx::MultihierarchicalDocument::Builder builder;
      builder.SetBaseText(edition.base_text);
      builder.AddHierarchy("physical", edition.physical_xml);
      builder.AddHierarchy("structural", edition.structural_xml);
      builder.AddHierarchy("restoration", edition.restoration_xml);
      builder.AddHierarchy("condition", edition.condition_xml);
      mhx::StatusOr<mhx::MultihierarchicalDocument> built =
          mhx::InternalError("unbuilt");
      const double ns = TimeNs([&] { built = builder.Build(); });
      if (!built.ok()) Die("build: " + built.status().ToString());
      build_ms_per_kword.push_back(ns / 1e6 /
                                   (static_cast<double>(w.words) / 1000.0));
      doc = std::make_unique<mhx::MultihierarchicalDocument>(
          std::move(built).value());
    }

    // xpath: index probes and kernel scans from word contexts.
    auto snapshot = doc->PinSnapshot();
    snapshot->EnsureIndex();
    snapshot->EnsureStats();
    const mhx::goddag::KyGoddag& g = snapshot->goddag();
    const std::vector<mhx::goddag::NodeId> contexts = WordContexts(g);
    const mhx::xpath::AxisEvaluator axes(snapshot.get(),
                                         mhx::xpath::AxisOptions{true});
    const mhx::goddag::RangeSoA& soa = snapshot->stats().soa();
    std::vector<mhx::goddag::NodeId> hits;
    for (size_t a = 0; a < 5; ++a) {
      const Axis axis = kExtendedAxes[a].axis;
      for (mhx::goddag::NodeId ctx : contexts) {
        probe_us[a].push_back(TimeNs([&] {
                                hits = axes.Evaluate(
                                    ctx, axis, mhx::xpath::NodeTest::Any());
                              }) /
                              1e3);
        hits.clear();
        const double ns = TimeNs([&] {
          mhx::xpath::ScanExtendedAxis(soa, axis, g.node(ctx).range, ctx,
                                       mhx::goddag::kNoNameKey,
                                       mhx::xpath::KernelIsa::kAuto, &hits);
        });
        if (soa.size() > 0) {
          kernel_ns_per_interval[a].push_back(
              ns / static_cast<double>(soa.size()));
        }
        kernel_tested += static_cast<double>(soa.size());
        kernel_matched += static_cast<double>(hits.size());
      }
    }

    // regex: FindAll over every word of the base text.
    std::vector<std::string> words;
    size_t word_bytes = 0;
    for (size_t pos = 0; pos < edition.base_text.size();) {
      size_t end = edition.base_text.find(' ', pos);
      if (end == std::string::npos) end = edition.base_text.size();
      words.push_back(edition.base_text.substr(pos, end - pos));
      word_bytes += end - pos;
      pos = end + 1;
    }
    for (const std::string& pattern : patterns) {
      auto re = mhx::regex::Regex::Compile(pattern);
      if (!re.ok()) Die("regex compile: " + re.status().ToString());
      size_t matches = 0;
      const double ns = TimeNs([&] {
        for (const std::string& word : words) {
          matches += re->FindAll(word).size();
        }
      });
      findall_ns_per_byte.push_back(ns / static_cast<double>(word_bytes));
      if (matches > words.size()) Die("regex: more matches than words");
    }

    // persist: serialise, write, load back.
    const std::string path =
        scratch_dir + "/edition-" + std::to_string(e) + ".mhxa";
    for (int r = 0; r < kReps; ++r) {
      serialize_us.push_back(TimeNs([&] {
                               if (!mhx::goddag::SerializeSnapshot(*snapshot)
                                        .ok()) {
                                 Die("serialize");
                               }
                             }) /
                             1e3);
      write_us.push_back(TimeNs([&] {
                           if (!mhx::goddag::WriteSnapshotFile(*snapshot, path)
                                    .ok()) {
                             Die("write arena");
                           }
                         }) /
                         1e3);
      mhx::StatusOr<mhx::goddag::MappedSnapshot> mapped =
          mhx::InternalError("unloaded");
      load_us.push_back(
          TimeNs([&] { mapped = mhx::goddag::LoadSnapshotFile(path); }) / 1e3);
      if (!mapped.ok()) Die("load arena: " + mapped.status().ToString());
      arena_bytes.push_back(static_cast<double>(mapped->arena_bytes));
    }

    // goddag: Writer::Commit without spill, alternating add and remove.
    for (int r = 0; r < 2 * kReps; ++r) {
      auto writer = doc->NewWriter();
      if (r % 2 == 0) {
        writer.AddVirtualHierarchy(kChurnHierarchy, ChurnElements());
      } else {
        writer.RemoveVirtualHierarchy(kChurnHierarchy);
      }
      mhx::StatusOr<uint64_t> version = mhx::InternalError("uncommitted");
      commit_ms.push_back(TimeNs([&] { version = writer.Commit(); }) / 1e6);
      if (!version.ok()) Die("commit: " + version.status().ToString());
    }
  }

  // xquery: ParseQuery over the workload's texts; regex: Compile over its
  // patterns.
  std::vector<double> parse_query_us, compile_us;
  for (size_t t = 0; t < texts.size() && t < kMaxTexts; ++t) {
    for (int r = 0; r < kReps; ++r) {
      parse_query_us.push_back(
          TimeNs([&] {
            if (!mhx::xquery::ParseQuery(texts[t].text).ok()) {
              Die("query parse");
            }
          }) /
          1e3);
    }
  }
  for (const std::string& pattern : patterns) {
    for (int r = 0; r < kReps; ++r) {
      compile_us.push_back(TimeNs([&] {
                             if (!mhx::regex::Regex::Compile(pattern).ok()) {
                               Die("regex compile");
                             }
                           }) /
                           1e3);
    }
  }

  out->Field("xml.parse_ns_per_byte", Median(parse_ns_per_byte));
  out->Field("goddag.build_ms_per_kword", Median(build_ms_per_kword));
  out->Field("goddag.commit_ms", Median(commit_ms));
  out->Field("xquery.parse_query_us", Median(parse_query_us));
  for (size_t a = 0; a < 5; ++a) {
    out->Field(std::string("xpath.probe_us.") + kExtendedAxes[a].name,
               Median(probe_us[a]));
    out->Field(std::string("xpath.kernel_ns_per_interval.") +
                   kExtendedAxes[a].name,
               Median(kernel_ns_per_interval[a]));
  }
  out->Field("xpath.kernel_selectivity",
             kernel_tested > 0 ? kernel_matched / kernel_tested : 0.0);
  out->Field("regex.compile_us", Median(compile_us));
  out->Field("regex.findall_ns_per_byte", Median(findall_ns_per_byte));
  out->Field("persist.serialize_us", Median(serialize_us));
  out->Field("persist.write_us", Median(write_us));
  out->Field("persist.load_us", Median(load_us));
  out->Field("persist.arena_bytes", Median(arena_bytes));
}

}  // namespace perfbench
