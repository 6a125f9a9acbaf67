// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// The repository benchmark's load driver. One process drives one workload
// (see README.md) through the public mhx:: API:
//
//   set-up     register the seeded editions with a fresh CorpusService,
//              warm it, and build independent reference copies, timing
//              each set-up (setup_s is their median);
//   timed      closed-loop clients issue the workload's Section-4 query mix
//              (and, on churn-write, a writer client commits and removes a
//              virtual hierarchy once per kReadsPerWrite reads, with no read
//              in flight — see WriteGate) for --seconds in all, cut into
//              five segments, each on the service of the set-ups just
//              before it; every operation's latency and outcome is kept as
//              a raw sample;
//   probe      on read-only workloads, a quiesced commit burst after each
//              read segment, so every workload reports commit latency;
//   verify     every distinct (edition, query text, output) seen is checked
//              byte-identical against a serial evaluation on the reference
//              copy (either per-version reference on churn-write), and the
//              Figure-1 document against the pinned kExpected* outputs.
//
// With --trace 1 the timed phase runs twice on fresh services, untraced and
// then with an obs::QueryTrace on every query (spans kept in memory), the
// registry is exported before and after the traced phase, and the direct
// layer probes of layers.cc run. Everything lands in one raw JSON file
// (--out) that run.py reduces into the printed metrics. Exit status: 0 when
// every check passed, 3 on any failed or mismatched operation, 2 on a
// set-up error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "corpus/corpus.h"
#include "goddag/persist.h"
#include "obs/trace.h"
#include "workload/generator.h"
#include "workload/paper_data.h"
#include "xpath/kernels.h"
#include "xquery/serialize.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mhx::MultihierarchicalDocument;
using mhx::QueryOptions;
using mhx::corpus::CorpusOptions;
using mhx::corpus::CorpusService;

constexpr double kSetupSeconds = 2.5;  // least time spent in set-ups
constexpr size_t kMaxMessages = 8;
constexpr double kProbeSeconds = 3;  // cap on the quiesced commit bursts
constexpr int kRounds = 5;  // set-up rounds / read segments / commit bursts
// On writer workloads the writer commits once per this many completed reads.
constexpr uint64_t kReadsPerWrite = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string scratch;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.scratch.empty() ||
      args.seconds <= 0) {
    Die("usage: mhx_perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--out FILE --scratch DIR");
  }
  return args;
}

// --- Set-up ------------------------------------------------------------------

// A fresh service over the workload's editions plus the independently built
// reference copies its answers are checked against.
struct Harness {
  const Workload* w = nullptr;
  const std::vector<QueryText>* texts = nullptr;
  std::vector<std::string> names;
  std::unique_ptr<CorpusService> corpus;
  QueryOptions query_options;
  // [0]: each edition as generated; [1]: with the churn hierarchy committed
  // (writer workloads only — the two versions a reader may observe).
  std::vector<std::unique_ptr<MultihierarchicalDocument>> ref_docs[2];
  // (version, edition, text) -> serial reference output, filled at set-up
  // where the texts are few; the rest are evaluated during verification.
  std::map<std::tuple<int, size_t, size_t>, std::string> refs;
};

std::unique_ptr<MultihierarchicalDocument> BuildReference(
    const mhx::workload::EditionConfig& config, bool with_churn) {
  auto built = mhx::workload::BuildEditionDocument(config);
  if (!built.ok()) Die("reference build: " + built.status().ToString());
  auto doc = std::make_unique<MultihierarchicalDocument>(
      std::move(built).value());
  if (with_churn) {
    auto writer = doc->NewWriter();
    writer.AddVirtualHierarchy(kChurnHierarchy, ChurnElements());
    auto version = writer.Commit();
    if (!version.ok()) Die("reference commit: " + version.status().ToString());
  }
  return doc;
}

std::unique_ptr<Harness> SetUp(const Workload& w, uint64_t seed,
                               const std::vector<QueryText>& texts,
                               const std::string& spill_dir) {
  auto h = std::make_unique<Harness>();
  h->w = &w;
  h->texts = &texts;
  h->query_options.threads = w.query_threads;

  CorpusOptions options;
  options.capacity = w.capacity;
  options.pool_threads = w.pool_threads;
  options.max_heavy_in_flight = 2;
  options.heavy_queue_limit = 16;
  options.max_writers_in_flight = 1;
  options.writer_queue_limit = 4;
  if (w.spill) {
    // A fresh directory per set-up: no arena of an earlier one is reused.
    std::error_code ec;
    fs::remove_all(spill_dir, ec);
    fs::create_directories(spill_dir, ec);
    if (ec) Die("cannot create " + spill_dir);
    options.spill_dir = spill_dir;
  }
  h->corpus = std::make_unique<CorpusService>(options);
  for (size_t e = 0; e < w.editions; ++e) {
    h->names.push_back("edition-" + std::to_string(e));
    auto st = h->corpus->Register(h->names[e], EditionConfigFor(w, seed, e));
    if (!st.ok()) Die("register: " + st.ToString());
  }
  // Warm: read-only workloads touch every (edition, text) so documents,
  // indexes and plans are resident; churn-write touches every edition once
  // so each has a spilled arena, leaving its search-term texts cold.
  for (size_t e = 0; e < w.editions; ++e) {
    for (size_t t = 0; t < texts.size(); ++t) {
      if (w.writer && texts[t].cls != kI2) continue;
      auto out = h->corpus->Query(h->names[e], texts[t].text, h->query_options);
      if (!out.ok()) Die("warm-up query: " + out.status().ToString());
    }
  }
  for (size_t e = 0; e < w.editions; ++e) {
    const auto config = EditionConfigFor(w, seed, e);
    h->ref_docs[0].push_back(BuildReference(config, false));
    if (w.writer) h->ref_docs[1].push_back(BuildReference(config, true));
  }
  if (!w.writer) {
    for (size_t e = 0; e < w.editions; ++e) {
      for (size_t t = 0; t < texts.size(); ++t) {
        auto out = h->ref_docs[0][e]->Query(texts[t].text);
        if (!out.ok()) Die("reference query: " + out.status().ToString());
        h->refs[{0, e, t}] = std::move(out).value();
      }
    }
  }
  return h;
}

// --- Timed phase -------------------------------------------------------------

struct OpRecord {
  uint32_t client = 0;
  uint32_t cls = 0;
  uint32_t edition = 0;
  uint32_t text = 0;
  uint64_t begin_ns = 0;  // since phase start
  uint64_t latency_ns = 0;
  bool ok = false;
  uint64_t out_bytes = 0;
};

struct CommitRecord {
  uint64_t begin_ns = 0;
  uint64_t latency_ns = 0;
  bool ok = false;
};

// A QueryTrace span moved onto the phase clock, tagged with its operation.
struct SpanRecord {
  uint64_t op = 0;  // index into PhaseResult::ops
  mhx::obs::QueryTrace::Span span;
};

// Distinct outputs seen for one (edition, text) key, with multiplicity.
struct Seen {
  size_t hash = 0;
  std::string output;
  uint64_t count = 0;
};
using SeenMap = std::unordered_map<uint64_t, std::vector<Seen>>;

void NoteSeen(SeenMap* seen, uint64_t key, const std::string& output,
              uint64_t count = 1) {
  const size_t hash = std::hash<std::string_view>{}(output);
  std::vector<Seen>& outputs = (*seen)[key];
  for (Seen& s : outputs) {
    if (s.hash == hash && s.output == output) {
      s.count += count;
      return;
    }
  }
  outputs.push_back({hash, output, count});
}

struct PhaseResult {
  bool traced = false;
  double seconds = 0;
  std::vector<OpRecord> ops;
  std::vector<CommitRecord> commits;
  std::vector<SpanRecord> spans;
  SeenMap seen;
  std::vector<std::string> errors;  // first few non-OK statuses
  std::string registry_before;
  std::string registry_after;
};

// Seeded choice of (class, edition, text) per read.
class OpPicker {
 public:
  OpPicker(const Workload& w, const std::vector<QueryText>& texts) : w_(w) {
    for (size_t t = 0; t < texts.size(); ++t) {
      by_class_[texts[t].cls].push_back(t);
    }
    double total = 0;
    for (size_t e = 0; e < w.editions; ++e) {
      total += w.zipf ? 1.0 / static_cast<double>(e + 1) : 1.0;
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Edition(uint64_t h) const {
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), w_.editions - 1);
  }

  OpRecord Next(uint64_t* state) const {
    const uint64_t h = Mix((*state)++);
    OpRecord op;
    int roll = static_cast<int>(h % 100);
    while (roll >= w_.mix[op.cls]) roll -= w_.mix[op.cls++];
    op.edition = static_cast<uint32_t>(Edition(Mix(h ^ 0xed)));
    const std::vector<size_t>& choices = by_class_[op.cls];
    op.text = static_cast<uint32_t>(choices[Mix(h ^ 0x7e) % choices.size()]);
    return op;
  }

 private:
  const Workload& w_;
  std::vector<size_t> by_class_[kClassCount];
  std::vector<double> cdf_;
};

struct ClientLog {
  std::vector<OpRecord> ops;
  // Per op, its trace spans on the phase clock (empty when untraced).
  std::vector<std::vector<mhx::obs::QueryTrace::Span>> op_spans;
  std::vector<CommitRecord> commits;
  SeenMap seen;
  std::vector<std::string> errors;
};

void RecordError(ClientLog* log, const std::string& what) {
  if (log->errors.size() < kMaxMessages) log->errors.push_back(what);
}

// Keeps each corpus write apart from the reads on writer workloads, and
// paces the writer to one write per kReadsPerWrite completed reads.
//
// CorpusService can lose a write that overlaps a residency change:
// MutateDocument commits onto the instance it pinned, and when the LRU
// evicts that instance and a reader re-admits the edition from its spilled
// arena before the commit has persisted, the resident instance keeps the
// pre-commit version (README.md, "Known defect"). A write that starts only
// when no read is in flight, and holds new reads back until it returns,
// overlaps no eviction and no re-admission. A disabled gate lets the writer
// run back to back alongside the readers, which reproduces the defect.
class WriteGate {
 public:
  explicit WriteGate(bool enabled) : enabled_(enabled) {}

  void BeginRead() {
    if (!enabled_) return;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !writing_; });
    ++reading_;
  }

  void EndRead() {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    --reading_;
    ++reads_done_;
    cv_.notify_all();
  }

  // Waits until `reads` reads have completed in all, then holds new reads
  // back and waits for the ones in flight. False once `deadline` passes.
  bool BeginWrite(uint64_t reads, uint64_t deadline) {
    if (!enabled_) return NowNs() < deadline;
    const std::chrono::steady_clock::time_point until(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(deadline)));
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_until(lock, until, [&] { return reads_done_ >= reads; })) {
      return false;
    }
    writing_ = true;
    cv_.wait(lock, [&] { return reading_ == 0; });
    return true;
  }

  void EndWrite() {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    writing_ = false;
    cv_.notify_all();
  }

 private:
  const bool enabled_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t reading_ = 0;
  uint64_t reads_done_ = 0;
  bool writing_ = false;
};

void RunReader(const Harness& h, const OpPicker& picker, uint32_t client,
               uint64_t seed, bool traced, WriteGate* gate,
               uint64_t phase_begin, uint64_t deadline, ClientLog* log) {
  uint64_t state = Mix(seed * 7919 + client);
  const size_t text_count = h.texts->size();
  while (NowNs() < deadline) {
    OpRecord op = picker.Next(&state);
    op.client = client;
    QueryOptions options = h.query_options;
    std::optional<mhx::obs::QueryTrace> trace;
    if (traced) {
      trace.emplace();
      options.trace = &*trace;
    }
    gate->BeginRead();
    const uint64_t trace_zero = traced ? trace->NowNs() : 0;
    const uint64_t start = NowNs();
    auto out = h.corpus->Query(h.names[op.edition],
                               (*h.texts)[op.text].text, options);
    op.latency_ns = NowNs() - start;
    gate->EndRead();
    op.begin_ns = start - phase_begin;
    op.ok = out.ok();
    if (out.ok()) {
      op.out_bytes = out->size();
      NoteSeen(&log->seen, op.edition * text_count + op.text, *out);
    } else {
      RecordError(log, out.status().ToString());
    }
    std::vector<mhx::obs::QueryTrace::Span> spans;
    if (traced) {
      // Move every span onto the phase clock: the trace read `trace_zero`
      // just before `start`.
      spans = trace->spans();
      for (auto& span : spans) {
        span.begin_ns = op.begin_ns + (span.begin_ns - trace_zero);
        span.end_ns = op.begin_ns + (span.end_ns - trace_zero);
      }
    }
    log->ops.push_back(op);
    log->op_spans.push_back(std::move(spans));
  }
}

// One commit through the corpus write path: adds (or removes) the churn
// hierarchy on edition `e`. Returns whether it succeeded.
bool Commit(const Harness& h, size_t e, bool add, uint64_t phase_begin,
            ClientLog* log) {
  CommitRecord c;
  const uint64_t start = NowNs();
  auto version =
      add ? h.corpus->CommitVirtualHierarchy(h.names[e], kChurnHierarchy,
                                             ChurnElements())
          : h.corpus->RemoveVirtualHierarchy(h.names[e], kChurnHierarchy);
  c.latency_ns = NowNs() - start;
  c.begin_ns = start - phase_begin;
  c.ok = version.ok();
  if (!version.ok()) {
    RecordError(log, std::string(add ? "commit" : "remove") + " on " +
                         h.names[e] + ": " + version.status().ToString());
  }
  log->commits.push_back(c);
  return c.ok;
}

// The writer client: alternately commits and removes the churn hierarchy
// on editions chosen by `pick`, as `gate` lets it, until `deadline`.
template <typename Pick>
void RunWriter(const Harness& h, Pick pick, WriteGate* gate,
               uint64_t phase_begin, uint64_t deadline, ClientLog* log) {
  std::vector<bool> present(h.w->editions, false);
  for (uint64_t reads = kReadsPerWrite; gate->BeginWrite(reads, deadline);
       reads += kReadsPerWrite) {
    const size_t e = pick();
    if (Commit(h, e, !present[e], phase_begin, log)) present[e] = !present[e];
    gate->EndWrite();
  }
}

PhaseResult RunPhase(const Harness& h, double seconds, bool traced,
                     uint64_t seed) {
  const Workload& w = *h.w;
  PhaseResult result;
  result.traced = traced;
  if (traced) result.registry_before = h.corpus->metrics().JsonExport();
  const OpPicker picker(w, *h.texts);
  const size_t clients = w.readers + (w.writer ? 1 : 0);
  std::vector<ClientLog> logs(clients);
  WriteGate gate(w.writer);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> phase_begin{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t begin = phase_begin.load();
      const uint64_t deadline =
          begin + static_cast<uint64_t>(seconds * 1e9);
      if (c < w.readers) {
        RunReader(h, picker, static_cast<uint32_t>(c), seed, traced, &gate,
                  begin, deadline, &logs[c]);
      } else {
        uint64_t state = Mix(seed * 104729 + 17);
        RunWriter(
            h, [&] { return picker.Edition(Mix(state++)); }, &gate, begin,
            deadline, &logs[c]);
      }
    });
  }
  const uint64_t begin = NowNs();
  phase_begin.store(begin);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  result.seconds = static_cast<double>(NowNs() - begin) / 1e9;
  if (traced) result.registry_after = h.corpus->metrics().JsonExport();

  for (ClientLog& log : logs) {
    for (size_t i = 0; i < log.ops.size(); ++i) {
      for (auto& span : log.op_spans[i]) {
        result.spans.push_back({result.ops.size(), std::move(span)});
      }
      result.ops.push_back(log.ops[i]);
    }
    result.commits.insert(result.commits.end(), log.commits.begin(),
                          log.commits.end());
    for (auto& [key, outputs] : log.seen) {
      for (Seen& s : outputs) NoteSeen(&result.seen, key, s.output, s.count);
    }
    for (std::string& e : log.errors) {
      if (result.errors.size() < kMaxMessages) {
        result.errors.push_back(std::move(e));
      }
    }
  }
  return result;
}

// Quiesced commit latency for the read-only workloads: one writer, no
// readers, an add-then-remove pair per edition in turn, so every edition is
// back at its generated version when the burst ends.
void CommitBurst(const Harness& h, double seconds, ClientLog* log) {
  const uint64_t begin = NowNs();
  const uint64_t deadline = begin + static_cast<uint64_t>(seconds * 1e9);
  for (size_t e = 0; NowNs() < deadline; e = (e + 1) % h.w->editions) {
    Commit(h, e, true, begin, log);
    Commit(h, e, false, begin, log);
  }
}

// Appends `part` (a later read segment of the same run) to `into`.
void AppendPhase(PhaseResult part, PhaseResult* into) {
  const uint64_t offset = static_cast<uint64_t>(into->seconds * 1e9);
  for (OpRecord op : part.ops) {
    op.begin_ns += offset;
    into->ops.push_back(op);
  }
  for (CommitRecord c : part.commits) {
    c.begin_ns += offset;
    into->commits.push_back(c);
  }
  into->seconds += part.seconds;
  for (auto& [key, outputs] : part.seen) {
    for (Seen& s : outputs) NoteSeen(&into->seen, key, s.output, s.count);
  }
  for (std::string& e : part.errors) {
    if (into->errors.size() < kMaxMessages) {
      into->errors.push_back(std::move(e));
    }
  }
}

// --- Verification ------------------------------------------------------------

struct Verdict {
  uint64_t failed = 0;
  std::vector<std::string> messages;
};

// Checks every distinct output in `seen` against the serial references;
// on writer workloads an output may match either version's reference.
Verdict Verify(const Harness& h, const SeenMap& seen) {
  std::vector<const SeenMap::value_type*> keys;
  for (const auto& entry : seen) keys.push_back(&entry);
  const size_t text_count = h.texts->size();
  auto reference = [&](int version, size_t e, size_t t) {
    auto it = h.refs.find({version, e, t});
    if (it != h.refs.end()) return it->second;
    auto out = h.ref_docs[version][e]->Query((*h.texts)[t].text);
    return out.ok() ? std::move(out).value()
                    : "<reference error: " + out.status().ToString() + ">";
  };
  std::atomic<size_t> next{0};
  std::mutex mu;
  Verdict verdict;
  auto work = [&] {
    for (size_t i = next++; i < keys.size(); i = next++) {
      const uint64_t key = keys[i]->first;
      const size_t e = key / text_count;
      const size_t t = key % text_count;
      const std::string ref0 = reference(0, e, t);
      std::optional<std::string> ref1;
      for (const Seen& s : keys[i]->second) {
        if (s.output == ref0) continue;
        if (h.w->writer) {
          if (!ref1) ref1 = reference(1, e, t);
          if (s.output == *ref1) continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        verdict.failed += s.count;
        if (verdict.messages.size() < kMaxMessages) {
          verdict.messages.push_back(
              "mismatch: " + h.names[e] + " " + kClassNames[(*h.texts)[t].cls] +
              " term '" + (*h.texts)[t].term + "' (" +
              std::to_string(s.output.size()) + " bytes vs reference " +
              std::to_string(ref0.size()) + ")");
        }
      }
    }
  };
  std::vector<std::thread> threads;
  const unsigned n =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return verdict;
}

// The Figure-1 document against the paper's pinned outputs.
Verdict CheckFigure1() {
  Verdict verdict;
  auto doc = mhx::workload::BuildPaperDocument();
  if (!doc.ok()) {
    verdict.failed = 4;
    verdict.messages.push_back("figure 1 build: " + doc.status().ToString());
    return verdict;
  }
  using mhx::xquery::CoalesceRuns;
  namespace wl = mhx::workload;
  const struct {
    const char* name;
    const char* query;
    const char* expected;
    bool coalesce;
  } checks[] = {
      {"I.1", wl::kQueryI1, wl::kExpectedI1, false},
      {"I.2", wl::kQueryI2, wl::kExpectedI2, false},
      {"II.1", wl::kQueryII1, wl::kExpectedII1Coalesced, true},
      {"III.1", wl::kQueryIII1Intent, wl::kExpectedIII1IntentCoalesced, true},
  };
  for (const auto& check : checks) {
    auto out = doc->Query(check.query);
    const bool ok = out.ok() && (check.coalesce ? CoalesceRuns(*out)
                                                : *out) == check.expected;
    if (!ok) {
      ++verdict.failed;
      verdict.messages.push_back(std::string("figure 1 ") + check.name +
                                 " differs from the pinned output");
    }
  }
  return verdict;
}

// --- Output ------------------------------------------------------------------

void WriteStamp(JsonWriter* j) {
  j->Key("stamp").BeginObject();
  j->Field("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j->Field("compiler", "gcc " __VERSION__);
  j->Field("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j->Field("ndebug", true);
#else
  j->Field("ndebug", false);
#endif
  j->Field("kernel_isa", std::string(mhx::xpath::KernelIsaName(
                             mhx::xpath::DispatchedKernelIsa())));
  j->EndObject();
}

void WriteCommits(JsonWriter* j, const std::vector<CommitRecord>& commits) {
  j->BeginArray();
  for (const CommitRecord& c : commits) {
    j->BeginArray().Value(c.begin_ns).Value(c.latency_ns).Value(c.ok);
    j->EndArray();
  }
  j->EndArray();
}

void WritePhase(JsonWriter* j, const PhaseResult& p) {
  j->BeginObject();
  j->Field("traced", p.traced);
  j->Field("seconds", p.seconds);
  // [client, class, edition, text, begin_ns, latency_ns, ok, out_bytes]
  j->Key("ops").BeginArray();
  for (const OpRecord& op : p.ops) {
    j->BeginArray()
        .Value(static_cast<uint64_t>(op.client))
        .Value(static_cast<uint64_t>(op.cls))
        .Value(static_cast<uint64_t>(op.edition))
        .Value(static_cast<uint64_t>(op.text))
        .Value(op.begin_ns)
        .Value(op.latency_ns)
        .Value(op.ok)
        .Value(op.out_bytes);
    j->EndArray();
  }
  j->EndArray();
  // [begin_ns, latency_ns, ok]
  j->Key("commits");
  WriteCommits(j, p.commits);
  // [op, name, slot span?, begin_ns, end_ns, slot, bindings, steals]
  j->Key("spans").BeginArray();
  for (const SpanRecord& s : p.spans) {
    j->BeginArray()
        .Value(s.op)
        .Value(s.span.name)
        .Value(s.span.kind == mhx::obs::QueryTrace::SpanKind::kSlot)
        .Value(s.span.begin_ns)
        .Value(s.span.end_ns)
        .Value(s.span.slot)
        .Value(s.span.bindings)
        .Value(s.span.steals);
    j->EndArray();
  }
  j->EndArray();
  if (p.traced) {
    j->Key("registry_before").Raw(p.registry_before);
    j->Key("registry_after").Raw(p.registry_after);
  }
  j->EndObject();
}

// Arena bytes of every edition's current version — what the spill directory
// holds on a spilling workload — and the base-text bytes they encode.
std::pair<uint64_t, uint64_t> ArenaAndTextBytes(const Harness& h) {
  uint64_t arena = 0, text = 0;
  for (const std::string& name : h.names) {
    auto doc = h.corpus->Pin(name);
    if (!doc.ok()) Die("pin: " + doc.status().ToString());
    auto bytes = mhx::goddag::SerializeSnapshot(*(*doc)->PinSnapshot());
    if (!bytes.ok()) Die("serialize: " + bytes.status().ToString());
    arena += bytes->size();
    text += (*doc)->base_text().size();
  }
  return {arena, text};
}

uint64_t PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload " + args.workload);
  const std::vector<QueryText> texts = QueryTextsFor(*w, args.seed);
  const std::string spill_dir = args.scratch + "/spill";

  JsonWriter j;
  j.BeginObject();
  WriteStamp(&j);
  j.Field("workload", w->name).Field("seed", args.seed);
  j.Field("trace", args.trace).Field("seconds", args.seconds);
  j.Field("query_threads", static_cast<uint64_t>(w->query_threads));

  std::vector<PhaseResult> phases;
  std::vector<CommitRecord> probe;
  double probe_seconds = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  uint64_t arena_bytes = 0;
  uint64_t text_bytes = 0;
  Verdict mismatches;
  auto verify = [&](const Harness& h, const PhaseResult& p) {
    Verdict v = Verify(h, p.seen);
    mismatches.failed += v.failed;
    for (auto& m : v.messages) mismatches.messages.push_back(std::move(m));
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  };
  auto timed_setup = [&] {
    const uint64_t start = NowNs();
    auto h = SetUp(*w, args.seed, texts, spill_dir);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return h;
  };

  if (!args.trace) {
    // Rounds of set-ups, a read segment on the last of them and, on
    // read-only workloads, a quiesced commit burst: set-ups, reads and
    // commits all sample the whole run, so a slow spell of the machine
    // moves them alike. The seeded references are the same for every
    // set-up, so the last one verifies every segment.
    const double burst = std::min(args.seconds / 4, kProbeSeconds) / kRounds;
    std::unique_ptr<Harness> h;
    PhaseResult reads;
    ClientLog probe_log;
    for (int r = 0; r < kRounds; ++r) {
      const uint64_t setups_end =
          NowNs() + static_cast<uint64_t>(kSetupSeconds / kRounds * 1e9);
      do {
        h.reset();  // tear the previous set-up down before timing the next
        h = timed_setup();
      } while (NowNs() < setups_end);
      AppendPhase(RunPhase(*h, args.seconds / kRounds, false,
                           Mix(args.seed) + static_cast<uint64_t>(r)),
                  &reads);
      if (w->writer) continue;
      const uint64_t start = NowNs();
      CommitBurst(*h, burst, &probe_log);
      probe_seconds += static_cast<double>(NowNs() - start) / 1e9;
    }
    phases.push_back(std::move(reads));
    probe = std::move(probe_log.commits);
    errors = std::move(probe_log.errors);
    std::tie(arena_bytes, text_bytes) = ArenaAndTextBytes(*h);
    verify(*h, phases.back());
  } else {
    // Untraced and traced halves, each on a freshly set-up service so both
    // start from the same cache state.
    for (bool traced : {false, true}) {
      auto h = timed_setup();
      phases.push_back(RunPhase(*h, args.seconds / 2, traced, args.seed));
      verify(*h, phases.back());
    }
  }
  const uint64_t peak_rss_kb = PeakRssKb();
  const Verdict figure1 = CheckFigure1();

  j.Key("setup_s").BeginArray();
  for (double s : setup_s) j.Value(s);
  j.EndArray();
  j.Key("phases").BeginArray();
  for (const PhaseResult& p : phases) WritePhase(&j, p);
  j.EndArray();
  j.Key("probe_commits");
  WriteCommits(&j, probe);
  j.Field("probe_seconds", probe_seconds);
  j.Field("arena_bytes", arena_bytes).Field("text_bytes", text_bytes);
  j.Field("peak_rss_kb", peak_rss_kb);

  uint64_t attempted = 4 + probe.size();  // 4 = the Figure-1 checks
  uint64_t failed = figure1.failed + mismatches.failed;
  for (const PhaseResult& p : phases) {
    attempted += p.ops.size() + p.commits.size();
    for (const OpRecord& op : p.ops) failed += op.ok ? 0 : 1;
    for (const CommitRecord& c : p.commits) failed += c.ok ? 0 : 1;
  }
  for (const CommitRecord& c : probe) failed += c.ok ? 0 : 1;
  j.Key("verify").BeginObject();
  j.Field("attempted", attempted).Field("failed", failed);
  j.Key("messages").BeginArray();
  for (const std::string& m : errors) j.Value(m);
  for (const std::string& m : mismatches.messages) j.Value(m);
  for (const std::string& m : figure1.messages) j.Value(m);
  j.EndArray();
  j.EndObject();

  if (args.trace) {
    j.Key("layers").BeginObject();
    MeasureLayers(*w, args.seed, texts, args.scratch + "/layers", &j);
    j.EndObject();
  }
  j.EndObject();

  std::ofstream out(args.out, std::ios::binary);
  out << j.str() << "\n";
  out.close();
  if (!out) Die("cannot write " + args.out);
  return failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
