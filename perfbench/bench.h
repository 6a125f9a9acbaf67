// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Shared pieces of the repository benchmark driver: the workload table, the
// Section-4 query texts, seeded edition configs, a monotonic clock, and a
// minimal JSON writer for the raw result file that run.py reduces.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "goddag/kygoddag.h"
#include "workload/generator.h"

namespace perfbench {

// The four Section-4 query classes, in mix order.
enum QueryClass { kI1 = 0, kI2, kII1, kIII1, kClassCount };
extern const char* const kClassNames[kClassCount];

// One closed-loop workload: `readers` query clients (plus one writer client
// when `writer`) against `editions` generated editions of `words` words
// behind a CorpusService of `capacity` resident documents.
struct Workload {
  const char* name;
  size_t editions;
  size_t words;
  size_t capacity;
  size_t readers;
  bool writer;
  unsigned query_threads;  // QueryOptions::threads
  size_t pool_threads;     // CorpusOptions::pool_threads
  int mix[kClassCount];    // percent of reads per class
  bool zipf;               // skewed edition choice (else uniform)
  size_t terms;  // distinct search terms for I.1/II.1 (0 = the fixed "ea")
  bool spill;    // CorpusOptions::spill_dir set (arena spill + mmap loads)
};

const Workload* FindWorkload(std::string_view name);

// One query text a workload issues; `term` is the matches()/analyze-string
// search term for I.1 and II.1, empty for I.2 and III.1.
struct QueryText {
  QueryClass cls;
  std::string term;
  std::string text;
};

// The workload's query texts: one per class, or for term workloads one per
// (I.1/II.1, term) with `w.terms` terms drawn by `seed` from substrings of
// the generator vocabulary.
std::vector<QueryText> QueryTextsFor(const Workload& w, uint64_t seed);

// The seeded config of edition `i` of the workload.
mhx::workload::EditionConfig EditionConfigFor(const Workload& w, uint64_t seed,
                                              size_t i);

// The virtual hierarchy the writer client commits and removes.
inline constexpr char kChurnHierarchy[] = "bench-churn";
std::vector<mhx::goddag::VirtualElement> ChurnElements();

// splitmix64 step, for every seeded choice in the driver.
uint64_t Mix(uint64_t x);

// Reports a set-up or harness error on stderr and exits with status 2.
[[noreturn]] void Die(const std::string& what);

// Monotonic nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Streaming JSON writer: commas are placed automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(std::string_view s);
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(bool v);
  // An already-serialised JSON value, inserted verbatim.
  JsonWriter& Raw(std::string_view json);
  // Key + Value in one call.
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& v) {
    Key(key);
    return Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c);
  JsonWriter& Close(char c);
  void Separate();

  std::string out_;
  std::vector<bool> first_;  // per open container: nothing written yet
  bool after_key_ = false;
};

// Direct timed calls into each layer's public functions on the workload's
// own generated editions and query texts; writes "metric": value fields
// into the open object of `out`. `scratch_dir` holds the arena files.
void MeasureLayers(const Workload& w, uint64_t seed,
                   const std::vector<QueryText>& texts,
                   const std::string& scratch_dir, JsonWriter* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
