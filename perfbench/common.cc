// Copyright (c) mhxq authors. Licensed under the MIT license.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench.h"

namespace perfbench {

const char* const kClassNames[kClassCount] = {"I1", "I2", "II1", "III1"};

namespace {

// name, editions, words, capacity, readers, writer, query threads, pool
// threads, mix (I.1/I.2/II.1/III.1 %), zipf, terms, spill. README.md says
// why each exists.
const Workload kWorkloads[] = {
    {"serve-resident", 8, 1600, 8, 4, false, 1, 0, {40, 25, 25, 10}, false, 0,
     false},
    {"churn-write", 24, 400, 6, 3, true, 1, 0, {40, 25, 25, 10}, true, 96,
     true},
    {"fanout-large", 1, 3200, 1, 1, false, 4, 3, {10, 40, 40, 10}, false, 0,
     false},
};

// The edition-generic forms of the Section-4 queries (the shapes of
// bench/bench_corpus.cc); @TERM@ is the search term.
const char* const kTemplates[kClassCount] = {
    // I.1: lines carrying a matching word, overlap-aware.
    R"(
for $l in /descendant::line[xdescendant::w[matches(string(.), ".*@TERM@.*")] or
                            overlapping::w[matches(string(.), ".*@TERM@.*")]]
return <line>{string($l)}</line>)",
    // I.2: every line with damaged words highlighted, walking shared leaves.
    R"(
for $l in /descendant::line
return (
  for $leaf in $l/descendant::leaf()
  return
    if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or
                          overlapping::dmg]])
    then <b>{$leaf}</b>
    else $leaf
  , <br/> ))",
    // II.1: analyze-string() over matching words, match spans emphasised.
    R"(
for $w in /descendant::w[matches(string(.), ".*@TERM@.*")]
return (
  let $r := analyze-string($w, ".*@TERM@.*")
  return
    for $leaf in $r/descendant::leaf()
    return if ($leaf/xancestor::m) then <b>{$leaf}</b> else $leaf
  , <br/> ))",
    // III.1: restored text in italics.
    R"(
for $leaf in /descendant::leaf()
return if ($leaf/xancestor::res) then <i>{$leaf}</i> else $leaf)",
};

// `count` distinct substrings (2 or 3 letters) of the generator
// vocabulary, chosen by `seed`.
std::vector<std::string> SearchTerms(uint64_t seed, size_t count) {
  std::set<std::string> universe;
  for (const std::string& word :
       mhx::workload::SampleVocabulary(/*seed=*/1, /*count=*/4096)) {
    for (size_t len = 2; len <= 3; ++len) {
      for (size_t pos = 0; pos + len <= word.size(); ++pos) {
        universe.insert(word.substr(pos, len));
      }
    }
  }
  std::vector<std::string> pool(universe.begin(), universe.end());
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[Mix(seed * 0x9e37 + i) % i]);
  }
  pool.resize(std::min(count, pool.size()));
  return pool;
}

// The edition-generic Section-4 query of `cls` with `term` substituted.
std::string QueryTextFor(QueryClass cls, const std::string& term) {
  std::string text = kTemplates[cls];
  const std::string marker = "@TERM@";
  for (size_t pos = text.find(marker); pos != std::string::npos;
       pos = text.find(marker, pos + term.size())) {
    text.replace(pos, marker.size(), term);
  }
  return text;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<QueryText> QueryTextsFor(const Workload& w, uint64_t seed) {
  const std::vector<std::string> terms =
      w.terms > 0 ? SearchTerms(seed, w.terms)
                  : std::vector<std::string>{"ea"};
  std::vector<QueryText> texts;
  for (int c = 0; c < kClassCount; ++c) {
    const QueryClass cls = static_cast<QueryClass>(c);
    if (cls == kI1 || cls == kII1) {
      for (const std::string& term : terms) {
        texts.push_back({cls, term, QueryTextFor(cls, term)});
      }
    } else {
      texts.push_back({cls, "", QueryTextFor(cls, "")});
    }
  }
  return texts;
}

mhx::workload::EditionConfig EditionConfigFor(const Workload& w, uint64_t seed,
                                              size_t i) {
  mhx::workload::EditionConfig config;
  config.seed = Mix(seed * 1000003 + i) | 1;
  config.word_count = w.words;
  config.chars_per_line = 32;
  config.damage_coverage = 0.12;
  config.restoration_coverage = 0.15;
  return config;
}

std::vector<mhx::goddag::VirtualElement> ChurnElements() {
  return {mhx::goddag::VirtualElement{"churn", mhx::TextRange(5, 25), {}},
          mhx::goddag::VirtualElement{"churn", mhx::TextRange(40, 77), {}}};
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- JsonWriter --------------------------------------------------------------

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::Open(char c) {
  Separate();
  out_ += c;
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::Close(char c) {
  out_ += c;
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Value(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view s) {
  Separate();
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  return *this;
}

}  // namespace perfbench
