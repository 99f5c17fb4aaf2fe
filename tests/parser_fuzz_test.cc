#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "qos/run_report.h"
#include "telemetry/http.h"
#include "util/json.h"
#include "util/random.h"

namespace ftms {
namespace {

// Seeded-mutation fuzzing of the parsers that read outside bytes: the
// JSON reader, the HTTP request-head and URL parsers, and the run-report
// loaders with both renderers. Each target starts from its committed seed
// corpus (tests/corpus/<target>/) and runs a fixed-seed stream of mutants
// (bit flips, cuts, inserted JSON and HTTP tokens, splices of corpus
// files) through the parser. Every call must come back with a value or an
// InvalidArgument; under -DFTMS_SANITIZE=address a memory error or
// undefined behaviour on the way aborts the test. The counts keep the
// whole file to a few seconds in that build.

constexpr int kJsonMutants = 60000;
constexpr int kHttpMutants = 100000;
constexpr int kReportMutants = 1000;  // per run-report input

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<std::string> LoadCorpus(const std::string& target) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(FTMS_CORPUS_DIR) / target)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // directory order varies
  std::vector<std::string> corpus;
  for (const auto& path : paths) corpus.push_back(ReadFile(path));
  return corpus;
}

// Tokens the mutator inserts: JSON structure, numbers at and past the
// int64 and double ranges, escapes, journal and dump keys, and HTTP
// request-line and URL pieces.
constexpr std::string_view kTokens[] = {
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\ud800", "\\u00", ":", ",",
    "-", "0", "-0", ".", "e", "1e999", "-1e999", "1e300", "-1e300",
    "9.3e18", "9223372036854775808", "-9223372036854775809", "1e-400",
    "NaN", "Infinity", "true", "false", "null", "\"kind\":", "\"sim_us\":",
    "\"cycle\":", "\"value\":", "\"series\":{", "\"t\":[", "\"v\":[",
    "\"stride\":", "\"metrics\":{", "\"schema_version\":", "\"profile\":",
    "\"nodes\":[", "\"children\":[", "\"count\":", "\"name\":", "\n",
    "\t", "\r", std::string_view("\0", 1), "\xff", "\xc3", "GET ",
    "HEAD ", " HTTP/1.1", "HTTP/", "\r\n", "\r\n\r\n", " ", "?", "&", "=",
    "%", "%2", "%zz", "%00", "%41", "+", "/", "//", "http://", ":65536",
    ":0", ":-1", ":99999999999999999999", ":4294967377"};

std::string Mutate(const std::vector<std::string>& corpus, Rng* rng) {
  std::string m = corpus[rng->UniformInt(corpus.size())];
  const int ops = 1 + static_cast<int>(rng->UniformInt(4));
  for (int op = 0; op < ops; ++op) {
    const size_t pos = rng->UniformInt(m.size() + 1);
    switch (rng->UniformInt(6)) {
      case 0:  // flip one bit
        if (!m.empty()) {
          m[pos % m.size()] = static_cast<char>(
              m[pos % m.size()] ^ (1 << rng->UniformInt(8)));
        }
        break;
      case 1:  // cut a range
        m.erase(pos, 1 + rng->UniformInt(16));
        break;
      case 2:  // truncate
        m.resize(pos);
        break;
      case 3:  // insert a token
        m.insert(pos, kTokens[rng->UniformInt(std::size(kTokens))]);
        break;
      case 4: {  // splice in a piece of another corpus file
        const std::string& other = corpus[rng->UniformInt(corpus.size())];
        const size_t from = rng->UniformInt(other.size() + 1);
        m.insert(pos, other, from, 1 + rng->UniformInt(64));
        break;
      }
      default: {  // repeat a range (deep nesting, long runs)
        const std::string piece = m.substr(pos, 1 + rng->UniformInt(8));
        for (uint64_t r = rng->UniformInt(32); r > 0; --r) {
          m.insert(pos, piece);
        }
        break;
      }
    }
  }
  return m;
}

// The mutant as one printable line, for failure messages.
std::string Printable(std::string_view mutant) {
  std::string out;
  AppendJsonString(&out, mutant);
  return out;
}

TEST(ParserFuzzTest, JsonParseReturnsValueOrError) {
  const std::vector<std::string> corpus = LoadCorpus("json");
  ASSERT_FALSE(corpus.empty());
  for (const std::string& seed : corpus) {
    ASSERT_TRUE(JsonValue::Parse(seed).ok()) << Printable(seed);
  }
  Rng rng(0x15AA0001u);
  for (int i = 0; i < kJsonMutants; ++i) {
    const std::string m = Mutate(corpus, &rng);
    const StatusOr<JsonValue> parsed = JsonValue::Parse(m);
    if (parsed.ok()) {
      // AsInt's cast is what float-cast-overflow checks.
      parsed->AsInt();
      for (const JsonValue& item : parsed->items()) item.AsInt();
      for (const auto& member : parsed->members()) member.second.AsInt();
    } else {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << i << ": " << Printable(m);
    }
  }
}

TEST(ParserFuzzTest, HttpHeadAndUrlParsersReturnValueOrError) {
  const std::vector<std::string> corpus = LoadCorpus("http");
  ASSERT_FALSE(corpus.empty());
  Rng rng(0x15AA0002u);
  for (int i = 0; i < kHttpMutants; ++i) {
    const std::string m = Mutate(corpus, &rng);
    const StatusOr<HttpRequest> request = ParseHttpRequestHead(m);
    if (request.ok()) {
      QueryParam(*request, "n");
      for (const auto& [key, value] : request->query) {
        ASSERT_TRUE(QueryParam(*request, key).has_value())
            << i << ": " << Printable(m);
      }
    } else {
      ASSERT_EQ(request.status().code(), StatusCode::kInvalidArgument)
          << i << ": " << Printable(m);
    }
    const StatusOr<ParsedUrl> url = ParseHttpUrl(m);
    if (url.ok()) {
      ASSERT_GT(url->port, 0) << i << ": " << Printable(m);
      ASSERT_LE(url->port, 65535) << i << ": " << Printable(m);
    } else {
      ASSERT_EQ(url.status().code(), StatusCode::kInvalidArgument)
          << i << ": " << Printable(m);
    }
  }
}

// Loads a report with one input mutated and the other two taken from
// their seed corpora; a report that loads must render, and its JSON
// rendering must parse.
TEST(ParserFuzzTest, RunReportLoadersAndRenderersReturnValueOrError) {
  const std::vector<std::string> corpora[] = {
      LoadCorpus("journal"), LoadCorpus("metrics"), LoadCorpus("timeseries")};
  // Per-process names: builds of the suite may run side by side.
  const std::string dir =
      ::testing::TempDir() + "/parser_fuzz_" + std::to_string(::getpid());
  const std::string paths[] = {dir + "_journal.jsonl", dir + "_metrics.json",
                               dir + "_timeseries.json"};
  Rng rng(0x15AA0003u);
  for (int input = 0; input < 3; ++input) {
    ASSERT_FALSE(corpora[input].empty());
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(WriteTextFile(paths[k], corpora[k][0]).ok());
    }
    for (int i = 0; i < kReportMutants; ++i) {
      ASSERT_TRUE(
          WriteTextFile(paths[input], Mutate(corpora[input], &rng)).ok());
      const StatusOr<RunReport> report =
          LoadRunReport(paths[0], paths[1], paths[2]);
      if (!report.ok()) {
        ASSERT_EQ(report.status().code(), StatusCode::kInvalidArgument)
            << report.status().ToString() << "\n"
            << Printable(ReadFile(paths[input]));
        continue;
      }
      RenderRunReportMarkdown(*report);
      const std::string json = RenderRunReportJson(*report);
      ASSERT_TRUE(JsonValue::Parse(json).ok())
          << json << "\n"
          << Printable(ReadFile(paths[input]));
    }
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace ftms
