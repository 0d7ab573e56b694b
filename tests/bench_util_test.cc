// The bench toolkit (bench/bench_util.h): strict flags, the JSON escape
// and number rules, write failures, and the closed-loop runner.

#include "bench_util.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/workload.h"
#include "common/fault_injection.h"
#include "obda/compiled_ontology.h"
#include "obs/metrics.h"

namespace olite::bench {
namespace {

// Parses `args` (without the program name) the way a harness does.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "harness");
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }
  Flags Parse() { return Flags(argc(), argv()); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

bool Rejected(Flags& flags, std::string_view message) {
  if (flags.Finish()) return false;
  for (const std::string& e : flags.errors()) {
    if (e.find(message) != std::string::npos) return true;
  }
  return false;
}

TEST(BenchFlagsTest, ParsesEveryTypedGetter) {
  Argv args({"--requests=400", "--skew=1.25", "--out=x.json",
             "--threads=1,4,8", "--deadline-ms=0,5.5", "--print-metrics",
             "--engine=nested_loop", "--delta=both"});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.Int<uint64_t>("requests", 2000, 1), 400u);
  EXPECT_DOUBLE_EQ(flags.Double("skew", 1.5), 1.25);
  EXPECT_EQ(flags.String("out", "BENCH.json"), "x.json");
  EXPECT_EQ(flags.List<int>("threads", {1}, 1), (std::vector<int>{1, 4, 8}));
  EXPECT_EQ(flags.List<double>("deadline-ms", {0}, 0),
            (std::vector<double>{0, 5.5}));
  EXPECT_TRUE(flags.Has("print-metrics"));
  EXPECT_FALSE(flags.Has("pruning-gate"));
  EXPECT_EQ(flags.Engine("engine"), rdb::EvalEngine::kNestedLoop);
  EXPECT_EQ(flags.String("delta", "off", {"off", "on", "both"}), "both");
  EXPECT_EQ(flags.Int("seed", 7), 7);  // absent: the default
  EXPECT_TRUE(flags.Finish());
}

TEST(BenchFlagsTest, LastOccurrenceWins) {
  Argv args({"--threads=1", "--threads=2,3"});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.List<int>("threads", {}, 1), (std::vector<int>{2, 3}));
  EXPECT_TRUE(flags.Finish());
}

TEST(BenchFlagsTest, RejectsUnknownFlag) {
  Argv args({"--requests=10", "--bogus=1"});
  Flags flags = args.Parse();
  flags.Int<uint64_t>("requests", 2000);
  EXPECT_TRUE(Rejected(flags, "unknown flag --bogus"));
}

TEST(BenchFlagsTest, RejectsMalformedInteger) {
  for (const char* bad : {"--requests=abc", "--requests=12x", "--requests=",
                          "--requests=-1", "--requests=1e3"}) {
    Argv args({bad});
    Flags flags = args.Parse();
    EXPECT_EQ(flags.Int<uint64_t>("requests", 2000), 2000u) << bad;
    EXPECT_TRUE(Rejected(flags, "--requests")) << bad;
  }
}

TEST(BenchFlagsTest, RejectsIntegerOutOfRangeOrBelowMinimum) {
  Argv args({"--queries=4294967296", "--requests=0"});
  Flags flags = args.Parse();
  flags.Int<uint32_t>("queries", 16);
  flags.Int<uint64_t>("requests", 2000, 1);
  EXPECT_TRUE(Rejected(flags, "out of range"));
  EXPECT_TRUE(Rejected(flags, "below the minimum"));
}

TEST(BenchFlagsTest, RejectsMalformedDouble) {
  for (const char* bad : {"--skew=fast", "--skew=inf", "--skew=nan",
                          "--skew=1.5ms"}) {
    Argv args({bad});
    Flags flags = args.Parse();
    EXPECT_DOUBLE_EQ(flags.Double("skew", 1.5), 1.5) << bad;
    EXPECT_TRUE(Rejected(flags, "--skew")) << bad;
  }
}

TEST(BenchFlagsTest, RejectsMalformedListElement) {
  for (const char* bad : {"--threads=1,x", "--threads=1,,4", "--threads=",
                          "--threads=4,", "--threads=1,0"}) {
    Argv args({bad});
    Flags flags = args.Parse();
    EXPECT_EQ(flags.List<int>("threads", {1, 4, 8}, 1),
              (std::vector<int>{1, 4, 8}))
        << bad;
    EXPECT_TRUE(Rejected(flags, "--threads")) << bad;
  }
}

TEST(BenchFlagsTest, RejectsUnknownEngine) {
  Argv args({"--engine=vectorised"});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.Engine("engine"), rdb::EvalEngine::kDefault);
  EXPECT_TRUE(Rejected(flags, "--engine: 'vectorised' is not one of"));
}

TEST(BenchFlagsTest, RejectsValueOnBareFlagAndBareValueFlag) {
  Argv args({"--pruning-gate=1", "--out", "stray"});
  Flags flags = args.Parse();
  flags.Has("pruning-gate");
  flags.String("out", "BENCH.json");
  EXPECT_TRUE(Rejected(flags, "--pruning-gate: takes no value"));
  EXPECT_TRUE(Rejected(flags, "--out: needs a value"));
  EXPECT_TRUE(Rejected(flags, "unexpected argument 'stray'"));
}

TEST(BenchFlagsTest, TakeLeavesTheOtherArgumentsInOrder) {
  Argv args({"--benchmark_filter=BM_X", "--threads=2",
             "--benchmark_min_time=0.01", "--threadsx=1"});
  int argc = args.argc();
  Flags flags = Flags::Take(&argc, args.argv(), {"threads"});
  EXPECT_EQ(flags.Int<unsigned>("threads", 1), 2u);
  EXPECT_TRUE(flags.Finish());
  ASSERT_EQ(argc, 4);
  EXPECT_STREQ(args.argv()[1], "--benchmark_filter=BM_X");
  EXPECT_STREQ(args.argv()[2], "--benchmark_min_time=0.01");
  EXPECT_STREQ(args.argv()[3], "--threadsx=1");
}

// Decodes `text` as exactly one JSON string literal (RFC 8259 §7); nullopt
// when it is not one. \u escapes are decoded for ASCII only.
std::optional<std::string> DecodeJsonString(std::string_view text) {
  if (text.size() < 2 || text.front() != '"') return std::nullopt;
  std::string out;
  for (size_t i = 1; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c == '"') {
      if (i + 1 != text.size()) return std::nullopt;
      return out;
    }
    if (c < 0x20) return std::nullopt;
    if (c != '\\') {
      out += static_cast<char>(c);
      continue;
    }
    if (++i == text.size()) return std::nullopt;
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= text.size()) return std::nullopt;
        unsigned value = 0;
        for (size_t k = 1; k <= 4; ++k) {
          const char h = text[i + k];
          unsigned digit = 0;
          if (h >= '0' && h <= '9') {
            digit = static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            digit = static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            digit = static_cast<unsigned>(h - 'A' + 10);
          } else {
            return std::nullopt;
          }
          value = value * 16 + digit;
        }
        if (value > 0x7f) return std::nullopt;
        out += static_cast<char>(value);
        i += 4;
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

TEST(BenchJsonTest, EscapedStringsParseBackToTheInput) {
  for (std::string input :
       {std::string("plain"), std::string("quote \" inside"),
        std::string("back\\slash"), std::string("line\nbreak"),
        std::string("tab\there"), std::string("ctrl \x01 byte"),
        std::string("all \"\\\n\t\x01\x1f\r\b\f")}) {
    const std::string encoded = JsonObject::Quote(input);
    EXPECT_EQ(DecodeJsonString(encoded), input) << encoded;
  }
  EXPECT_EQ(JsonObject::Quote("\x01\n\"\\"), "\"\\u0001\\u000a\\\"\\\\\"");
}

TEST(BenchJsonTest, OneNumberRule) {
  auto number = [](double v) { return JsonObject::Number(v); };
  EXPECT_EQ(number(0.0), "0.0");
  EXPECT_EQ(number(2.5), "2.5");
  EXPECT_EQ(number(100000.0), "100000.0");
  EXPECT_EQ(number(0.1), "0.1");
  EXPECT_NE(number(1e300).find('e'), std::string::npos);
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
}

TEST(BenchJsonTest, ObjectKeepsKeyOrderAndValueTypes) {
  JsonObject inner;
  inner.Add("count", uint64_t{3});
  JsonObject row;
  row.Add("mode", "classified")
      .Add("threads", 4)
      .Add("cache", true)
      .Add("qps", 1.0)
      .Add("text", std::string("a\"b"))
      .Add("stages", inner)
      .Add("repros", std::vector<JsonObject>{inner, inner});
  EXPECT_EQ(row.ToString(),
            "{\"mode\": \"classified\", \"threads\": 4, \"cache\": true, "
            "\"qps\": 1.0, \"text\": \"a\\\"b\", \"stages\": {\"count\": 3}, "
            "\"repros\": [{\"count\": 3}, {\"count\": 3}]}");
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchJsonTest, WriteRowsStampsEveryRow) {
  const std::string path = ::testing::TempDir() + "/bench_util_rows.json";
  std::vector<JsonObject> rows(2);
  rows[0].Add("k", 1);
  rows[1].Add("k", 2);
  ASSERT_TRUE(WriteRows(path, rows));
  const std::string text = ReadAll(path);
  EXPECT_EQ(text.rfind("[\n  {\"k\": 1, \"commit\": ", 0), 0u) << text;
  EXPECT_NE(text.find("},\n  {\"k\": 2, \"commit\": "), std::string::npos);
  for (const char* key :
       {"\"build_type\": ", "\"compiler\": ", "\"nproc\": "}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(text.substr(text.size() - 4), "}\n]\n");
}

TEST(BenchJsonTest, WriteObjectStampsTheObject) {
  const std::string path = ::testing::TempDir() + "/bench_util_object.json";
  ASSERT_TRUE(WriteObject(path, JsonObject().Add("seeds_checked", 3)));
  const std::string text = ReadAll(path);
  EXPECT_EQ(text.rfind("{\"seeds_checked\": 3, \"commit\": ", 0), 0u) << text;
  EXPECT_EQ(text.back(), '\n');
}

TEST(BenchJsonTest, UnwritablePathReturnsFailure) {
  EXPECT_FALSE(WriteRows("/nonexistent-dir/BENCH_x.json", {}));
  EXPECT_FALSE(WriteObject(::testing::TempDir(), JsonObject()));  // a dir
  if (std::ifstream("/dev/full").good()) {
    // Opens fine, fails when the buffered bytes are flushed.
    EXPECT_FALSE(WriteRows("/dev/full", {JsonObject().Add("k", 1)}));
  }
}

benchgen::Workload SmallWorkload() {
  benchgen::WorkloadConfig config;
  config.ontology.name = "bench_util";
  config.ontology.seed = 3;
  config.ontology.num_concepts = 12;
  config.ontology.num_roles = 3;
  config.ontology.num_roots = 2;
  config.seed = 3;
  config.num_individuals = 16;
  config.num_concept_assertions = 24;
  config.num_role_assertions = 24;
  config.num_queries = 4;
  config.max_atoms_per_query = 2;
  return benchgen::GenerateWorkload(config);
}

TEST(BenchClosedLoopTest, SendsEveryRequestAndRecordsItsLatency) {
  benchgen::Workload w = SmallWorkload();
  ASSERT_FALSE(w.queries.empty());
  auto compiled = obda::CompiledOntology::Compile(w.ontology, w.mappings,
                                                  w.database);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  obs::MetricsRegistry registry;
  obda::QueryEngineOptions options;
  options.metrics = &registry;
  obda::QueryEngine engine(*compiled, options);

  std::vector<uint64_t> seen(9, 0);
  auto run = RunClosedLoop(
      engine, 3, 10, &registry,
      [&](int t, uint64_t n) -> const query::ConjunctiveQuery& {
        EXPECT_EQ(n / 3, static_cast<uint64_t>(t));  // 3 requests per client
        ++seen[n];  // each n belongs to one client
        return w.queries[n % w.queries.size()];
      });
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->requests, 9u);
  EXPECT_EQ(seen, std::vector<uint64_t>(9, 1));
  EXPECT_EQ(registry.FindHistogram(kRequestUs)->TakeSnapshot().count, 9u);
  EXPECT_GT(run->cpu_ms, 0);
  EXPECT_GT(run->p99_ms, 0);
}

TEST(BenchClosedLoopTest, FirstFailedAnswerFailsTheRun) {
  benchgen::Workload w = SmallWorkload();
  auto compiled = obda::CompiledOntology::Compile(w.ontology, w.mappings,
                                                  w.database);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  obs::MetricsRegistry registry;
  obda::QueryEngineOptions options;
  options.metrics = &registry;
  obda::QueryEngine engine(*compiled, options);

  fault::Injector::Global().Arm(fault::Site::kRdbExecute, {.fail_every = 1});
  auto run = RunClosedLoop(
      engine, 2, 1000, &registry,
      [&](int, uint64_t n) -> const query::ConjunctiveQuery& {
        return w.queries[n % w.queries.size()];
      });
  fault::Injector::Global().DisarmAll();
  ASSERT_FALSE(run.ok());
  // A client stops at its first failure, or once it sees the other's; a
  // query whose unfolding is empty never reaches the failing site.
  EXPECT_LE(registry.FindHistogram(kRequestUs)->TakeSnapshot().count,
            2 * w.queries.size());
}

}  // namespace
}  // namespace olite::bench
