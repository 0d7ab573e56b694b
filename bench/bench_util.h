// The one toolkit of the bench/ harnesses: a strict flag parser, an ordered
// JSON writer that stamps every row with the build that produced it and
// reports a failed write, the closed-loop answering runner, and the
// registry-backed latency plumbing (percentiles read back from the cell's
// obs histograms, not from per-bench latency vectors).
//
// OLITE_BENCH_COMMIT, OLITE_BENCH_BUILD_TYPE and OLITE_BENCH_COMPILER come
// from the `olite_bench_util` CMake target. The commit is read when CMake
// configures the build tree, so a tree that is rebuilt after a commit
// without reconfiguring still stamps the old one.
#ifndef OLITE_BENCH_BENCH_UTIL_H_
#define OLITE_BENCH_BENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"

namespace olite::bench {

// ---- Flags -----------------------------------------------------------------

/// The command-line flags of one harness: `--name=value` or a bare
/// `--name`. Each getter names one flag the harness accepts and parses its
/// value (the last occurrence wins); a value it cannot parse is recorded as
/// an error and the default is returned. `Finish()` then reports every
/// error plus every flag no getter asked for; the harness exits non-zero
/// when it returns false.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) Add(argv[i]);
  }

  /// Takes the flags named in `taken` out of argv, shrinking `*argc`, and
  /// leaves the other arguments in order for another parser
  /// (google-benchmark's).
  static Flags Take(int* argc, char** argv,
                    std::initializer_list<std::string_view> taken) {
    Flags flags(0, nullptr);
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      std::string_view arg = argv[i];
      std::string_view name = arg.substr(0, arg.find('='));
      if (name.starts_with("--") &&
          std::find(taken.begin(), taken.end(), name.substr(2)) !=
              taken.end()) {
        flags.Add(arg);
      } else {
        argv[kept++] = argv[i];
      }
    }
    *argc = kept;
    return flags;
  }

  /// True when the bare flag `--name` was given; a value is an error.
  bool Has(std::string_view name) {
    const Given* given = Find(name);
    if (given != nullptr && given->value) Error(name, "takes no value");
    return given != nullptr;
  }

  /// An integer of type T, at least `min`.
  template <std::integral T>
  T Int(std::string_view name, T fallback,
        T min = std::numeric_limits<T>::lowest()) {
    const std::string* text = Value(name);
    return text != nullptr ? Number(name, *text, min).value_or(fallback)
                           : fallback;
  }

  /// A finite floating-point number.
  double Double(std::string_view name, double fallback) {
    const std::string* text = Value(name);
    return text != nullptr
               ? Number(name, *text, std::numeric_limits<double>::lowest())
                     .value_or(fallback)
               : fallback;
  }

  /// A string; when `choices` is non-empty the value must be one of them.
  std::string String(std::string_view name, std::string fallback,
                     std::initializer_list<std::string_view> choices = {}) {
    const std::string* text = Value(name);
    if (text == nullptr) return fallback;
    if (choices.size() > 0 &&
        std::find(choices.begin(), choices.end(), *text) == choices.end()) {
      std::string allowed;
      for (std::string_view c : choices) {
        allowed += (allowed.empty() ? "" : ", ") + std::string(c);
      }
      Error(name, "'" + *text + "' is not one of " + allowed);
      return fallback;
    }
    return *text;
  }

  /// A comma-separated list of numbers, each at least `min`; an empty
  /// list or element is an error.
  template <typename T>
  std::vector<T> List(std::string_view name, std::vector<T> fallback,
                      T min = std::numeric_limits<T>::lowest()) {
    const std::string* text = Value(name);
    if (text == nullptr) return fallback;
    std::vector<T> out;
    std::string_view rest = *text;
    while (true) {
      size_t comma = rest.find(',');
      std::optional<T> value = Number(name, rest.substr(0, comma), min);
      if (!value) return fallback;
      out.push_back(*value);
      if (comma == std::string_view::npos) return out;
      rest.remove_prefix(comma + 1);
    }
  }

  /// An rdb evaluator: `default` (resolved from the environment),
  /// `columnar` or `nested_loop`.
  rdb::EvalEngine Engine(std::string_view name) {
    std::string engine =
        String(name, "default", {"default", "columnar", "nested_loop"});
    if (engine == "columnar") return rdb::EvalEngine::kColumnar;
    if (engine == "nested_loop") return rdb::EvalEngine::kNestedLoop;
    return rdb::EvalEngine::kDefault;
  }

  /// Reports every error and every flag no getter asked for on stderr;
  /// false when there was any.
  bool Finish() {
    for (const Given& given : given_) {
      if (!given.used) errors_.push_back("unknown flag --" + given.name);
    }
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    return errors_.empty();
  }

  /// The errors recorded so far, in order.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Given {
    std::string name;
    std::optional<std::string> value;
    bool used = false;
  };

  void Add(std::string_view arg) {
    if (arg.size() <= 2 || !arg.starts_with("--")) {
      errors_.push_back("unexpected argument '" + std::string(arg) + "'");
      return;
    }
    size_t eq = arg.find('=');
    Given& given = given_.emplace_back();
    given.name = std::string(arg.substr(2, eq - 2));
    if (eq != std::string_view::npos) {
      given.value = std::string(arg.substr(eq + 1));
    }
  }

  // The last occurrence of `--name`; marks every occurrence used.
  const Given* Find(std::string_view name) {
    const Given* last = nullptr;
    for (Given& given : given_) {
      if (given.name != name) continue;
      given.used = true;
      last = &given;
    }
    return last;
  }

  const std::string* Value(std::string_view name) {
    const Given* given = Find(name);
    if (given != nullptr && !given->value) Error(name, "needs a value");
    return given != nullptr && given->value ? &*given->value : nullptr;
  }

  template <typename T>
  std::optional<T> Number(std::string_view name, std::string_view text,
                          T min) {
    T value{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    const char* problem = nullptr;
    if (ec == std::errc::result_out_of_range) {
      problem = "out of range";
    } else if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
      problem = std::is_integral_v<T> ? "not an integer" : "not a number";
    } else if (value < min) {
      problem = "below the minimum";
    }
    if (problem == nullptr) return value;
    Error(name, "'" + std::string(text) + "' is " + problem);
    return std::nullopt;
  }

  void Error(std::string_view name, const std::string& message) {
    errors_.push_back("--" + std::string(name) + ": " + message);
  }

  std::vector<Given> given_;
  std::vector<std::string> errors_;
};

// ---- JSON ------------------------------------------------------------------

/// One JSON object, keys in insertion order.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, std::string_view value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Add(std::string_view key, const char* value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Add(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonObject& Add(std::string_view key, T value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Add(std::string_view key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Add(std::string_view key, const JsonObject& value) {
    return Raw(key, value.ToString());
  }
  JsonObject& Add(std::string_view key, const std::vector<JsonObject>& values) {
    std::string text;
    for (const JsonObject& v : values) {
      text += (text.empty() ? "" : ", ") + v.ToString();
    }
    return Raw(key, "[" + text + "]");
  }

  std::string ToString() const { return "{" + body_ + "}"; }

  /// The one escape rule: `s` quoted, with `"` and `\` backslash-escaped
  /// and every control character written as `\u00XX`.
  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  /// The one number rule for doubles: the shortest `%g`-style text that
  /// reads back to the same value, always with a fraction or exponent so
  /// it stays a JSON float; `null` when the value is not finite.
  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    char* end = std::to_chars(buf, buf + sizeof buf, value,
                              std::chars_format::general).ptr;
    std::string text(buf, end);
    if (text.find_first_of(".e") == std::string::npos) text += ".0";
    return text;
  }

 private:
  JsonObject& Raw(std::string_view key, const std::string& text) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + text;
    return *this;
  }

  std::string body_;
};

/// Appends the stamp of the build that produced a file: the commit, the
/// build type, the compiler id and version, and the hardware threads.
inline void Stamp(JsonObject* object) {
  object->Add("commit", OLITE_BENCH_COMMIT)
      .Add("build_type", OLITE_BENCH_BUILD_TYPE)
      .Add("compiler", OLITE_BENCH_COMPILER)
      .Add("nproc", std::thread::hardware_concurrency());
}

/// Writes `text` to `path`. When the file cannot be opened, written or
/// closed it says why on stderr and returns false.
inline bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
            std::fflush(f) == 0;
  int err = errno;
  if (f != nullptr && std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(err));
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Writes `rows` to `path` as a JSON array, one stamped row per line.
inline bool WriteRows(const std::string& path, std::vector<JsonObject> rows) {
  std::string text = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    Stamp(&rows[i]);
    text += "  " + rows[i].ToString() + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return WriteFile(path, text + "]\n");
}

/// Writes one stamped JSON object to `path`.
inline bool WriteObject(const std::string& path, JsonObject object) {
  Stamp(&object);
  return WriteFile(path, object.ToString() + "\n");
}

// ---- Latency plumbing ------------------------------------------------------

/// The histogram every harness records its per-request wall-clock into
/// (microseconds). Lives in the cell's registry next to the engine's own
/// instruments, so one snapshot covers both.
inline constexpr const char* kRequestUs = "bench.request_us";

/// Quantile of a registry histogram converted to milliseconds (0 when the
/// instrument is absent or empty).
inline double QuantileMs(const obs::MetricsRegistry& registry,
                         std::string_view name, double q) {
  return registry.HistogramQuantile(name, q) / 1000.0;
}

/// The per-stage latency percentiles of one registry:
///   {"rewrite": {"count": n, "p50_us": …, "p95_us": …, "p99_us": …}, …}
/// covering the five pipeline stages plus whole-call ("answer") and
/// per-union-block ("block") histograms. Stages that never ran (e.g.
/// compile stages in an all-hits cell, or everything with metrics off)
/// report count 0.
inline JsonObject StagePercentiles(const obs::MetricsRegistry& registry) {
  JsonObject out;
  auto append = [&](const char* label, const char* histogram_name) {
    obs::Histogram::Snapshot snap;
    if (const obs::Histogram* h = registry.FindHistogram(histogram_name)) {
      snap = h->TakeSnapshot();
    }
    out.Add(label, JsonObject()
                       .Add("count", snap.count)
                       .Add("p50_us", snap.Quantile(0.50))
                       .Add("p95_us", snap.Quantile(0.95))
                       .Add("p99_us", snap.Quantile(0.99)));
  };
  for (size_t i = 0; i < 5; ++i) {
    append(obda::metric_names::kStageLabels[i],
           obda::metric_names::kStageHistograms[i]);
  }
  append("answer", obda::metric_names::kAnswerUs);
  append("block", obda::metric_names::kBlockUs);
  return out;
}

// ---- Closed-loop runner ----------------------------------------------------

/// Totals of one closed-loop run.
struct ClosedLoopTotals {
  uint64_t requests = 0;
  /// From the first dispatch to the last join.
  double wall_ms = 0;
  /// CPU time of the client threads, summed; unlike wall time it does not
  /// count a client's time off the CPU.
  double cpu_ms = 0;
  /// Evaluator counters summed over every answer.
  rdb::EvalStats eval;
  /// The largest final union any answer reported.
  uint64_t max_disjuncts = 0;
  /// Per-request wall-time percentiles from `bench.request_us`.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

inline double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

inline void AddEvalStats(const rdb::EvalStats& from, rdb::EvalStats* into) {
  into->batches += from.batches;
  into->rows_scanned += from.rows_scanned;
  into->shared_nodes += from.shared_nodes;
  into->shared_node_hits += from.shared_node_hits;
  into->shared_build_hits += from.shared_build_hits;
  into->join_reorders += from.join_reorders;
}

/// A closed loop: `threads` clients each send k = `requests / threads`
/// answers (at least one) to `engine` back to back. Client t sends the
/// requests numbered t·k … t·k + k − 1, and request n asks `pick(t, n)`,
/// which must return a query that outlives the run. Each request's wall
/// time goes into `registry`'s `bench.request_us`. The first failed answer
/// stops every client, and its status is returned.
template <typename Pick>
Result<ClosedLoopTotals> RunClosedLoop(const obda::QueryEngine& engine,
                                       int threads, uint64_t requests,
                                       obs::MetricsRegistry* registry,
                                       Pick&& pick) {
  obs::Histogram& request_us = registry->histogram(kRequestUs);
  const uint64_t k =
      std::max<uint64_t>(1, requests / static_cast<uint64_t>(threads));
  std::vector<ClosedLoopTotals> parts(static_cast<size_t>(threads));
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  Status error;  // guarded by error_mu
  Stopwatch wall;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ClosedLoopTotals& part = parts[static_cast<size_t>(t)];
      const double cpu_start = ThreadCpuMs();
      const uint64_t first = static_cast<uint64_t>(t) * k;
      for (uint64_t n = first; n < first + k && !stop.load(); ++n) {
        const query::ConjunctiveQuery& query = pick(t, n);
        Stopwatch sw;
        obda::AnswerStats stats;
        auto r = engine.Answer(query, &stats);
        request_us.Record(sw.ElapsedMicros());
        if (!r.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (error.ok()) error = r.status();
          stop.store(true);
          break;
        }
        AddEvalStats(stats.eval, &part.eval);
        part.max_disjuncts = std::max<uint64_t>(
            part.max_disjuncts, stats.rewrite.final_disjuncts);
      }
      part.cpu_ms = ThreadCpuMs() - cpu_start;
    });
  }
  for (std::thread& th : pool) th.join();
  if (!error.ok()) return error;
  ClosedLoopTotals totals;
  totals.wall_ms = wall.ElapsedMillis();
  totals.requests = k * static_cast<uint64_t>(threads);
  for (const ClosedLoopTotals& part : parts) {
    totals.cpu_ms += part.cpu_ms;
    AddEvalStats(part.eval, &totals.eval);
    totals.max_disjuncts = std::max(totals.max_disjuncts, part.max_disjuncts);
  }
  totals.p50_ms = QuantileMs(*registry, kRequestUs, 0.50);
  totals.p95_ms = QuantileMs(*registry, kRequestUs, 0.95);
  totals.p99_ms = QuantileMs(*registry, kRequestUs, 0.99);
  return totals;
}

}  // namespace olite::bench

#endif  // OLITE_BENCH_BENCH_UTIL_H_
