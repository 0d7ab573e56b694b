#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/exec_budget.h"
#include "common/interner.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace olite {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("role 'p'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "role 'p'");
  EXPECT_EQ(s.ToString(), "not_found: role 'p'");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    OLITE_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::ParseError("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto make = [](bool good) -> Result<int> {
    if (good) return 7;
    return Status::NotFound("x");
  };
  auto use = [&](bool good) -> Result<int> {
    OLITE_ASSIGN_OR_RETURN(int v, make(good));
    return v * 2;
  };
  EXPECT_EQ(*use(true), 14);
  EXPECT_EQ(use(false).status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrReturnsFallbackOnError) {
  Result<int> err(Status::NotFound("x"));
  EXPECT_EQ(err.value_or(9), 9);
  Result<int> good(4);
  EXPECT_EQ(good.value_or(9), 4);
  Result<std::string> s(Status::Internal("y"));
  EXPECT_EQ(std::move(s).value_or("fallback"), "fallback");
}

TEST(ResultDeathTest, ValueOnErrorAbortsWithStatusMessage) {
  // The hard abort fires in *every* build mode (a debug-only assert would
  // silently read the wrong variant in Release).
  Result<int> r(Status::ParseError("unterminated string"));
  EXPECT_DEATH({ (void)r.value(); }, "unterminated string");
}

TEST(ResultDeathTest, OkStatusConstructionAborts) {
  EXPECT_DEATH({ Result<int> r{Status::Ok()}; }, "OK status");
}

TEST(ExecBudgetTest, UnlimitedByDefault) {
  ExecBudget b;
  EXPECT_FALSE(b.has_deadline());
  EXPECT_FALSE(b.Exhausted());
  EXPECT_TRUE(b.Check("stage").ok());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.Consume(Quota::kRows));
  EXPECT_EQ(b.used(Quota::kRows), 1000u);
  EXPECT_FALSE(b.QuotaExceeded(Quota::kRows));
}

TEST(ExecBudgetTest, QuotaRefusesPastCap) {
  BudgetCaps caps;
  caps.max_sql_blocks = 3;
  ExecBudget b(caps);
  EXPECT_TRUE(b.Consume(Quota::kSqlBlocks));
  EXPECT_TRUE(b.Consume(Quota::kSqlBlocks, 2));
  EXPECT_FALSE(b.Consume(Quota::kSqlBlocks));
  EXPECT_TRUE(b.QuotaExceeded(Quota::kSqlBlocks));
  // A spent quota is local to its stage: the budget as a whole is not
  // exhausted and other quotas still have room.
  EXPECT_FALSE(b.Exhausted());
  EXPECT_TRUE(b.Consume(Quota::kRows));
}

TEST(ExecBudgetTest, CancellationFlipsCheck) {
  ExecBudget b;
  EXPECT_TRUE(b.Check("rewrite").ok());
  b.Cancel();
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(b.Exhausted());
  Status s = b.Check("rewrite");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("rewrite"), std::string::npos);
}

TEST(ExecBudgetTest, DeadlineExpires) {
  BudgetCaps caps;
  caps.deadline_ms = 1;
  ExecBudget b(caps);
  EXPECT_TRUE(b.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(b.TimeExpired());
  EXPECT_TRUE(b.Exhausted());
  EXPECT_EQ(b.Check("unfold").code(), StatusCode::kResourceExhausted);
  EXPECT_LE(b.RemainingMillis(), 0.0);
}

TEST(ExecBudgetTest, ConcurrentConsumeIsExact) {
  BudgetCaps caps;
  caps.max_rows = 100'000;
  ExecBudget b(caps);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&b] {
      for (int i = 0; i < 10'000; ++i) b.Consume(Quota::kRows);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(b.used(Quota::kRows), 40'000u);
}

TEST(ExecBudgetTest, QuotaNamesAreCanonical) {
  EXPECT_STREQ(QuotaName(Quota::kRewriteIterations), "rewrite_iterations");
  EXPECT_STREQ(QuotaName(Quota::kRows), "rows");
}

TEST(DegradationTest, TrailAccumulatesAndPrints) {
  Degradation d;
  EXPECT_FALSE(d.degraded());
  EXPECT_EQ(d.ToString(), "none");
  d.Add("rewrite", "expansion truncated");
  d.Add("rdb", "row cap hit");
  EXPECT_TRUE(d.degraded());
  EXPECT_EQ(d.ToString(), "rewrite: expansion truncated; rdb: row cap hit");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, Prefixes) {
  EXPECT_TRUE(StartsWith("concept A", "concept "));
  EXPECT_FALSE(StartsWith("co", "concept"));
  EXPECT_TRUE(EndsWith("isPartOf-", "-"));
  EXPECT_FALSE(EndsWith("", "-"));
}

TEST(InternerTest, DenseIdsAndLookup) {
  Interner in;
  EXPECT_EQ(in.Intern("A"), 0u);
  EXPECT_EQ(in.Intern("B"), 1u);
  EXPECT_EQ(in.Intern("A"), 0u);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.NameOf(1), "B");
  EXPECT_EQ(in.Find("B").value(), 1u);
  EXPECT_FALSE(in.Find("C").has_value());
}

TEST(InternerTest, HeterogeneousLookupFindsInternedNames) {
  Interner in;
  std::string owned = "Professor";
  in.Intern(owned);
  // Probe with every supported key shape; none should miss.
  std::string_view view = owned;
  EXPECT_EQ(in.Find(view).value(), 0u);
  EXPECT_EQ(in.Find("Professor").value(), 0u);
  char buffer[] = {'P', 'r', 'o', 'f', 'e', 's', 's', 'o', 'r', 'X'};
  // A non-NUL-terminated view: only valid if lookup never calls .c_str().
  EXPECT_EQ(in.Find(std::string_view(buffer, 9)).value(), 0u);
  EXPECT_FALSE(in.Find(std::string_view(buffer, 10)).has_value());
}

TEST(LruCacheTest, GetReturnsWhatPutStored) {
  ShardedLruCache<std::string, int> cache(/*capacity=*/4, /*num_shards=*/2);
  EXPECT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.Get("a", 1).has_value());
  cache.Put("a", 1, 10);
  cache.Put("b", 2, 20);
  EXPECT_EQ(cache.Get("a", 1).value(), 10);
  EXPECT_EQ(cache.Get("b", 2).value(), 20);
  LruCacheMetrics m = cache.metrics();
  EXPECT_EQ(m.hits, 2u);
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.entries, 2u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  // Single shard, capacity 2: the third insert evicts the least recently
  // *used* entry, not the oldest inserted.
  ShardedLruCache<std::string, int> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", 1, 1);
  cache.Put("b", 2, 2);
  EXPECT_TRUE(cache.Get("a", 1).has_value());  // refresh "a"
  cache.Put("c", 3, 3);                        // evicts "b"
  EXPECT_TRUE(cache.Get("a", 1).has_value());
  EXPECT_FALSE(cache.Get("b", 2).has_value());
  EXPECT_TRUE(cache.Get("c", 3).has_value());
  EXPECT_EQ(cache.metrics().evictions, 1u);
  EXPECT_EQ(cache.ShardEvictions(0), 1u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  ShardedLruCache<std::string, int> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", 1, 1);
  cache.Put("a", 1, 99);
  EXPECT_EQ(cache.Get("a", 1).value(), 99);
  EXPECT_EQ(cache.metrics().entries, 1u);
  EXPECT_EQ(cache.metrics().evictions, 0u);
}

TEST(LruCacheTest, CapacityZeroDisables) {
  ShardedLruCache<std::string, int> cache(/*capacity=*/0);
  EXPECT_FALSE(cache.enabled());
  cache.Put("a", 1, 10);
  EXPECT_FALSE(cache.Get("a", 1).has_value());
  EXPECT_EQ(cache.metrics().entries, 0u);
}

TEST(LruCacheTest, ShardOfIsStableAndInRange) {
  ShardedLruCache<std::string, int> cache(/*capacity=*/16, /*num_shards=*/4);
  EXPECT_EQ(cache.num_shards(), 4u);
  for (uint64_t h : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
    size_t s = cache.ShardOf(h);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, cache.ShardOf(h));
  }
}

TEST(LruCacheTest, ConcurrentMixedAccessIsSafe) {
  ShardedLruCache<std::string, int> cache(/*capacity=*/32, /*num_shards=*/4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "k" + std::to_string((t * 7 + i) % 64);
        uint64_t hash = static_cast<uint64_t>((t * 7 + i) % 64) * 0x9e3779b9;
        if (auto hit = cache.Get(key, hash)) {
          EXPECT_EQ(*hit, static_cast<int>((t * 7 + i) % 64));
        } else {
          cache.Put(key, hash, (t * 7 + i) % 64);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  LruCacheMetrics m = cache.metrics();
  EXPECT_EQ(m.hits + m.misses, 2000u);
  EXPECT_LE(m.entries, 32u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SkewedPickInRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) EXPECT_LT(rng.SkewedPick(17), 17u);
}

// Regression for the modulo bias: with bound = 3 * 2^62 a plain
// `Next() % bound` hits [0, 2^62) twice as often as [2^62, bound) —
// P(v < 2^62) = 1/2 instead of the uniform 1/3. Rejection sampling must
// bring it back to 1/3.
TEST(RngTest, UniformIsUnbiasedAtExtremeBounds) {
  constexpr uint64_t kBound = 3 * (1ULL << 62);
  Rng rng(42);
  int low = 0;
  constexpr int kDraws = 3000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = rng.Uniform(kBound);
    EXPECT_LT(v, kBound);
    if (v < (1ULL << 62)) ++low;
  }
  // ~Binomial(3000, 1/3), sigma ~ 26; +-6 sigma keeps flakes ~1e-9 while
  // the biased implementation would land near 1500.
  EXPECT_GT(low, kDraws / 3 - 155);
  EXPECT_LT(low, kDraws / 3 + 155);
}

// The rejection loop must stay bit-exact deterministic for a fixed seed.
TEST(RngTest, UniformDeterministicWithRejection) {
  Rng a(77), b(77);
  for (int i = 0; i < 200; ++i) {
    uint64_t bound = (1ULL << 62) + 12345 * static_cast<uint64_t>(i + 1);
    EXPECT_EQ(a.Uniform(bound), b.Uniform(bound));
  }
}

}  // namespace
}  // namespace olite
