#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "common/exec_budget.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/dynamic_closure.h"
#include "graph/reach_merge.h"
#include "graph/scc.h"

namespace olite::graph {
namespace {

TEST(DigraphTest, AddArcGrowsNodes) {
  Digraph g;
  g.AddArc(0, 5);
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_TRUE(g.HasArc(0, 5));
  EXPECT_FALSE(g.HasArc(5, 0));
}

TEST(DigraphTest, FinalizeDeduplicates) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.Finalize();
  EXPECT_EQ(g.NumArcs(), 2u);
  EXPECT_EQ(g.Successors(0).size(), 2u);
  EXPECT_TRUE(g.HasArc(0, 1));
}

TEST(DigraphTest, ReversedFlipsArcs) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.Finalize();
  Digraph r = g.Reversed();
  EXPECT_TRUE(r.HasArc(1, 0));
  EXPECT_TRUE(r.HasArc(2, 1));
  EXPECT_FALSE(r.HasArc(0, 1));
}

TEST(DigraphTest, ToDotMentionsNodesAndArcs) {
  Digraph g(2);
  g.AddArc(0, 1);
  g.Finalize();
  std::string dot = g.ToDot({"A", "B"});
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
}

// Seeded random arc lists with duplicates and self-loops.
std::vector<std::pair<NodeId, NodeId>> RandomArcs(Rng& rng, NodeId n,
                                                  uint64_t count) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (uint64_t e = 0; e < count; ++e) {
    arcs.push_back({static_cast<NodeId>(rng.Uniform(n)),
                    static_cast<NodeId>(rng.Uniform(n))});
  }
  return arcs;
}

// Every row ascends strictly and the rows together hold exactly `want`.
void ExpectRowsHold(const Digraph& g,
                    const std::set<std::pair<NodeId, NodeId>>& want) {
  std::set<std::pair<NodeId, NodeId>> got;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const std::span<const NodeId> row = g.Successors(u);
    for (size_t i = 1; i < row.size(); ++i) {
      ASSERT_LT(row[i - 1], row[i]) << "row " << u;
    }
    for (NodeId v : row) got.insert({u, v});
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(g.NumArcs(), want.size());
}

TEST(DigraphTest, FinalizedRowsAreSortedAndDuplicateFree) {
  Rng rng(0xC5A);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = static_cast<NodeId>(1 + rng.Uniform(50));
    Digraph g(n);
    std::set<std::pair<NodeId, NodeId>> want;
    for (auto [u, v] : RandomArcs(rng, n, rng.Uniform(4 * n + 1))) {
      g.AddArc(u, v);
      want.insert({u, v});
    }
    g.Finalize();
    ExpectRowsHold(g, want);
    // More arcs on the finalized graph, some repeating stored ones, some
    // growing the node set: a second Finalize folds them into the rows.
    for (auto [u, v] : RandomArcs(rng, n + 5, rng.Uniform(2 * n + 1))) {
      g.AddArc(u, v);
      want.insert({u, v});
    }
    for (const auto& [u, v] : want) {
      if (rng.Chance(0.2)) g.AddArc(u, v);
    }
    g.Finalize();
    ExpectRowsHold(g, want);
  }
}

TEST(DigraphTest, ReversedEqualsBruteForceTranspose) {
  Rng rng(0x7A5);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = static_cast<NodeId>(1 + rng.Uniform(50));
    Digraph g(n);
    for (auto [u, v] : RandomArcs(rng, n, rng.Uniform(4 * n + 1))) {
      g.AddArc(u, v);
    }
    g.Finalize();
    std::vector<std::vector<NodeId>> want(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (g.HasArc(v, u)) want[u].push_back(v);
      }
    }
    const Digraph r = g.Reversed();
    ASSERT_EQ(r.NumNodes(), n);
    EXPECT_EQ(r.NumArcs(), g.NumArcs());
    for (NodeId u = 0; u < n; ++u) {
      const std::span<const NodeId> row = r.Successors(u);
      EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), want[u])
          << "trial " << trial << " node " << u;
    }
  }
}

TEST(DigraphDeathTest, ReadingPendingArcsAborts) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.Finalize();
  g.AddArc(1, 2);
  EXPECT_DEATH({ (void)g.Successors(0); }, "pending arcs");
  EXPECT_DEATH({ (void)g.Reversed(); }, "pending arcs");
  EXPECT_DEATH({ (void)g.HasArc(0, 1); }, "pending arcs");
  EXPECT_DEATH({ (void)g.NumArcs(); }, "pending arcs");
}

TEST(SccTest, ChainIsAllSingletons) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.NumComponents(), 4u);
  for (NodeId c = 0; c < 4; ++c) EXPECT_FALSE(scc.cyclic[c]);
  // Reverse topological numbering: successors get smaller component ids.
  EXPECT_LT(scc.component_of[3], scc.component_of[2]);
  EXPECT_LT(scc.component_of[2], scc.component_of[1]);
  EXPECT_LT(scc.component_of[1], scc.component_of[0]);
}

TEST(SccTest, CycleCollapses) {
  Digraph g(5);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  g.AddArc(2, 3);
  g.AddArc(4, 0);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.NumComponents(), 3u);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
  EXPECT_TRUE(scc.cyclic[scc.component_of[0]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[3]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[4]]);
}

TEST(SccTest, SelfLoopIsCyclic) {
  Digraph g(2);
  g.AddArc(0, 0);
  g.Finalize();
  SccResult scc = ComputeScc(g);
  EXPECT_TRUE(scc.cyclic[scc.component_of[0]]);
  EXPECT_FALSE(scc.cyclic[scc.component_of[1]]);
}

// ---------------------------------------------------------------------------
// Closure engines: identical semantics across both implementations.
// ---------------------------------------------------------------------------

// Random digraphs shaped so that the reach-merge kernel's shortcuts fire:
//   0: a spine plus many transitive shortcut arcs (covered successors);
//   1: chained diamonds, some with the shortcut across them;
//   2: single-successor chains that join into trees.
// Arcs run forward in a hidden order, then node ids are shuffled so Tarjan's
// numbering differs from the construction order. `cyclic` adds back arcs and
// self-loops, so the same shapes carry non-trivial components.
Digraph ShapedGraph(Rng& rng, int shape, bool cyclic) {
  const NodeId n = static_cast<NodeId>(8 + rng.Uniform(40));
  std::vector<NodeId> id(n);
  for (NodeId i = 0; i < n; ++i) id[i] = i;
  for (NodeId i = n - 1; i > 0; --i) {
    std::swap(id[i], id[rng.Uniform(i + 1)]);
  }
  Digraph g(n);
  auto arc = [&](NodeId from, NodeId to) { g.AddArc(id[from], id[to]); };
  switch (shape) {
    case 0:
      for (NodeId i = 0; i + 1 < n; ++i) {
        arc(i, i + 1);
        for (int k = 0; k < 3; ++k) {
          arc(i, static_cast<NodeId>(i + 1 + rng.Uniform(n - i - 1)));
        }
      }
      break;
    case 1:
      for (NodeId top = 0; top + 3 < n; top += 3) {
        arc(top, top + 1);
        arc(top, top + 2);
        arc(top + 1, top + 3);
        arc(top + 2, top + 3);
        if (rng.Chance(0.5)) arc(top, top + 3);
      }
      break;
    default:
      for (NodeId i = 0; i + 1 < n; ++i) {
        if (rng.Chance(0.9)) {
          arc(i, static_cast<NodeId>(i + 1 + rng.Uniform(std::min<NodeId>(
                                                 3, n - i - 1))));
        }
      }
      break;
  }
  if (cyclic) {
    for (int k = 0; k < 3; ++k) {
      const NodeId a = static_cast<NodeId>(rng.Uniform(n));
      const NodeId b = static_cast<NodeId>(rng.Uniform(n));
      arc(std::max(a, b), std::min(a, b));  // back arc (self-loop if a == b)
    }
    arc(static_cast<NodeId>(rng.Uniform(n)),
        static_cast<NodeId>(rng.Uniform(n)));
    const NodeId loop = static_cast<NodeId>(rng.Uniform(n));
    arc(loop, loop);
  }
  g.Finalize();
  return g;
}

void ExpectSameClosure(const TransitiveClosure& got,
                       const TransitiveClosure& want, NodeId n) {
  ASSERT_EQ(got.NumClosureArcs(), want.NumClosureArcs()) << got.EngineName();
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(got.ReachableFrom(u), want.ReachableFrom(u))
        << got.EngineName() << " node " << u;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(got.Reaches(u, v), want.Reaches(u, v))
          << got.EngineName() << " arc " << u << "->" << v;
    }
  }
}

// Random digraphs for the SCC properties: uniform ones of every density,
// then the shaped ones with and without cycles.
Digraph SccTestGraph(Rng& rng, int trial) {
  if (trial % 2 == 1) return ShapedGraph(rng, trial % 3, trial % 4 == 1);
  const NodeId n = static_cast<NodeId>(1 + rng.Uniform(40));
  Digraph g(n);
  for (auto [u, v] : RandomArcs(rng, n, rng.Uniform(3 * n + 1))) {
    g.AddArc(u, v);
  }
  g.Finalize();
  return g;
}

TEST(SccTest, ComponentsAreMutualReachabilityUnderBfsOracle) {
  Rng rng(0x5CC);
  for (int trial = 0; trial < 60; ++trial) {
    const Digraph g = SccTestGraph(rng, trial);
    const SccResult scc = ComputeScc(g);
    const auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      const NodeId cu = scc.component_of[u];
      EXPECT_EQ(scc.cyclic[cu], oracle->Reaches(u, u))
          << "trial " << trial << " node " << u;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        const bool mutual =
            u == v || (oracle->Reaches(u, v) && oracle->Reaches(v, u));
        ASSERT_EQ(cu == scc.component_of[v], mutual)
            << "trial " << trial << " nodes " << u << ", " << v;
      }
    }
  }
}

TEST(SccTest, IdsAreReverseTopologicalAndMembersAscend) {
  Rng rng(0x70B0);
  for (int trial = 0; trial < 60; ++trial) {
    const Digraph g = SccTestGraph(rng, trial);
    const SccResult scc = ComputeScc(g);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v : g.Successors(u)) {
        EXPECT_LE(scc.component_of[v], scc.component_of[u])
            << "trial " << trial << " arc " << u << "->" << v;
      }
    }
    ASSERT_EQ(scc.member_ids.size(), g.NumNodes());
    ASSERT_EQ(scc.cyclic.size(), scc.NumComponents());
    for (NodeId c = 0; c < scc.NumComponents(); ++c) {
      const std::span<const NodeId> members = scc.Members(c);
      ASSERT_FALSE(members.empty());
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(members[i - 1], members[i]);
        }
        EXPECT_EQ(scc.component_of[members[i]], c);
      }
    }
  }
}

// The merger's last result, written out.
std::vector<NodeId> Written(const ReachMerger& merger, size_t size) {
  std::vector<NodeId> out(size);
  merger.CopyTo(out.data());
  return out;
}

// A successor's reach list that logs every scan. Its length is free to ask
// for; reading its elements needs `begin()` or `end()`, and each call logs
// the successor's id into `scanned`.
struct LoggedReach {
  std::vector<NodeId> ids;
  NodeId successor = 0;
  std::set<NodeId>* scanned = nullptr;

  size_t size() const { return ids.size(); }
  const NodeId* begin() const {
    scanned->insert(successor);
    return ids.data();
  }
  const NodeId* end() const {
    scanned->insert(successor);
    return ids.data() + ids.size();
  }
};

// Reach lists over successor ids 0..reach.size()-1, scans logged.
std::vector<LoggedReach> Logged(std::vector<std::vector<NodeId>> reach,
                                std::set<NodeId>* scanned) {
  std::vector<LoggedReach> out;
  for (NodeId s = 0; s < reach.size(); ++s) {
    out.push_back({std::move(reach[s]), s, scanned});
  }
  return out;
}

std::vector<NodeId> Added(const ReachMerger& merger) {
  return {merger.added().begin(), merger.added().end()};
}

TEST(ReachMergerTest, SkipsCoveredSuccessorsUnread) {
  // Component space over c3 -> {c0, c1, c2}, where c2 -> c1 -> c0: c1 and c0
  // are covered by c2, so only c2's reach list is scanned. The kernel asks
  // every successor for its length to choose the head; that reads no list.
  std::set<NodeId> scanned;
  const std::vector<LoggedReach> reach = Logged({{}, {0}, {0, 1}}, &scanned);
  auto reach_of = [&](NodeId d) -> const LoggedReach& { return reach[d]; };
  ReachMerger merger(4);
  const std::vector<NodeId> succs = {0, 1, 2};
  const size_t size = merger.Merge(3, succs, reach_of);
  EXPECT_EQ(Written(merger, size), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(scanned, (std::set<NodeId>{2}));
  // Only the head successor's own id is new beyond its reach.
  EXPECT_EQ(merger.head(), 2u);
  EXPECT_EQ(Added(merger), (std::vector<NodeId>{2}));
}

TEST(ReachMergerTest, HeadIsTheLongestReachNotTheLastSuccessor) {
  // c7 -> {c1, c5, c6}: c5 reaches {0, 1, 2, 3}, the last successor c6 only
  // {4}. c5 is the head and is never copied: added() is what lies beyond
  // it. c1 lies in the head, so it is skipped unread although it is visited
  // after the survivor c6; c6 is not covered and is scanned.
  std::set<NodeId> scanned;
  const std::vector<LoggedReach> reach =
      Logged({{}, {0}, {}, {}, {}, {0, 1, 2, 3}, {4}}, &scanned);
  auto reach_of = [&](NodeId d) -> const LoggedReach& { return reach[d]; };
  ReachMerger merger(8);
  const std::vector<NodeId> succs = {1, 5, 6};
  const size_t size = merger.Merge(7, succs, reach_of);
  EXPECT_EQ(merger.head(), 5u);
  EXPECT_EQ(Added(merger), (std::vector<NodeId>{4, 5, 6}));
  EXPECT_EQ(Written(merger, size),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(scanned, (std::set<NodeId>{5, 6}));
}

TEST(ReachMergerTest, TiedReachLengthsTakeTheLargerIdAsHead) {
  // 2 and 7 both reach two ids, and so does 4 in the middle: the head is 7,
  // the larger id, and the others' lists are stamped into added().
  std::vector<std::vector<NodeId>> reach(8);
  reach[2] = {0, 1};
  reach[4] = {1, 3};
  reach[7] = {3, 5};
  auto reach_of = [&](NodeId s) -> const std::vector<NodeId>& {
    return reach[s];
  };
  ReachMerger merger(9);
  const std::vector<NodeId> succs = {2, 4, 7};
  size_t size = merger.Merge(8, succs, reach_of);
  EXPECT_EQ(merger.head(), 7u);
  EXPECT_EQ(Added(merger), (std::vector<NodeId>{0, 1, 2, 4, 7}));
  EXPECT_EQ(Written(merger, size),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 7}));
  // With 7 shorter, the tie between 2 and 4 goes to 4, not the last.
  reach[7] = {5};
  size = merger.Merge(6, succs, reach_of);
  EXPECT_EQ(merger.head(), 4u);
  EXPECT_EQ(Added(merger), (std::vector<NodeId>{0, 2, 4, 5, 7}));
  EXPECT_EQ(Written(merger, size),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 7}));
}

TEST(ReachMergerTest, MergesSurvivorsSortedAndDeduplicated) {
  // Successors named by representative ids, in the kernel's visiting order
  // (back to front): 7 reaches {1, 4}; 2 reaches {4, 5}. Neither covers the
  // other: both are read, and the union with 2 and 7 themselves comes out
  // sorted and deduplicated.
  std::vector<std::vector<NodeId>> reach(8);
  reach[7] = {1, 4};
  reach[2] = {4, 5};
  auto reach_of = [&](NodeId s) -> const std::vector<NodeId>& {
    return reach[s];
  };
  ReachMerger merger(8);
  const std::vector<NodeId> both = {2, 7};
  size_t size = merger.Merge(0, both, reach_of);
  EXPECT_EQ(Written(merger, size), (std::vector<NodeId>{1, 2, 4, 5, 7}));
  // Both reach two ids: the tie goes to 7, the head. Beyond its reach: 2, 5
  // and 7 itself.
  EXPECT_EQ(merger.head(), 7u);
  EXPECT_EQ(Added(merger), (std::vector<NodeId>{2, 5, 7}));
  // A single successor is inserted into its own reach without stamps.
  const std::vector<NodeId> one = {2};
  size = merger.Merge(1, one, reach_of);
  EXPECT_EQ(Written(merger, size), (std::vector<NodeId>{2, 4, 5}));
  // No successors: an empty reach.
  EXPECT_EQ(merger.Merge(2, {}, reach_of), 0u);
}

// One engine at one pool width. Width 1 is the exact serial path; width 4
// runs the same cases through the parallel builds (per-source BFS, and the
// level-parallel SCC propagation).
struct EngineAtWidth {
  ClosureEngine engine;
  unsigned threads;
};

std::string EngineAtWidthName(const EngineAtWidth& p) {
  std::string name = ClosureEngineName(p.engine);
  if (p.threads > 1) name += "_w" + std::to_string(p.threads);
  return name;
}

void PrintTo(const EngineAtWidth& p, std::ostream* os) {
  *os << EngineAtWidthName(p);
}

class ClosureEngineTest : public ::testing::TestWithParam<EngineAtWidth> {
 protected:
  std::unique_ptr<TransitiveClosure> Compute(const Digraph& g) {
    return ComputeClosure(g, GetParam().engine, &pool_);
  }

 private:
  ThreadPool pool_{GetParam().threads};
};

TEST_P(ClosureEngineTest, ChainReachability) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.Finalize();
  auto c = Compute(g);
  EXPECT_TRUE(c->Reaches(0, 3));
  EXPECT_TRUE(c->Reaches(1, 3));
  EXPECT_FALSE(c->Reaches(3, 0));
  EXPECT_FALSE(c->Reaches(0, 0));  // no cycle: not self-reaching
  EXPECT_EQ(c->ReachableFrom(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(c->NumClosureArcs(), 6u);
}

TEST_P(ClosureEngineTest, CycleMembersReachThemselves) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 0);
  g.AddArc(1, 2);
  g.Finalize();
  auto c = Compute(g);
  EXPECT_TRUE(c->Reaches(0, 0));
  EXPECT_TRUE(c->Reaches(1, 1));
  EXPECT_FALSE(c->Reaches(2, 2));
  EXPECT_EQ(c->ReachableFrom(0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(c->ReachableFrom(2), (std::vector<NodeId>{}));
}

TEST_P(ClosureEngineTest, SelfLoop) {
  Digraph g(2);
  g.AddArc(0, 0);
  g.Finalize();
  auto c = Compute(g);
  EXPECT_TRUE(c->Reaches(0, 0));
  EXPECT_FALSE(c->Reaches(1, 1));
}

TEST_P(ClosureEngineTest, DiamondDag) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.AddArc(1, 3);
  g.AddArc(2, 3);
  g.Finalize();
  auto c = Compute(g);
  EXPECT_EQ(c->ReachableFrom(0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(c->NumClosureArcs(), 5u);
}

TEST_P(ClosureEngineTest, EmptyAndIsolated) {
  Digraph g(3);
  g.Finalize();
  auto c = Compute(g);
  EXPECT_FALSE(c->Reaches(0, 1));
  EXPECT_TRUE(c->ReachableFrom(2).empty());
  EXPECT_EQ(c->NumClosureArcs(), 0u);
}

TEST_P(ClosureEngineTest, RandomGraphAgreesWithBfsOracle) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = 40;
    Digraph g(n);
    for (int e = 0; e < 120; ++e) {
      g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
               static_cast<NodeId>(rng.Uniform(n)));
    }
    g.Finalize();
    auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
    auto tested = Compute(g);
    EXPECT_EQ(tested->NumClosureArcs(), oracle->NumClosureArcs());
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(tested->ReachableFrom(u), oracle->ReachableFrom(u))
          << "engine " << tested->EngineName() << " node " << u;
    }
  }
}

TEST_P(ClosureEngineTest, ShapedGraphsAgreeWithBfsOracle) {
  Rng rng(1979);
  for (int trial = 0; trial < 30; ++trial) {
    const Digraph g = ShapedGraph(rng, trial % 3, trial % 2 == 1);
    auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
    auto tested = Compute(g);
    ExpectSameClosure(*tested, *oracle, g.NumNodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ClosureEngineTest,
    ::testing::Values(EngineAtWidth{ClosureEngine::kBfs, 1},
                      EngineAtWidth{ClosureEngine::kSccMerge, 1},
                      EngineAtWidth{ClosureEngine::kBfs, 4},
                      EngineAtWidth{ClosureEngine::kSccMerge, 4}),
    [](const auto& pinfo) { return EngineAtWidthName(pinfo.param); });

// The on-demand view materialises nothing but must answer exactly like the
// engines: path length >= 1, so only cycle members and self-loops reach
// themselves (all-pairs Reaches includes u == v), and ReachableFrom ascends.
TEST(OnDemandClosureTest, RandomGraphAgreesWithBfsOracle) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = 40;
    Digraph g(n);
    for (int e = 0; e < 120; ++e) {
      g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
               static_cast<NodeId>(rng.Uniform(n)));
    }
    g.AddArc(trial, trial);  // at least one self-loop per graph
    g.Finalize();
    // Both directions, as classification uses the view on the transpose.
    for (const Digraph& d : {g, g.Reversed()}) {
      auto oracle = ComputeClosure(d, ClosureEngine::kBfs);
      // The view shares ownership of its digraph: hand it a copy.
      auto view = OnDemandClosure(std::make_shared<const Digraph>(d));
      for (NodeId u = 0; u < n; ++u) {
        EXPECT_EQ(view->ReachableFrom(u), oracle->ReachableFrom(u))
            << "trial " << trial << " node " << u;
        for (NodeId v = 0; v < n; ++v) {
          EXPECT_EQ(view->Reaches(u, v), oracle->Reaches(u, v))
              << "trial " << trial << " arc " << u << "->" << v;
        }
      }
    }
  }
}

// Every engine, serial and at several pool widths, must agree bit-for-bit
// with the serial BFS oracle on random digraphs (including dense, cyclic
// and near-empty shapes) and on the shaped graphs above.
TEST(ClosureParallelTest, EnginesAgreeAtEveryWidthOnRandomGraphs) {
  const ClosureEngine kEngines[] = {ClosureEngine::kBfs,
                                    ClosureEngine::kSccMerge};
  const unsigned kWidths[] = {1, 2, 8};
  Rng rng(2013);
  for (int trial = 0; trial < 80; ++trial) {
    Digraph g;
    if (trial < 50) {
      const NodeId n = static_cast<NodeId>(1 + rng.Uniform(60));
      g = Digraph(n);
      const uint64_t arcs = rng.Uniform(4 * static_cast<uint64_t>(n) + 1);
      for (uint64_t e = 0; e < arcs; ++e) {
        g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
                 static_cast<NodeId>(rng.Uniform(n)));
      }
      g.Finalize();
    } else {
      g = ShapedGraph(rng, trial % 3, trial % 2 == 1);
    }
    const NodeId n = g.NumNodes();
    auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
    for (ClosureEngine engine : kEngines) {
      for (unsigned width : kWidths) {
        ThreadPool pool(width);
        auto c = ComputeClosure(g, engine, &pool);
        ASSERT_EQ(c->NumClosureArcs(), oracle->NumClosureArcs())
            << c->EngineName() << " width " << width << " trial " << trial;
        for (NodeId u = 0; u < n; ++u) {
          ASSERT_EQ(c->ReachableFrom(u), oracle->ReachableFrom(u))
              << c->EngineName() << " width " << width << " trial " << trial
              << " node " << u;
        }
      }
    }
  }
}

// Twelve gadgets, each a root r -> {previous gadget's root, chain head,
// stub}, numbered so that Tarjan finishes the previous gadget, then the
// chain, then the stub. The stub, r's last successor, reaches only the
// chain's end, so r's head is another successor. Some chains end in a
// 2-cycle and some reach back into the previous gadget's stub.
Digraph LongestReachNotLastGraph() {
  Digraph g;
  NodeId next = 0;
  NodeId prev_root = 0;
  NodeId prev_stub = 0;
  for (NodeId k = 0; k < 12; ++k) {
    const NodeId root = next++;
    const NodeId length = 3 + k % 5;
    const NodeId chain = next;
    next += length;
    const NodeId stub = next++;
    if (k > 0) g.AddArc(root, prev_root);
    g.AddArc(root, chain);
    g.AddArc(root, stub);
    for (NodeId i = 0; i + 1 < length; ++i) g.AddArc(chain + i, chain + i + 1);
    g.AddArc(stub, chain + length - 1);
    if (k % 3 == 1) g.AddArc(chain + length - 1, chain + length - 2);
    if (k % 2 == 1) g.AddArc(chain, prev_stub);
    prev_root = root;
    prev_stub = stub;
  }
  g.Finalize();
  return g;
}

TEST(ClosureParallelTest, LongestReachHeadAgreesWithBfsOracleAtWidthsOneAndFour) {
  const Digraph g = LongestReachNotLastGraph();
  const NodeId n = g.NumNodes();
  const auto oracle = ComputeClosure(g, ClosureEngine::kBfs);
  // The premise: some node's last successor component (the largest id) is
  // not the one that reaches the most components.
  const SccResult scc = ComputeScc(g);
  auto reach_length = [&](NodeId c) {
    std::set<NodeId> reached;
    for (NodeId v : oracle->ReachableFrom(scc.Members(c).front())) {
      reached.insert(scc.component_of[v]);
    }
    reached.erase(c);
    return reached.size();
  };
  int longest_not_last = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::set<NodeId> succs;
    for (NodeId v : g.Successors(u)) {
      if (scc.component_of[v] != scc.component_of[u]) {
        succs.insert(scc.component_of[v]);
      }
    }
    if (succs.empty()) continue;
    const size_t last = reach_length(*succs.rbegin());
    for (NodeId d : succs) {
      if (reach_length(d) > last) {
        ++longest_not_last;
        break;
      }
    }
  }
  ASSERT_GE(longest_not_last, 12);
  for (unsigned width : {1u, 4u}) {
    ThreadPool pool(width);
    auto c = ComputeClosure(g, ClosureEngine::kSccMerge, &pool);
    SCOPED_TRACE("width " + std::to_string(width));
    ExpectSameClosure(*c, *oracle, n);
  }
}

// ---------------------------------------------------------------------------
// DynamicClosure: incremental patching, DRed over the SCC condensation
// ---------------------------------------------------------------------------

// All-pairs agreement of a patched closure with a from-scratch closure of
// the same graph — the only contract Patched has — and with the BFS oracle,
// which shares no merge code with either.
void ExpectClosureOf(const DynamicClosure& got, const Digraph& next) {
  DynamicClosure want(next);
  auto oracle = ComputeClosure(next, ClosureEngine::kBfs);
  for (NodeId u = 0; u < next.NumNodes(); ++u) {
    ASSERT_EQ(got.ReachableFrom(u), want.ReachableFrom(u)) << "from " << u;
    ASSERT_EQ(got.ReachableFrom(u), oracle->ReachableFrom(u)) << "from " << u;
  }
  EXPECT_EQ(got.NumClosureArcs(), want.NumClosureArcs());
  EXPECT_EQ(got.NumClosureArcs(), oracle->NumClosureArcs());
}

DynamicClosure::PatchOptions NeverFallBack() {
  DynamicClosure::PatchOptions o;
  o.fallback_fraction = 1.0;
  return o;
}

TEST(DynamicClosureTest, AdditionExtendsChain) {
  Digraph g(8);  // chain 0..3 plus isolated 4..7
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.Finalize();
  DynamicClosure base(g);

  Digraph next = g;
  next.AddArc(3, 4);  // the chain now reaches into the isolated tail
  next.Finalize();
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(next, NeverFallBack(), &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_FALSE(stats.fell_back);
  // The isolated nodes 5..7 are untouched: their components alias the old
  // reach vectors instead of re-merging.
  EXPECT_GT(stats.reused_components, 0u);
  EXPECT_GT(stats.patched_nodes, 0u);
}

TEST(DynamicClosureTest, RemovalBreaksCycle) {
  // DRed over-delete case: removing one arc of the 3-cycle dissolves the
  // SCC; every stale transitive fact must disappear.
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  g.AddArc(2, 3);
  g.Finalize();
  DynamicClosure base(g);
  EXPECT_TRUE(base.Reaches(0, 3));
  EXPECT_TRUE(base.Reaches(1, 0));

  Digraph next(4);  // drop 1 -> 2
  next.AddArc(0, 1);
  next.AddArc(2, 0);
  next.AddArc(2, 3);
  next.Finalize();
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(next, NeverFallBack(), &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_FALSE(stats.fell_back);
  EXPECT_FALSE(patched->Reaches(0, 3));
  EXPECT_FALSE(patched->Reaches(1, 0));
  EXPECT_TRUE(patched->Reaches(2, 1));
}

TEST(DynamicClosureTest, RemovalRederivesThroughAlternatePath) {
  // The re-derivation half of DRed: dropping 2 -> 3 splits the chorded
  // 4-cycle, but 1 still reaches 3 through the chord — the fact must
  // survive the over-deletion.
  Digraph g(5);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.AddArc(3, 0);
  g.AddArc(1, 3);  // chord
  g.AddArc(3, 4);  // tail outside the cycle
  g.Finalize();
  DynamicClosure base(g);

  Digraph next(5);
  next.AddArc(0, 1);
  next.AddArc(1, 2);
  next.AddArc(3, 0);
  next.AddArc(1, 3);
  next.AddArc(3, 4);
  next.Finalize();
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(next, NeverFallBack(), &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_TRUE(patched->Reaches(1, 3));   // re-derived via the chord
  EXPECT_TRUE(patched->Reaches(1, 4));
  EXPECT_FALSE(patched->Reaches(2, 3));  // genuinely gone
}

TEST(DynamicClosureTest, AdditionMergesChainIntoCycle) {
  Digraph g(3);  // chain 0 -> 1 -> 2
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.Finalize();
  DynamicClosure base(g);

  Digraph next = g;
  next.AddArc(2, 0);  // one SCC: everything reaches everything
  next.Finalize();
  auto patched = base.Patched(next, NeverFallBack());
  ExpectClosureOf(*patched, next);
  EXPECT_TRUE(patched->Reaches(2, 1));
  EXPECT_TRUE(patched->Reaches(1, 1));  // cycle members reach themselves
}

TEST(DynamicClosureTest, FallbackFractionZeroForcesScratchMerge) {
  Digraph g(6);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(3, 4);
  g.Finalize();
  DynamicClosure base(g);

  Digraph next = g;
  next.AddArc(4, 5);
  next.Finalize();
  DynamicClosure::PatchOptions opts;
  opts.fallback_fraction = 0.0;
  DynamicClosure::PatchStats stats;
  auto patched = base.Patched(next, opts, &stats);
  ExpectClosureOf(*patched, next);
  EXPECT_TRUE(stats.fell_back);
  EXPECT_EQ(stats.reused_components, 0u);
}

TEST(DynamicClosureTest, PatchAcrossNodeGrowthAndShrink) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.Finalize();
  DynamicClosure base(g);

  Digraph grown(5);
  grown.AddArc(0, 1);
  grown.AddArc(1, 4);
  grown.Finalize();
  auto bigger = base.Patched(grown, NeverFallBack());
  ExpectClosureOf(*bigger, grown);
  EXPECT_TRUE(bigger->Reaches(0, 4));

  Digraph shrunk(2);
  shrunk.AddArc(1, 0);
  shrunk.Finalize();
  auto smaller = bigger->Patched(shrunk, NeverFallBack());
  ExpectClosureOf(*smaller, shrunk);
}

TEST(DynamicClosureTest, ChainedRandomPatchesAgreeWithScratch) {
  // 30 random evolutions of a random graph, patched step by step; every
  // generation must equal the scratch closure, under both the default
  // fallback fraction and the never-fall-back one.
  Rng rng(0xD12ED);
  for (double fraction : {0.25, 1.0}) {
    const NodeId n = 24;
    Digraph g(n);
    for (int e = 0; e < 40; ++e) {
      g.AddArc(static_cast<NodeId>(rng.Uniform(n)),
               static_cast<NodeId>(rng.Uniform(n)));
    }
    g.Finalize();
    auto closure = std::make_unique<DynamicClosure>(g);
    DynamicClosure::PatchOptions opts;
    opts.fallback_fraction = fraction;
    for (int step = 0; step < 30; ++step) {
      Digraph next = g;
      if (rng.Uniform(2) == 0 && next.NumArcs() > 0) {
        // Remove one arc: rebuild without the chosen one.
        const uint64_t victim = rng.Uniform(next.NumArcs());
        Digraph pruned(next.NumNodes());
        uint64_t i = 0;
        for (NodeId u = 0; u < next.NumNodes(); ++u) {
          for (NodeId v : next.Successors(u)) {
            if (i++ != victim) pruned.AddArc(u, v);
          }
        }
        next = std::move(pruned);
      } else {
        next.AddArc(static_cast<NodeId>(rng.Uniform(n)),
                    static_cast<NodeId>(rng.Uniform(n)));
      }
      next.Finalize();
      auto patched = closure->Patched(next, opts);
      ExpectClosureOf(*patched, next);
      closure = std::move(patched);
      g = std::move(next);
    }
  }
}

TEST(DynamicClosureTest, ShapedPatchesAgreeWithBfsOracle) {
  // Patches between shaped graphs of one size: each step swaps in a fresh
  // shape, so dirty components re-merge over shortcut arcs, diamonds and
  // chains whose clean successors alias the previous generation.
  Rng rng(0x5EED);
  for (int shape = 0; shape < 3; ++shape) {
    Digraph g = ShapedGraph(rng, shape, /*cyclic=*/false);
    auto closure = std::make_unique<DynamicClosure>(g);
    for (int step = 0; step < 10; ++step) {
      Digraph next = g;
      // Add a handful of arcs taken from another shape over the same nodes.
      const Digraph donor = ShapedGraph(rng, (shape + step) % 3, step % 2 == 1);
      const NodeId n = next.NumNodes();
      for (NodeId u = 0; u < std::min(n, donor.NumNodes()); u += 5) {
        for (NodeId v : donor.Successors(u)) {
          if (v < n) next.AddArc(u, v);
        }
      }
      next.Finalize();
      auto patched = closure->Patched(next, NeverFallBack());
      ExpectClosureOf(*patched, next);
      closure = std::move(patched);
      g = std::move(next);
    }
  }
}

TEST(DynamicClosureTest, PoolBuiltClosurePatchesThroughShapedDeltas) {
  // A closure built level-parallel on a 4-wide pool is as patchable as a
  // serial one: 40 random deltas (arcs added from a fresh shaped donor,
  // arcs dropped at random), each checked all-pairs against the BFS
  // oracle, alternately under the default fallback fraction and with
  // fallback off.
  Rng rng(0xC4A1);
  ThreadPool pool(4);
  Digraph g = ShapedGraph(rng, 0, /*cyclic=*/true);
  const NodeId n = g.NumNodes();
  std::unique_ptr<DynamicClosure> closure =
      std::make_unique<DynamicClosure>(g, &pool);
  ExpectSameClosure(*closure, *ComputeClosure(g, ClosureEngine::kBfs), n);
  for (int step = 0; step < 40; ++step) {
    const Digraph donor = ShapedGraph(rng, step % 3, step % 2 == 1);
    Digraph next(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : g.Successors(u)) {
        if (!rng.Chance(0.05)) next.AddArc(u, v);
      }
    }
    for (NodeId u = static_cast<NodeId>(rng.Uniform(4));
         u < std::min(n, donor.NumNodes()); u += 4) {
      for (NodeId v : donor.Successors(u)) {
        if (v < n) next.AddArc(u, v);
      }
    }
    next.Finalize();
    auto patched = closure->Patched(
        next, step % 2 == 0 ? DynamicClosure::PatchOptions() : NeverFallBack());
    ExpectSameClosure(*patched, *ComputeClosure(next, ClosureEngine::kBfs), n);
    closure = std::move(patched);
    g = std::move(next);
  }
}

TEST(DynamicClosureTest, CleanComponentsKeepTheirOldMemberSets) {
  // Patched aliases a clean component's reach without comparing member
  // sets. Over 60 small shaped deltas (a few rows replaced by a donor's or
  // thinned), every component that no changed row is reachable from must
  // have exactly the members of its old component, and those are the
  // components Patched reuses.
  Rng rng(0x3E3B);
  Digraph g = ShapedGraph(rng, 0, /*cyclic=*/true);
  const NodeId n = g.NumNodes();
  auto closure = std::make_unique<DynamicClosure>(g);
  uint64_t total_clean = 0;
  uint64_t total_dirty = 0;
  for (int step = 0; step < 60; ++step) {
    const Digraph donor = ShapedGraph(rng, step % 3, step % 2 == 0);
    std::vector<bool> touched(n, false);
    for (int k = 0; k < 1 + static_cast<int>(rng.Uniform(3)); ++k) {
      touched[rng.Uniform(n)] = true;
    }
    Digraph next(n);
    for (NodeId u = 0; u < n; ++u) {
      const bool from_donor =
          touched[u] && step % 3 != 0 && u < donor.NumNodes();
      for (NodeId v : (from_donor ? donor : g).Successors(u)) {
        if (v < n && !(touched[u] && !from_donor && rng.Chance(0.5))) {
          next.AddArc(u, v);
        }
      }
    }
    next.Finalize();

    const auto reach = ComputeClosure(next, ClosureEngine::kBfs);
    std::vector<bool> changed(n);
    for (NodeId u = 0; u < n; ++u) {
      changed[u] = !std::ranges::equal(g.Successors(u), next.Successors(u));
    }
    auto clean = [&](NodeId u) {
      if (changed[u]) return false;
      for (NodeId v : reach->ReachableFrom(u)) {
        if (changed[v]) return false;
      }
      return true;
    };
    const SccResult old_scc = ComputeScc(g);
    const SccResult new_scc = ComputeScc(next);
    uint64_t clean_components = 0;
    for (NodeId c = 0; c < new_scc.NumComponents(); ++c) {
      const std::span<const NodeId> members = new_scc.Members(c);
      if (!clean(members.front())) continue;
      ++clean_components;
      const std::span<const NodeId> old_members =
          old_scc.Members(old_scc.component_of[members.front()]);
      EXPECT_TRUE(std::ranges::equal(members, old_members))
          << "step " << step << " component " << c;
    }

    DynamicClosure::PatchStats stats;
    auto patched = closure->Patched(next, NeverFallBack(), &stats);
    EXPECT_EQ(stats.reused_components, clean_components) << "step " << step;
    ExpectSameClosure(*patched, *reach, n);
    total_clean += clean_components;
    total_dirty += new_scc.NumComponents() - clean_components;
    closure = std::move(patched);
    g = std::move(next);
  }
  // Both kinds occur, so neither half of the check is vacuous.
  EXPECT_GT(total_clean, 0u);
  EXPECT_GT(total_dirty, 0u);
}

// Reach vectors are slices of chunks shared across generations: a patched
// closure's clean components hold slices carved by the generation they were
// first merged in. Over a base and a chain of three patches (each changing
// a few rows near the sources, so most components stay clean and their
// slices are aliased down the chain), the four closures are destroyed in
// every order, the base first among them, and after each destruction every
// component of every survivor is queried. Under ASan a slice that outlived
// its chunk is a use-after-free.
TEST(DynamicClosureTest, ChunksOutliveTheGenerationThatCarvedThem) {
  Rng rng(0xC40C);
  const NodeId n = 160;
  std::vector<Digraph> graphs;
  Digraph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (int k = 0; k < 3; ++k) {
      g.AddArc(u, static_cast<NodeId>(u + 1 + rng.Uniform(n - u - 1)));
    }
    if (rng.Chance(0.1)) g.AddArc(u + 1, u);  // a 2-cycle
  }
  g.Finalize();
  graphs.push_back(g);
  for (int step = 0; step < 3; ++step) {
    Digraph next(n);
    const NodeId changed = static_cast<NodeId>(rng.Uniform(10));
    for (NodeId u = 0; u < n; ++u) {
      if (u == changed) {
        next.AddArc(u, static_cast<NodeId>(u + 1 + rng.Uniform(n - u - 1)));
        continue;
      }
      for (NodeId v : graphs.back().Successors(u)) next.AddArc(u, v);
    }
    next.Finalize();
    graphs.push_back(std::move(next));
  }
  std::vector<std::vector<std::vector<NodeId>>> want(graphs.size());
  std::vector<uint64_t> want_arcs;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const auto oracle = ComputeClosure(graphs[i], ClosureEngine::kBfs);
    for (NodeId u = 0; u < n; ++u) want[i].push_back(oracle->ReachableFrom(u));
    want_arcs.push_back(oracle->NumClosureArcs());
  }

  std::vector<size_t> order = {0, 1, 2, 3};
  do {
    std::vector<std::unique_ptr<DynamicClosure>> gens;
    gens.push_back(std::make_unique<DynamicClosure>(graphs[0]));
    for (size_t i = 1; i < graphs.size(); ++i) {
      DynamicClosure::PatchStats stats;
      gens.push_back(gens.back()->Patched(graphs[i], NeverFallBack(), &stats));
      ASSERT_GT(stats.reused_components, 0u) << "patch " << i;
      ASSERT_GT(stats.dirty_components, 0u) << "patch " << i;
    }
    for (size_t victim : order) {
      gens[victim].reset();
      for (size_t i = 0; i < gens.size(); ++i) {
        if (gens[i] == nullptr) continue;
        ASSERT_EQ(gens[i]->NumClosureArcs(), want_arcs[i]);
        for (NodeId u = 0; u < n; ++u) {
          ASSERT_EQ(gens[i]->ReachableFrom(u), want[i][u])
              << "generation " << i << " node " << u << " after destroying "
              << victim;
        }
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// Every engine at every width stops on an exhausted budget with
// kResourceExhausted, and under a generous budget builds the same closure
// as the unbudgeted call.
TEST(ClosureBudgetTest, EveryEngineAndWidthHonoursTheBudget) {
  Rng rng(0xB0D6);
  const Digraph g = ShapedGraph(rng, 1, /*cyclic=*/true);
  for (ClosureEngine engine : {ClosureEngine::kBfs, ClosureEngine::kSccMerge}) {
    for (unsigned width : {1u, 4u}) {
      ThreadPool pool(width);
      ExecBudget cancelled;
      cancelled.Cancel();
      auto refused = ComputeClosureBudgeted(g, engine, &pool, &cancelled);
      ASSERT_FALSE(refused.ok()) << ClosureEngineName(engine) << " " << width;
      EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

      BudgetCaps caps;
      caps.deadline_ms = 600000;
      ExecBudget generous(caps);
      auto built = ComputeClosureBudgeted(g, engine, &pool, &generous);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      ExpectSameClosure(*built.value(), *ComputeClosure(g, engine),
                        g.NumNodes());
    }
  }
}

}  // namespace
}  // namespace olite::graph
