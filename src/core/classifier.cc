#include "core/classifier.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "graph/dynamic_closure.h"

namespace olite::core {

namespace {

constexpr uint32_t kNoSlot = ~uint32_t{0};

// Sorted predecessor set of `n` under `reverse`, made reflexive
// (pred*(n) always contains n itself since T ⊨ S ⊑ S).
std::vector<graph::NodeId> ReflexivePredecessors(
    const graph::TransitiveClosure& reverse, graph::NodeId n) {
  std::vector<graph::NodeId> preds = reverse.ReachableFrom(n);
  auto it = std::lower_bound(preds.begin(), preds.end(), n);
  if (it == preds.end() || *it != n) preds.insert(it, n);
  return preds;
}

// computeUnsat over `reverse`; `predecessors` is the transposed digraph,
// or null to transpose `g.digraph` only once the fixpoint needs it.
Result<std::vector<bool>> Unsat(const TBoxGraph& g,
                                const graph::TransitiveClosure& reverse,
                                const graph::Digraph* predecessors,
                                const ExecBudget* budget) {
  const graph::NodeId n = g.nodes.NumNodes();
  const auto& nis = g.negative_inclusions;
  const auto& qes = g.qualified_existentials;
  std::vector<bool> unsat(n, false);
  std::vector<graph::NodeId> worklist;

  auto mark = [&](graph::NodeId x) {
    if (!unsat[x]) {
      unsat[x] = true;
      worklist.push_back(x);
    }
  };

  // Qualified-existential successor rule (the paper's "remaining
  // challenge"): the anonymous successor forced by B ⊑ ∃Q.A belongs to
  // every predicate above one of its seeds A and ∃Q⁻. (The ranges ∃r⁻ of
  // Q's super-roles r are above ∃Q⁻ already: every role arc Q1 → Q2 comes
  // with the arc ∃Q1⁻ → ∃Q2⁻.) The successor is contradictory iff one
  // negative inclusion S1 ⊑ ¬S2 has a seed in pred*(S1) and a seed in
  // pred*(S2), and then B is unsatisfiable. (An *unsatisfiable* seed is
  // handled by the fixpoint rules below.) Seed nodes get a slot; the NI
  // pass records, per slot, the NIs whose sides lie above it. Without NIs
  // no successor can clash.
  const bool qe_rule = !nis.empty() && !qes.empty();
  std::vector<uint32_t> slot_of;  // seed node -> slot
  uint32_t num_slots = 0;
  auto seeds_of = [&](const QualifiedExistentialAxiom& qe) {
    return std::array<graph::NodeId, 2>{g.nodes.OfConcept(qe.filler),
                                        g.nodes.OfExists(qe.role.Inverted())};
  };
  if (qe_rule) {
    slot_of.assign(n, kNoSlot);
    for (const auto& qe : qes) {
      for (graph::NodeId s : seeds_of(qe)) {
        if (slot_of[s] == kNoSlot) slot_of[s] = num_slots++;
      }
    }
  }
  // NI ids whose lhs (resp. rhs) side lies above each seed slot.
  std::vector<std::vector<uint32_t>> under_lhs(num_slots);
  std::vector<std::vector<uint32_t>> under_rhs(num_slots);

  // Seeds: for each negative inclusion S1 ⊑ ¬S2, every predicate that is
  // (transitively, reflexively) subsumed by both sides is unsatisfiable.
  for (uint32_t k = 0; k < nis.size(); ++k) {
    if (budget != nullptr && budget->Exhausted()) {
      return budget->Check("classify/unsat");
    }
    std::vector<graph::NodeId> p1 = ReflexivePredecessors(reverse, nis[k].lhs);
    std::vector<graph::NodeId> p2 = ReflexivePredecessors(reverse, nis[k].rhs);
    std::vector<graph::NodeId> both;
    std::set_intersection(p1.begin(), p1.end(), p2.begin(), p2.end(),
                          std::back_inserter(both));
    for (graph::NodeId x : both) mark(x);
    if (qe_rule) {
      for (graph::NodeId x : p1) {
        if (slot_of[x] != kNoSlot) under_lhs[slot_of[x]].push_back(k);
      }
      for (graph::NodeId x : p2) {
        if (slot_of[x] != kNoSlot) under_rhs[slot_of[x]].push_back(k);
      }
    }
  }

  if (qe_rule) {
    // One stamp per NI: stamp[k] == epoch iff a seed of the current
    // successor lies under lhs_k.
    std::vector<uint32_t> stamp(nis.size(), 0);
    uint32_t epoch = 0;
    for (const auto& qe : qes) {
      if (budget != nullptr && budget->Exhausted()) {
        return budget->Check("classify/unsat");
      }
      if (unsat[qe.lhs]) continue;
      ++epoch;
      const std::array<graph::NodeId, 2> seeds = seeds_of(qe);
      for (graph::NodeId s : seeds) {
        for (uint32_t k : under_lhs[slot_of[s]]) stamp[k] = epoch;
      }
      bool clash = false;
      for (graph::NodeId s : seeds) {
        for (uint32_t k : under_rhs[slot_of[s]]) clash |= stamp[k] == epoch;
      }
      if (clash) mark(qe.lhs);
    }
  }
  if (worklist.empty()) return unsat;

  // Index: filler concept -> LHS nodes of qualified existentials, for the
  // rule "B ⊑ ∃Q.A and A unsatisfiable ⇒ B unsatisfiable".
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> qe_by_filler;
  for (const auto& qe : qes) {
    qe_by_filler[g.nodes.OfConcept(qe.filler)].push_back(qe.lhs);
  }
  // pred* is the transitive closure of the raw predecessor arcs, so
  // marking the raw predecessors of every popped node empties all of
  // pred*(x) for each unsatisfiable x: one multi-source reverse BFS.
  std::optional<graph::Digraph> transposed;
  const graph::Digraph& preds =
      predecessors != nullptr ? *predecessors
                              : transposed.emplace(g.digraph.Reversed());

  // Fixpoint propagation.
  uint64_t pops = 0;
  while (!worklist.empty()) {
    if (budget != nullptr && (++pops & 0x3F) == 0 && budget->Exhausted()) {
      return budget->Check("classify/unsat");
    }
    graph::NodeId x = worklist.back();
    worklist.pop_back();

    // Everything subsumed by an unsatisfiable predicate is unsatisfiable.
    for (graph::NodeId p : preds.Successors(x)) mark(p);

    switch (g.nodes.KindOf(x)) {
      case NodeKind::kRole: {
        // An empty role has an empty inverse and empty domain/range.
        dllite::BasicRole q = g.nodes.RoleOf(x);
        mark(g.nodes.OfRole(q.Inverted()));
        mark(g.nodes.OfExists(q));
        mark(g.nodes.OfExists(q.Inverted()));
        break;
      }
      case NodeKind::kExists: {
        // An empty domain (or range) forces the role itself to be empty;
        // the kRole rule then empties the remaining components.
        mark(g.nodes.OfRole(g.nodes.RoleOf(x)));
        break;
      }
      case NodeKind::kAttribute:
        mark(g.nodes.OfAttrDomain(g.nodes.AttributeOf(x)));
        break;
      case NodeKind::kAttrDomain:
        mark(g.nodes.OfAttribute(g.nodes.AttributeOf(x)));
        break;
      case NodeKind::kConcept: {
        // B ⊑ ∃Q.A with unsatisfiable filler A empties B. (An
        // unsatisfiable *role* in the same axiom is covered by the
        // (B, ∃Q) arc plus the predecessor rule above.)
        auto it = qe_by_filler.find(x);
        if (it != qe_by_filler.end()) {
          for (graph::NodeId b : it->second) mark(b);
        }
        break;
      }
    }
  }
  return unsat;
}

}  // namespace

std::vector<bool> ComputeUnsat(const TBoxGraph& g,
                               const graph::TransitiveClosure& /*forward*/,
                               const graph::TransitiveClosure& reverse) {
  // A null budget can never exhaust, so value() cannot die here.
  return Unsat(g, reverse, nullptr, nullptr).value();
}

Result<std::vector<bool>> ComputeUnsatBudgeted(
    const TBoxGraph& g, const graph::TransitiveClosure& reverse,
    const graph::Digraph& predecessors, const ExecBudget* budget) {
  return Unsat(g, reverse, &predecessors, budget);
}

Classification Classify(const dllite::TBox& tbox,
                        const dllite::Vocabulary& vocab,
                        const ClassificationOptions& options) {
  // A null budget can never exhaust, so value() cannot die here.
  return ClassifyBudgeted(tbox, vocab, options, nullptr).value();
}

Result<Classification> ClassifyBudgeted(const dllite::TBox& tbox,
                                        const dllite::Vocabulary& vocab,
                                        const ClassificationOptions& options,
                                        const ExecBudget* budget) {
  ClassificationStats stats;
  Stopwatch sw;

  TBoxGraph g = BuildTBoxGraph(tbox, vocab);
  stats.build_graph_ms = sw.ElapsedMillis();
  stats.num_nodes = g.nodes.NumNodes();
  stats.num_graph_arcs = g.digraph.NumArcs();

  sw.Reset();
  const unsigned threads = ThreadPool::ResolveThreads(options.threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  OLITE_ASSIGN_OR_RETURN(
      std::unique_ptr<graph::TransitiveClosure> forward,
      graph::ComputeClosureBudgeted(g.digraph, options.engine,
                                    pool.has_value() ? &*pool : nullptr,
                                    budget));
  // "What is below x" (computeUnsat's NI seeds, SubConcepts, the rewriter)
  // is a BFS over the transposed raw arcs, linear in the digraph: no second
  // closure is materialised. computeUnsat's predecessor rule walks the
  // same transposition.
  auto transposed =
      std::make_shared<const graph::Digraph>(g.digraph.Reversed());
  std::unique_ptr<graph::TransitiveClosure> reverse =
      graph::OnDemandClosure(transposed);
  stats.closure_ms = sw.ElapsedMillis();
  stats.num_closure_arcs = forward->NumClosureArcs();

  sw.Reset();
  std::vector<bool> unsat(g.nodes.NumNodes(), false);
  if (options.compute_unsat) {
    OLITE_ASSIGN_OR_RETURN(
        unsat, ComputeUnsatBudgeted(g, *reverse, *transposed, budget));
  }
  stats.unsat_ms = sw.ElapsedMillis();
  stats.num_unsat_nodes =
      static_cast<uint64_t>(std::count(unsat.begin(), unsat.end(), true));

  return Classification(std::move(g), std::move(forward), std::move(reverse),
                        std::move(unsat), stats);
}

Classification RefreshClassification(const Classification& base,
                                     const dllite::TBox& tbox,
                                     const dllite::Vocabulary& vocab,
                                     RefreshStats* stats) {
  ClassificationStats cstats;
  Stopwatch sw;
  TBoxGraph g = BuildTBoxGraph(tbox, vocab);
  cstats.build_graph_ms = sw.ElapsedMillis();
  cstats.num_nodes = g.nodes.NumNodes();
  cstats.num_graph_arcs = g.digraph.NumArcs();

  const NodeTable& bn = base.tbox_graph().nodes;
  const auto* base_fwd =
      dynamic_cast<const graph::DynamicClosure*>(&base.closure());
  // Node ids are pure arithmetic over (|concepts|, |roles|, |attributes|):
  // adding a concept shifts every role block, so the layout must match
  // exactly for the patch to be meaningful.
  const bool layout_stable = bn.num_concepts() == g.nodes.num_concepts() &&
                             bn.num_roles() == g.nodes.num_roles() &&
                             bn.num_attributes() == g.nodes.num_attributes();

  auto scratch = [&]() {
    // Every node is re-derived, as on `Patched`'s own fallback.
    if (stats != nullptr) {
      stats->fell_back_scratch = true;
      stats->patched_nodes = g.nodes.NumNodes();
    }
    return Classify(tbox, vocab);
  };
  if (base_fwd == nullptr || !layout_stable) {
    return scratch();
  }

  sw.Reset();
  graph::DynamicClosure::PatchStats fs;
  std::unique_ptr<graph::DynamicClosure> forward =
      base_fwd->Patched(g.digraph, {}, &fs);
  auto transposed =
      std::make_shared<const graph::Digraph>(g.digraph.Reversed());
  std::unique_ptr<graph::TransitiveClosure> reverse =
      graph::OnDemandClosure(transposed);
  if (stats != nullptr) {
    stats->fell_back_scratch = fs.fell_back;
    stats->patched_nodes = fs.patched_nodes;
    stats->reused_components = fs.reused_components;
  }
  cstats.closure_ms = sw.ElapsedMillis();
  cstats.num_closure_arcs = forward->NumClosureArcs();

  sw.Reset();
  // A null budget can never exhaust, so value() cannot die here.
  std::vector<bool> unsat =
      ComputeUnsatBudgeted(g, *reverse, *transposed, nullptr).value();
  cstats.unsat_ms = sw.ElapsedMillis();
  cstats.num_unsat_nodes =
      static_cast<uint64_t>(std::count(unsat.begin(), unsat.end(), true));

  return Classification(std::move(g), std::move(forward), std::move(reverse),
                        std::move(unsat), cstats);
}

std::vector<dllite::ConceptId> Classification::SuperConcepts(
    dllite::ConceptId a) const {
  const NodeTable& nt = graph_.nodes;
  std::vector<dllite::ConceptId> out;
  if (unsat_[nt.OfConcept(a)]) {
    // Ω_T: an unsatisfiable concept is subsumed by every named concept.
    out.reserve(nt.num_concepts() - 1);
    for (uint32_t c = 0; c < nt.num_concepts(); ++c) {
      if (c != a) out.push_back(c);
    }
    return out;
  }
  for (graph::NodeId v : forward_->ReachableFrom(nt.OfConcept(a))) {
    if (nt.KindOf(v) == NodeKind::kConcept && nt.ConceptOf(v) != a) {
      out.push_back(nt.ConceptOf(v));
    }
  }
  return out;
}

std::vector<dllite::ConceptId> Classification::SubConcepts(
    dllite::ConceptId a) const {
  const NodeTable& nt = graph_.nodes;
  std::vector<dllite::ConceptId> out;
  for (graph::NodeId v : reverse_->ReachableFrom(nt.OfConcept(a))) {
    if (nt.KindOf(v) == NodeKind::kConcept && nt.ConceptOf(v) != a) {
      out.push_back(nt.ConceptOf(v));
    }
  }
  // Ω_T: every unsatisfiable concept is a subclass of a.
  for (uint32_t c = 0; c < nt.num_concepts(); ++c) {
    if (c != a && unsat_[nt.OfConcept(c)]) out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<dllite::RoleId> Classification::SuperRoles(
    dllite::RoleId p) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId node = nt.OfRole(dllite::BasicRole::Direct(p));
  std::vector<dllite::RoleId> out;
  if (unsat_[node]) {
    for (uint32_t r = 0; r < nt.num_roles(); ++r) {
      if (r != p) out.push_back(r);
    }
    return out;
  }
  for (graph::NodeId v : forward_->ReachableFrom(node)) {
    if (nt.KindOf(v) == NodeKind::kRole) {
      dllite::BasicRole q = nt.RoleOf(v);
      // Only direct (non-inverse) super-roles name a predicate in Σ.
      if (!q.inverse && q.role != p) out.push_back(q.role);
    }
  }
  return out;
}

std::vector<dllite::AttributeId> Classification::SuperAttributes(
    dllite::AttributeId u) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId node = nt.OfAttribute(u);
  std::vector<dllite::AttributeId> out;
  if (unsat_[node]) {
    for (uint32_t w = 0; w < nt.num_attributes(); ++w) {
      if (w != u) out.push_back(w);
    }
    return out;
  }
  for (graph::NodeId v : forward_->ReachableFrom(node)) {
    if (nt.KindOf(v) == NodeKind::kAttribute && nt.AttributeOf(v) != u) {
      out.push_back(nt.AttributeOf(v));
    }
  }
  return out;
}

std::vector<dllite::ConceptId> Classification::UnsatisfiableConcepts() const {
  std::vector<dllite::ConceptId> out;
  for (uint32_t c = 0; c < graph_.nodes.num_concepts(); ++c) {
    if (unsat_[graph_.nodes.OfConcept(c)]) out.push_back(c);
  }
  return out;
}

std::vector<dllite::RoleId> Classification::UnsatisfiableRoles() const {
  std::vector<dllite::RoleId> out;
  for (uint32_t p = 0; p < graph_.nodes.num_roles(); ++p) {
    if (unsat_[graph_.nodes.OfRole(dllite::BasicRole::Direct(p))]) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<dllite::AttributeId> Classification::UnsatisfiableAttributes()
    const {
  std::vector<dllite::AttributeId> out;
  for (uint32_t u = 0; u < graph_.nodes.num_attributes(); ++u) {
    if (unsat_[graph_.nodes.OfAttribute(u)]) out.push_back(u);
  }
  return out;
}

uint64_t Classification::CountNamedSubsumptions(ThreadPool* pool) const {
  const NodeTable& nt = graph_.nodes;
  // One flat index space over all named predicates; each term is an
  // independent read-only query, so the sum parallelises with per-shard
  // accumulators (exact: uint64 addition is associative).
  const uint64_t nc = nt.num_concepts();
  const uint64_t nr = nt.num_roles();
  const uint64_t na = nt.num_attributes();
  auto term = [&](uint64_t i) -> uint64_t {
    if (i < nc) return SuperConcepts(static_cast<uint32_t>(i)).size();
    if (i < nc + nr) return SuperRoles(static_cast<uint32_t>(i - nc)).size();
    return SuperAttributes(static_cast<uint32_t>(i - nc - nr)).size();
  };
  const uint64_t n = nc + nr + na;
  if (pool == nullptr || pool->num_threads() <= 1) {
    uint64_t total = 0;
    for (uint64_t i = 0; i < n; ++i) total += term(i);
    return total;
  }
  std::vector<uint64_t> partial(pool->num_threads(), 0);
  pool->ParallelForShard(0, n, /*grain=*/64, [&](unsigned shard, size_t i) {
    partial[shard] += term(i);
  });
  uint64_t total = 0;
  for (uint64_t p : partial) total += p;
  return total;
}

}  // namespace olite::core
