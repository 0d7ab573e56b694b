#include "rdb/columnar.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/stopwatch.h"

namespace olite::rdb {

// ---------------------------------------------------------------------------
// EvalSink
// ---------------------------------------------------------------------------

bool EvalSink::Emit(Row row) {
  if (stop_) return false;
  auto [it, inserted] = rows_.insert(std::move(row));
  if (!inserted) return true;
  if (budget_ != nullptr && !budget_->Consume(Quota::kRows)) {
    // The row that blew the quota must not be kept: the result set stays
    // exactly at the cap.
    rows_.erase(it);
    Exhaust(Status::ResourceExhausted("rdb: row quota exhausted at " +
                                      std::to_string(rows_.size()) +
                                      " rows"));
    return false;
  }
  return true;
}

bool EvalSink::PollScan() {
  if (stop_) return false;
  if (budget_ != nullptr && (++scanned_ & 0xFF) == 0) {
    Status s = budget_->Check("rdb");
    if (!s.ok()) {
      Exhaust(std::move(s));
      return false;
    }
  } else if (budget_ == nullptr) {
    ++scanned_;
  }
  return true;
}

void EvalSink::Exhaust(Status why) {
  stop_ = true;
  if (exhausted_.ok()) exhausted_ = std::move(why);
}

std::vector<Row> EvalSink::TakeSorted() {
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (auto it = rows_.begin(); it != rows_.end();) {
    out.push_back(std::move(rows_.extract(it++).value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace columnar {
namespace {

constexpr size_t kBatchRows = 1024;

// Type-tagged value rendering for canonical keys: Value::ToString alone is
// ambiguous across types (Int(1) and Double(1.0) both render "1").
std::string ValueKey(const Value& v) {
  std::string out;
  switch (v.type()) {
    case ValueType::kInt: out = "I"; break;
    case ValueType::kDouble: out = "D"; break;
    case ValueType::kString: out = "S"; break;
  }
  out += v.ToString();
  return out;
}

// Per-FROM-entry structure of a block, grouped for planning.
struct TableInfo {
  std::vector<std::pair<size_t, Value>> filters;   // (col, value)
  std::vector<std::pair<size_t, size_t>> self_eq;  // col == col, same table
};

// A join edge between two distinct FROM entries.
struct Edge {
  size_t t1, c1, t2, c2;
};

struct BlockShape {
  std::vector<TableInfo> tables;
  std::vector<Edge> edges;
};

BlockShape ShapeOf(const ResolvedBlock& block) {
  BlockShape shape;
  shape.tables.resize(block.tables.size());
  for (const auto& [ref, value] : block.filters) {
    shape.tables[ref.table_index].filters.emplace_back(ref.column_index,
                                                       value);
  }
  for (const auto& [l, r] : block.joins) {
    if (l.table_index == r.table_index) {
      auto lo = std::min(l.column_index, r.column_index);
      auto hi = std::max(l.column_index, r.column_index);
      shape.tables[l.table_index].self_eq.emplace_back(lo, hi);
    } else {
      shape.edges.push_back(
          {l.table_index, l.column_index, r.table_index, r.column_index});
    }
  }
  for (auto& t : shape.tables) {
    std::sort(t.filters.begin(), t.filters.end());
    std::sort(t.self_eq.begin(), t.self_eq.end());
  }
  return shape;
}

// Position-independent description of one FROM entry: the unit of the
// sharing-aware tie-break (how many blocks bind a structurally identical
// table?) and of every sharing key. Rendered once per FROM entry per plan
// and interned (see `CompilePlan`).
std::string TableSignature(const ResolvedBlock& block, const BlockShape& shape,
                           size_t t) {
  std::string sig = "T:";
  sig += block.tables[t]->schema().table_name;
  sig += "|F:";
  for (const auto& [col, value] : shape.tables[t].filters) {
    sig += std::to_string(col) + "=" + ValueKey(value) + ",";
  }
  sig += "|E:";
  for (const auto& [a, b] : shape.tables[t].self_eq) {
    sig += std::to_string(a) + "~" + std::to_string(b) + ",";
  }
  return sig;
}

// A sharing key in integer terms: interned signature ids, key ids and
// column positions.
using SlotKey = std::vector<uint32_t>;

struct SlotKeyHasher {
  size_t operator()(const SlotKey& key) const {
    uint64_t h = kFnv1aBasis;
    for (uint32_t v : key) h = Fnv1aWord(v, h);
    return h;
  }
};

// Interns the sharing keys of one plan to dense ids and counts the steps
// that use each.
class KeyTable {
 public:
  uint32_t Intern(const SlotKey& key) {
    auto [it, fresh] =
        ids_.try_emplace(key, static_cast<uint32_t>(uses_.size()));
    if (fresh) uses_.push_back(0);
    ++uses_[it->second];
    return it->second;
  }
  size_t size() const { return uses_.size(); }
  bool shared(uint32_t id) const { return uses_[id] >= 2; }

 private:
  std::unordered_map<SlotKey, uint32_t, SlotKeyHasher> ids_;
  std::vector<uint32_t> uses_;
};

// Estimated cardinality of `t` after its local filters: rows × ∏ 1/distinct.
double FilteredCard(const ResolvedBlock& block, const BlockShape& shape,
                    size_t t, const DatabaseStats* stats) {
  const TableStats* ts =
      stats == nullptr
          ? nullptr
          : stats->Find(block.tables[t]->schema().table_name);
  double card = ts != nullptr
                    ? static_cast<double>(ts->rows)
                    : static_cast<double>(block.tables[t]->NumRows());
  for (const auto& [col, value] : shape.tables[t].filters) {
    (void)value;
    card /= ts != nullptr ? static_cast<double>(ts->Distinct(col)) : 1.0;
  }
  return std::max(card, 1e-6);
}

uint64_t DistinctOf(const ResolvedBlock& block, size_t t, size_t col,
                    const DatabaseStats* stats) {
  const TableStats* ts =
      stats == nullptr
          ? nullptr
          : stats->Find(block.tables[t]->schema().table_name);
  return ts != nullptr ? ts->Distinct(col) : 1;
}

// Greedy cost-based join ordering. At each step pick the unbound FROM entry
// minimising the estimated intermediate cardinality (filtered cardinality ×
// join selectivities against the bound set; unconnected entries pay a large
// cross-product penalty). Among candidates within 4× of the best cost, the
// one whose table signature occurs in the most blocks wins — clustering
// structure common across union blocks at the front of the order so shared
// prefixes actually materialise once.
// `sigs` holds the interned signature of each FROM entry, `sig_freq` the
// number of blocks binding each signature.
std::vector<size_t> GreedyOrder(const ResolvedBlock& block,
                                const BlockShape& shape,
                                const DatabaseStats* stats,
                                const std::vector<uint32_t>& sigs,
                                const std::vector<size_t>& sig_freq) {
  const size_t n = block.tables.size();
  std::vector<size_t> order;
  std::vector<bool> chosen(n, false);
  std::vector<double> fcard(n);
  std::vector<size_t> freq(n);
  for (size_t t = 0; t < n; ++t) {
    fcard[t] = FilteredCard(block, shape, t, stats);
    freq[t] = sig_freq[sigs[t]];
  }
  double cur_card = 1.0;
  for (size_t step = 0; step < n; ++step) {
    // Cost every remaining candidate.
    std::vector<double> cost(n, 0.0);
    std::vector<double> joined_card(n, 0.0);
    double best = 0.0;
    bool have_best = false;
    for (size_t t = 0; t < n; ++t) {
      if (chosen[t]) continue;
      double sel = 1.0;
      bool connected = order.empty();  // the first step needs no edge
      for (const Edge& e : shape.edges) {
        size_t a = e.t1, ca = e.c1, b = e.t2, cb = e.c2;
        if (b == t && chosen[a]) std::swap(a, b), std::swap(ca, cb);
        if (a != t || !chosen[b]) continue;
        connected = true;
        sel /= static_cast<double>(std::max(
            DistinctOf(block, a, ca, stats), DistinctOf(block, b, cb, stats)));
      }
      joined_card[t] = std::max(cur_card * fcard[t] * sel, 1e-6);
      cost[t] = joined_card[t] * (connected ? 1.0 : 1e6);
      if (!have_best || cost[t] < best) best = cost[t], have_best = true;
    }
    // Pick: within 4× of the best cost, highest cross-block signature
    // frequency wins; original position breaks remaining ties.
    size_t pick = n;
    for (size_t t = 0; t < n; ++t) {
      if (chosen[t] || cost[t] > best * 4.0) continue;
      if (pick == n || freq[t] > freq[pick]) pick = t;
    }
    chosen[pick] = true;
    order.push_back(pick);
    cur_card = std::max(joined_card[pick], 1.0);
  }
  return order;
}

// Compiles one block in `order`. Each step's `prefix_slot` and
// `build_slot` receive the ids `prefix_keys` and `build_keys` intern for
// its prefix and its hash build (kNoSlot: the step builds none);
// `AssignSlots` turns them into slots once every block is compiled.
BlockProgram CompileBlock(const ResolvedBlock& block, const BlockShape& shape,
                          const std::vector<uint32_t>& sigs,
                          const std::vector<size_t>& order,
                          KeyTable* prefix_keys, KeyTable* build_keys) {
  const size_t n = block.tables.size();
  BlockProgram prog;
  prog.row_template = block.row_template;
  std::vector<size_t> pos_of(n, 0);
  for (size_t s = 0; s < n; ++s) {
    pos_of[order[s]] = s;
    if (order[s] != s) prog.reordered = true;
  }
  SlotKey key;
  for (size_t s = 0; s < n; ++s) {
    const size_t t = order[s];
    Step step;
    step.table = block.tables[t];
    step.orig_index = t;
    step.filters = shape.tables[t].filters;
    step.self_eq = shape.tables[t].self_eq;
    if (!block.ranges.empty()) step.range = block.ranges[t];
    for (const Edge& e : shape.edges) {
      size_t a = e.t1, ca = e.c1, b = e.t2, cb = e.c2;
      // Apply each edge at the later-bound endpoint.
      if (pos_of[a] > pos_of[b]) std::swap(a, b), std::swap(ca, cb);
      if (b != t) continue;
      step.joins.push_back({pos_of[a], ca, cb});
    }
    std::sort(step.joins.begin(), step.joins.end(),
              [](const JoinPred& x, const JoinPred& y) {
                if (x.prefix_pos != y.prefix_pos)
                  return x.prefix_pos < y.prefix_pos;
                if (x.prefix_col != y.prefix_col)
                  return x.prefix_col < y.prefix_col;
                return x.col < y.col;
              });
    // Canonical prefix key: the previous step's prefix id, then table
    // signature + join structure in purely positional terms — equal keys
    // ⇒ equal intermediates, regardless of which block the prefix came
    // from.
    key.assign({s == 0 ? kNoSlot : prog.steps.back().prefix_slot,
                sigs[t]});
    for (const JoinPred& j : step.joins) {
      key.insert(key.end(), {static_cast<uint32_t>(j.prefix_pos),
                             static_cast<uint32_t>(j.prefix_col),
                             static_cast<uint32_t>(j.col)});
    }
    step.prefix_slot = prefix_keys->Intern(key);
    // Build key: table signature + build columns — equal keys ⇒ equal
    // hash tables, whatever prefix probes them.
    if (s > 0 && !step.joins.empty()) {
      key.assign({sigs[t]});
      for (const JoinPred& j : step.joins) {
        key.push_back(static_cast<uint32_t>(j.col));
      }
      step.build_slot = build_keys->Intern(key);
    }
    prog.steps.push_back(std::move(step));
  }
  for (size_t i = 0; i < block.select.size(); ++i) {
    prog.outputs.push_back({pos_of[block.select[i].table_index],
                            block.select[i].column_index,
                            block.select_positions[i]});
  }
  return prog;
}

// Rewrites the key ids `CompileBlock` left in `Step::*field` as slots: a key
// that two or more steps use gets a slot (in first-use order), any other
// key kNoSlot. Lists each slot under `BlockProgram::*last` of the last
// program that uses it. Returns the number of slots.
uint32_t AssignSlots(const KeyTable& keys, uint32_t Step::*field,
                     std::vector<uint32_t> BlockProgram::*last,
                     std::vector<BlockProgram>* programs) {
  std::vector<uint32_t> slot_of(keys.size(), kNoSlot);
  std::vector<size_t> last_program;
  for (size_t b = 0; b < programs->size(); ++b) {
    for (Step& step : (*programs)[b].steps) {
      uint32_t& id = step.*field;
      if (id == kNoSlot) continue;
      if (!keys.shared(id)) {
        id = kNoSlot;
        continue;
      }
      uint32_t& slot = slot_of[id];
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(last_program.size());
        last_program.push_back(b);
      }
      last_program[slot] = b;
      id = slot;
    }
  }
  for (uint32_t slot = 0; slot < last_program.size(); ++slot) {
    ((*programs)[last_program[slot]].*last).push_back(slot);
  }
  return static_cast<uint32_t>(last_program.size());
}

bool RowPasses(const Step& step, const Row& row) {
  for (const auto& [col, value] : step.filters) {
    if (!(row[col] == value)) return false;
  }
  for (const auto& [a, b] : step.self_eq) {
    if (!(row[a] == row[b])) return false;
  }
  return true;
}

// Batched filtered scan of a step's bound range, or of its whole table when
// it has none, into ascending row indices. Fault site and batch counter
// tick once per batch of rows read; the sink polls the budget per row read.
// Sets *aborted (and returns OK) when the sink stops evaluation.
Status FilterScan(const Step& step, EvalSink* sink, EvalStats* stats,
                  std::vector<uint32_t>* out, bool* aborted) {
  const auto& rows = step.table->rows();
  const uint32_t* range_rows = step.range ? step.range->data() : nullptr;
  const size_t n = step.range ? step.range->size() : rows.size();
  for (size_t base = 0; base < n; base += kBatchRows) {
    OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kRdbExecute));
    if (stats != nullptr) ++stats->batches;
    const size_t end = std::min(n, base + kBatchRows);
    for (size_t k = base; k < end; ++k) {
      if (!sink->PollScan()) {
        *aborted = true;
        return Status::Ok();
      }
      const auto i =
          range_rows != nullptr ? range_rows[k] : static_cast<uint32_t>(k);
      if (RowPasses(step, rows[i])) out->push_back(i);
    }
  }
  return Status::Ok();
}

void AppendTuple(const Chunk& prefix, size_t i, uint32_t r, Chunk* next) {
  for (size_t c = 0; c < prefix.cols.size(); ++c) {
    next->cols[c].push_back(prefix.cols[c][i]);
  }
  next->cols.back().push_back(r);
  ++next->rows;
}

// A step's hash build: its filtered rows keyed on their `joins[*].col`
// values. Insertion order keeps each bucket in table row order, so probe
// output is deterministic.
using HashBuild =
    std::unordered_map<std::vector<Value>, std::vector<uint32_t>,
                       ValueVecHasher>;

// Filtered scan of `step` built into `*out`. When the sink stops
// evaluation mid-scan, *aborted is set, OK returned and `*out` left empty:
// a partial build is never stored.
Status Build(const Step& step, EvalSink* sink, EvalStats* stats,
             std::optional<HashBuild>* out, bool* aborted) {
  std::vector<uint32_t> matches;
  OLITE_RETURN_IF_ERROR(FilterScan(step, sink, stats, &matches, aborted));
  if (*aborted) return Status::Ok();
  HashBuild& ht = out->emplace();
  ht.reserve(matches.size());
  std::vector<Value> key;
  key.reserve(step.joins.size());
  for (uint32_t r : matches) {
    const Row& row = step.table->rows()[r];
    key.clear();
    for (const JoinPred& j : step.joins) key.push_back(row[j.col]);
    ht[key].push_back(r);
  }
  return Status::Ok();
}

// One call's materialised slots: shared prefixes and shared hash builds.
struct SlotState {
  std::vector<std::shared_ptr<const Chunk>> prefixes;
  std::vector<std::optional<HashBuild>> builds;
};

// One join step: the new table's hash build (read from its build slot when
// an earlier step of the call built it), batched probe over the prefix
// tuples; cross product when no join predicate connects the step.
Status JoinStep(const std::vector<Step>& steps, size_t k, const Chunk& prefix,
                SlotState* slots, EvalSink* sink, EvalStats* stats,
                Chunk* next, bool* aborted) {
  const Step& step = steps[k];
  if (prefix.rows == 0) return Status::Ok();  // short-circuit: stays empty
  if (step.joins.empty()) {
    // Cross product (rare: a disconnected FROM entry).
    std::vector<uint32_t> matches;
    OLITE_RETURN_IF_ERROR(FilterScan(step, sink, stats, &matches, aborted));
    if (*aborted || matches.empty()) return Status::Ok();
    for (size_t base = 0; base < prefix.rows; base += kBatchRows) {
      OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kRdbExecute));
      if (stats != nullptr) ++stats->batches;
      const size_t end = std::min(prefix.rows, base + kBatchRows);
      for (size_t i = base; i < end; ++i) {
        if (!sink->PollScan()) {
          *aborted = true;
          return Status::Ok();
        }
        for (uint32_t r : matches) AppendTuple(prefix, i, r, next);
      }
    }
    return Status::Ok();
  }
  std::optional<HashBuild> local;
  std::optional<HashBuild>& build = step.build_slot == kNoSlot
                                        ? local
                                        : slots->builds[step.build_slot];
  if (!build) {
    OLITE_RETURN_IF_ERROR(Build(step, sink, stats, &build, aborted));
    if (*aborted) return Status::Ok();
  } else if (stats != nullptr) {
    ++stats->shared_build_hits;
  }
  const HashBuild& ht = *build;
  if (ht.empty()) return Status::Ok();
  // Probe the prefix tuples in order, in batches.
  std::vector<Value> key;
  key.reserve(step.joins.size());
  for (size_t base = 0; base < prefix.rows; base += kBatchRows) {
    OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kRdbExecute));
    if (stats != nullptr) ++stats->batches;
    const size_t end = std::min(prefix.rows, base + kBatchRows);
    for (size_t i = base; i < end; ++i) {
      if (!sink->PollScan()) {
        *aborted = true;
        return Status::Ok();
      }
      key.clear();
      for (const JoinPred& j : step.joins) {
        key.push_back(steps[j.prefix_pos]
                          .table->rows()[prefix.cols[j.prefix_pos][i]]
                                        [j.prefix_col]);
      }
      auto it = ht.find(key);
      if (it == ht.end()) continue;
      for (uint32_t r : it->second) AppendTuple(prefix, i, r, next);
    }
  }
  return Status::Ok();
}

}  // namespace

Plan CompilePlan(const std::vector<ResolvedBlock>& blocks,
                 const DatabaseStats* stats, uint64_t shuffle_seed) {
  std::vector<BlockShape> shapes;
  shapes.reserve(blocks.size());
  for (const auto& block : blocks) shapes.push_back(ShapeOf(block));
  // Pass 1: each FROM entry's table signature, rendered once and interned
  // (`sigs[b][t]`), and cross-block signature frequencies (each block
  // counts a signature once) — the raw material of the sharing-aware
  // tie-break.
  std::unordered_map<std::string, uint32_t> sig_ids;
  std::vector<std::vector<uint32_t>> sigs(blocks.size());
  std::vector<size_t> sig_freq;
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t t = 0; t < blocks[b].tables.size(); ++t) {
      auto [it, fresh] = sig_ids.try_emplace(
          TableSignature(blocks[b], shapes[b], t),
          static_cast<uint32_t>(sig_freq.size()));
      if (fresh) sig_freq.push_back(0);
      sigs[b].push_back(it->second);
    }
    std::vector<uint32_t> seen = sigs[b];
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (uint32_t sig : seen) ++sig_freq[sig];
  }
  // Pass 2: order and compile each block.
  Plan plan;
  plan.programs.reserve(blocks.size());
  KeyTable prefix_keys, build_keys;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const size_t n = blocks[b].tables.size();
    std::vector<size_t> order;
    if (shuffle_seed != 0) {
      order.resize(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      std::mt19937_64 rng(shuffle_seed * 0x9e3779b97f4a7c15ULL + b);
      std::shuffle(order.begin(), order.end(), rng);
    } else if (stats != nullptr) {
      order = GreedyOrder(blocks[b], shapes[b], stats, sigs[b], sig_freq);
    } else {
      // No statistics (ad-hoc execution): keep the written order.
      order.resize(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
    }
    plan.programs.push_back(CompileBlock(blocks[b], shapes[b], sigs[b], order,
                                         &prefix_keys, &build_keys));
  }
  // Pass 3: slots for the prefixes and builds two or more steps share.
  plan.prefix_slots =
      AssignSlots(prefix_keys, &Step::prefix_slot,
                  &BlockProgram::last_prefix_slots, &plan.programs);
  plan.build_slots =
      AssignSlots(build_keys, &Step::build_slot,
                  &BlockProgram::last_build_slots, &plan.programs);
  return plan;
}

Status EvalPlan(const Plan& plan, EvalSink* sink, EvalStats* stats,
                size_t* blocks_done) {
  SlotState slots;
  slots.prefixes.resize(plan.prefix_slots);
  slots.builds.resize(plan.build_slots);
  for (const auto& prog : plan.programs) {
    if (sink->stopped()) break;
    OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kRdbExecute));
    Stopwatch block_sw;
    if (stats != nullptr && prog.reordered) ++stats->join_reorders;
    // Resume from the deepest prefix already materialised in this call.
    size_t start = 0;
    std::shared_ptr<const Chunk> cur;
    for (size_t k = prog.steps.size(); k > 0; --k) {
      const uint32_t slot = prog.steps[k - 1].prefix_slot;
      if (slot != kNoSlot && slots.prefixes[slot] != nullptr) {
        cur = slots.prefixes[slot];
        start = k;
        break;
      }
    }
    if (start > 0 && stats != nullptr) ++stats->shared_node_hits;
    bool aborted = false;
    for (size_t k = start; k < prog.steps.size(); ++k) {
      const Step& step = prog.steps[k];
      auto next = std::make_shared<Chunk>();
      next->cols.resize(k + 1);
      if (k == 0) {
        OLITE_RETURN_IF_ERROR(
            FilterScan(step, sink, stats, &next->cols[0], &aborted));
        next->rows = next->cols[0].size();
      } else {
        OLITE_RETURN_IF_ERROR(JoinStep(prog.steps, k, *cur, &slots, sink,
                                       stats, next.get(), &aborted));
      }
      if (aborted) break;  // partial intermediate: never store it
      cur = std::move(next);
      if (step.prefix_slot != kNoSlot &&
          slots.prefixes[step.prefix_slot] == nullptr) {
        slots.prefixes[step.prefix_slot] = cur;
        if (stats != nullptr) ++stats->shared_nodes;
      }
    }
    if (aborted) {
      if (stats != nullptr) stats->block_us.push_back(block_sw.ElapsedMicros());
      break;
    }
    // No later program reads these slots.
    for (uint32_t slot : prog.last_prefix_slots) slots.prefixes[slot].reset();
    for (uint32_t slot : prog.last_build_slots) slots.builds[slot].reset();
    // Projection: batched emit into the hashed distinct union.
    bool stopped = false;
    for (size_t base = 0; base < cur->rows && !stopped; base += kBatchRows) {
      OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kRdbExecute));
      if (stats != nullptr) ++stats->batches;
      const size_t end = std::min(cur->rows, base + kBatchRows);
      for (size_t i = base; i < end; ++i) {
        Row row = prog.row_template;
        for (const Output& o : prog.outputs) {
          row[o.out_pos] =
              prog.steps[o.step_pos].table->rows()[cur->cols[o.step_pos][i]]
                                                  [o.col];
        }
        if (!sink->Emit(std::move(row))) {
          stopped = true;
          break;
        }
      }
    }
    if (stats != nullptr) stats->block_us.push_back(block_sw.ElapsedMicros());
    if (sink->stopped()) break;
    if (blocks_done != nullptr) ++(*blocks_done);
  }
  return Status::Ok();
}

}  // namespace columnar
}  // namespace olite::rdb
