#include "rdb/columnar.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string_view>

#include "common/fault_injection.h"
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
// table?).
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
std::vector<size_t> GreedyOrder(
    const ResolvedBlock& block, const BlockShape& shape,
    const DatabaseStats* stats,
    const std::unordered_map<std::string, size_t>& sig_freq) {
  const size_t n = block.tables.size();
  std::vector<size_t> order;
  std::vector<bool> chosen(n, false);
  std::vector<double> fcard(n);
  std::vector<size_t> freq(n);
  for (size_t t = 0; t < n; ++t) {
    fcard[t] = FilteredCard(block, shape, t, stats);
    auto it = sig_freq.find(TableSignature(block, shape, t));
    freq[t] = it == sig_freq.end() ? 0 : it->second;
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

BlockProgram CompileBlock(const ResolvedBlock& block, const BlockShape& shape,
                          const std::vector<size_t>& order) {
  const size_t n = block.tables.size();
  BlockProgram prog;
  prog.row_template = block.row_template;
  std::vector<size_t> pos_of(n, 0);
  for (size_t s = 0; s < n; ++s) {
    pos_of[order[s]] = s;
    if (order[s] != s) prog.reordered = true;
  }
  std::string key;
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
    // Cumulative canonical key: table + filters + self-equalities + join
    // structure in purely positional terms — equal keys ⇒ equal
    // intermediates, regardless of which block the prefix came from.
    key += TableSignature(block, shape, t);
    key += "|J:";
    for (const JoinPred& j : step.joins) {
      key += std::to_string(j.prefix_pos) + "." + std::to_string(j.prefix_col) +
             "=" + std::to_string(j.col) + ",";
    }
    key += ";";
    step.prefix_key = key;
    prog.steps.push_back(std::move(step));
  }
  for (size_t i = 0; i < block.select.size(); ++i) {
    prog.outputs.push_back({pos_of[block.select[i].table_index],
                            block.select[i].column_index,
                            block.select_positions[i]});
  }
  return prog;
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

// One join step: filtered scan of the new table, hash build keyed on its
// join columns, batched probe over the prefix tuples (cross product when no
// join predicate connects the step).
Status JoinStep(const std::vector<Step>& steps, size_t k, const Chunk& prefix,
                EvalSink* sink, EvalStats* stats, Chunk* next, bool* aborted) {
  const Step& step = steps[k];
  if (prefix.rows == 0) return Status::Ok();  // short-circuit: stays empty
  std::vector<uint32_t> matches;
  OLITE_RETURN_IF_ERROR(FilterScan(step, sink, stats, &matches, aborted));
  if (*aborted || matches.empty()) return Status::Ok();
  if (step.joins.empty()) {
    // Cross product (rare: a disconnected FROM entry).
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
  // Build on the (filtered) new side; insertion order keeps each bucket in
  // table row order, so probe output is deterministic.
  std::unordered_map<std::vector<Value>, std::vector<uint32_t>, ValueVecHasher>
      ht;
  ht.reserve(matches.size());
  std::vector<Value> key;
  key.reserve(step.joins.size());
  for (uint32_t r : matches) {
    const Row& row = step.table->rows()[r];
    key.clear();
    for (const JoinPred& j : step.joins) key.push_back(row[j.col]);
    ht[key].push_back(r);
  }
  // Probe the prefix tuples in order, in batches.
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

std::vector<BlockProgram> CompilePlan(const std::vector<ResolvedBlock>& blocks,
                                      const DatabaseStats* stats,
                                      uint64_t shuffle_seed) {
  std::vector<BlockShape> shapes;
  shapes.reserve(blocks.size());
  for (const auto& block : blocks) shapes.push_back(ShapeOf(block));
  // Pass 1: cross-block signature frequencies (each block counts a
  // signature once) — the raw material of the sharing-aware tie-break.
  std::unordered_map<std::string, size_t> sig_freq;
  for (size_t b = 0; b < blocks.size(); ++b) {
    std::unordered_set<std::string> seen;
    for (size_t t = 0; t < blocks[b].tables.size(); ++t) {
      seen.insert(TableSignature(blocks[b], shapes[b], t));
    }
    for (const auto& sig : seen) ++sig_freq[sig];
  }
  // Pass 2: order and compile each block.
  std::vector<BlockProgram> programs;
  programs.reserve(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    const size_t n = blocks[b].tables.size();
    std::vector<size_t> order;
    if (shuffle_seed != 0) {
      order.resize(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      std::mt19937_64 rng(shuffle_seed * 0x9e3779b97f4a7c15ULL + b);
      std::shuffle(order.begin(), order.end(), rng);
    } else if (stats != nullptr) {
      order = GreedyOrder(blocks[b], shapes[b], stats, sig_freq);
    } else {
      // No statistics (ad-hoc execution): keep the written order.
      order.resize(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
    }
    programs.push_back(CompileBlock(blocks[b], shapes[b], order));
  }
  return programs;
}

Status EvalPlan(const std::vector<BlockProgram>& programs, EvalSink* sink,
                EvalStats* stats, size_t* blocks_done) {
  // Only prefixes appearing in ≥2 blocks are worth materialising in the
  // shared cache.
  std::unordered_map<std::string, size_t> key_blocks;
  for (const auto& prog : programs) {
    for (const auto& step : prog.steps) ++key_blocks[step.prefix_key];
  }
  PrefixCache cache;
  for (const auto& prog : programs) {
    if (sink->stopped()) break;
    OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kRdbExecute));
    Stopwatch block_sw;
    if (stats != nullptr && prog.reordered) ++stats->join_reorders;
    // Resume from the deepest already-materialised shared prefix.
    size_t start = 0;
    std::shared_ptr<const Chunk> cur;
    for (size_t k = prog.steps.size(); k > 0; --k) {
      auto it = cache.find(prog.steps[k - 1].prefix_key);
      if (it != cache.end()) {
        cur = it->second;
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
        OLITE_RETURN_IF_ERROR(JoinStep(prog.steps, k, *cur, sink, stats,
                                       next.get(), &aborted));
      }
      if (aborted) break;  // partial intermediate: never cache it
      cur = std::move(next);
      if (key_blocks[step.prefix_key] > 1 &&
          cache.find(step.prefix_key) == cache.end()) {
        cache.emplace(step.prefix_key, cur);
        if (stats != nullptr) ++stats->shared_nodes;
      }
    }
    if (aborted) {
      if (stats != nullptr) stats->block_us.push_back(block_sw.ElapsedMicros());
      break;
    }
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
