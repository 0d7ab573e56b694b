#include "graph/digraph.h"

#include "common/status.h"

namespace olite::graph {

void Digraph::DieOnPendingArcs() {
  internal::DieOnStatus(
      "graph::Digraph read with pending arcs",
      Status::FailedPrecondition("call Finalize() after AddArc"));
}

void Digraph::Finalize() {
  if (pending_.empty()) return;
  const NodeId n = NumNodes();
  // Counting sort by source: row u gets its stored arcs, then its pending
  // ones. offsets[u] is row u's write cursor during the scatter and ends
  // at the start of row u + 1, so one shift turns the cursors into bounds.
  std::vector<size_t> offsets(size_t{n} + 1, 0);
  for (const Arc& a : pending_) ++offsets[a.from + 1];
  for (NodeId u = 0; u < n; ++u) {
    offsets[u + 1] += offsets[u] + (offsets_[u + 1] - offsets_[u]);
  }
  std::vector<NodeId> ids(offsets[n]);
  if (!ids_.empty()) {
    for (NodeId u = 0; u < n; ++u) {
      const std::span<const NodeId> row = Row(u);
      std::copy(row.begin(), row.end(), ids.begin() + offsets[u]);
      offsets[u] += row.size();
    }
  }
  for (const Arc& a : pending_) ids[offsets[a.from]++] = a.to;
  std::vector<Arc>().swap(pending_);
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

  // Sort and deduplicate each row, compacting in place: the write cursor
  // never passes the start of the row being read.
  size_t begin = 0;
  size_t out = 0;
  for (NodeId u = 0; u < n; ++u) {
    const size_t end = offsets[u + 1];
    NodeId* row = ids.data() + begin;
    size_t size = end - begin;
    if (size > 1) {
      std::sort(row, row + size);
      size = std::unique(row, row + size) - row;
    }
    if (out != begin) std::copy(row, row + size, ids.data() + out);
    out += size;
    offsets[u + 1] = out;
    begin = end;
  }
  ids.resize(out);
  offsets_ = std::move(offsets);
  ids_ = std::move(ids);
}

bool Digraph::HasArc(NodeId from, NodeId to) const {
  if (from >= NumNodes()) return false;
  const std::span<const NodeId> row = Successors(from);
  return std::binary_search(row.begin(), row.end(), to);
}

Digraph Digraph::Reversed() const {
  CheckFinalized();
  const NodeId n = NumNodes();
  Digraph rev(n);
  for (NodeId v : ids_) ++rev.offsets_[v + 1];
  for (NodeId v = 0; v < n; ++v) rev.offsets_[v + 1] += rev.offsets_[v];
  rev.ids_.resize(ids_.size());
  std::vector<size_t> fill(rev.offsets_.begin(), rev.offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : Successors(u)) rev.ids_[fill[v]++] = u;
  }
  return rev;
}

std::string Digraph::ToDot(const std::vector<std::string>& name_of) const {
  std::string out = "digraph G {\n";
  for (NodeId u = 0; u < NumNodes(); ++u) {
    const std::string& from =
        u < name_of.size() ? name_of[u] : std::to_string(u);
    out += "  \"" + from + "\";\n";
    for (NodeId v : Successors(u)) {
      const std::string& to =
          v < name_of.size() ? name_of[v] : std::to_string(v);
      out += "  \"" + from + "\" -> \"" + to + "\";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace olite::graph
