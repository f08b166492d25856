#include "exec/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace inlt {

namespace {

// Per cell: the sequence of write labels, and for each epoch (before
// the first write, after write 0, after write 1, ...) the sorted list
// of read labels.
struct CellTrace {
  std::vector<std::string> writes;
  std::vector<std::vector<std::string>> read_epochs{1};
};

std::map<std::string, CellTrace> trace_of(
    const Program& p, const std::map<std::string, i64>& params) {
  std::map<std::string, CellTrace> cells;
  Memory mem;
  declare_arrays(p, params, mem);
  fill_spd(mem, 1);
  InterpOptions opts;
  opts.engine = ExecEngine::kAstWalker;
  opts.observer = [&](const AccessEvent& ev) {
    std::string key = ev.array;
    for (i64 i : ev.index) key += "," + std::to_string(i);
    CellTrace& ct = cells[key];
    if (ev.is_write) {
      ct.writes.push_back(ev.stmt);
      ct.read_epochs.emplace_back();
    } else {
      ct.read_epochs.back().push_back(ev.stmt);
    }
  };
  interpret(p, params, mem, opts);
  for (auto& [key, ct] : cells)
    for (auto& epoch : ct.read_epochs)
      std::sort(epoch.begin(), epoch.end());
  return cells;
}

}  // namespace

TraceCheckResult check_dependence_order(
    const Program& source, const Program& transformed,
    const std::map<std::string, i64>& params) {
  auto a = trace_of(source, params);
  auto b = trace_of(transformed, params);

  std::ostringstream os;
  if (a.size() != b.size()) {
    os << "different sets of touched cells (" << a.size() << " vs "
       << b.size() << ")";
    return {false, os.str()};
  }
  for (const auto& [cell, ta] : a) {
    auto it = b.find(cell);
    if (it == b.end()) {
      os << "cell " << cell << " untouched in transformed program";
      return {false, os.str()};
    }
    const CellTrace& tb = it->second;
    if (ta.writes != tb.writes) {
      os << "cell " << cell << ": write order differs (source ";
      for (const auto& w : ta.writes) os << w << " ";
      os << "vs transformed ";
      for (const auto& w : tb.writes) os << w << " ";
      os << ")";
      return {false, os.str()};
    }
    for (size_t e = 0; e < ta.read_epochs.size(); ++e) {
      if (ta.read_epochs[e] != tb.read_epochs[e]) {
        os << "cell " << cell << ": reads after write " << e
           << " differ — a read observes a different producer";
        return {false, os.str()};
      }
    }
  }
  return {true, ""};
}

}  // namespace inlt
