#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lint/rules.hpp"
#include "netlist/graph.hpp"
#include "util/strings.hpp"

namespace rw::lint {

bool library_has_variant(const liberty::Library& library, const std::string& base) {
  if (library.find(base) != nullptr) return true;
  std::string other_base;
  double lp = 0.0;
  double ln = 0.0;
  for (const auto& cell : library.cells()) {
    if (util::parse_indexed_cell_name(cell.name, other_base, lp, ln) && other_base == base) {
      return true;
    }
  }
  return false;
}

namespace {

std::string inst_loc(const netlist::Module& module, std::size_t index) {
  return module.name() + ":inst " + module.instances()[index].name;
}

/// NL002 / NL003 / NL006(no output): the structural invariants collected by
/// `Module::check()` — one driver per net, no driven primary inputs, every
/// instance output connected. The run's `SubjectAnalysis` holds the one
/// check that the analyzable guard reads too.
class StructureRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.structure"; }
  [[nodiscard]] std::string_view description() const override {
    return "every used net has exactly one driver and every instance an output";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr) return;
    const std::vector<Diagnostic>& found = subject.analysis->check(subject);
    out.insert(out.end(), found.begin(), found.end());
  }
};

/// NL001: combinational cycles, as `netlist::Graph` defines them. When the
/// graph leaves instances unlevelled, a DFS over its edges reports each
/// cycle once, with the instance path.
class CombCycleRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.cycles"; }
  [[nodiscard]] std::string_view description() const override {
    return "the combinational core is acyclic (flops cut the graph)";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr) return;
    const netlist::Module& m = *subject.module;
    const std::size_t n = m.instances().size();
    // Unresolvable cells are conservatively combinational.
    std::vector<std::uint8_t> flop(n, 0);
    for (std::size_t i = 0; subject.library != nullptr && i < n; ++i) {
      const ResolvedCell r =
          resolve_cell(*subject.library, m.instances()[i].cell, IndexRange::kAny);
      flop[i] = r.cell != nullptr && r.cell->is_flop ? 1 : 0;
    }
    const netlist::Graph graph(m, std::move(flop));
    if (graph.unlevelled().empty()) return;

    // Iterative coloring DFS; when a grey node is re-entered, the stack
    // segment from its first visit is the cycle.
    enum : unsigned char { kWhite, kGrey, kBlack };
    std::vector<unsigned char> color(n, kWhite);
    std::vector<int> stack;        // DFS path (grey nodes, in order)
    std::vector<std::size_t> next; // per path entry: next sink index to try
    for (std::size_t root = 0; root < n; ++root) {
      if (color[root] != kWhite || graph.is_flop(root)) continue;
      stack.assign(1, static_cast<int>(root));
      next.assign(1, 0);
      color[root] = kGrey;
      while (!stack.empty()) {
        const auto u = static_cast<std::size_t>(stack.back());
        const auto sinks = graph.sinks(u);
        if (next.back() < sinks.size()) {
          const int v = sinks[next.back()++];
          const auto vu = static_cast<std::size_t>(v);
          if (color[vu] == kWhite) {
            color[vu] = kGrey;
            stack.push_back(v);
            next.push_back(0);
          } else if (color[vu] == kGrey) {
            report_cycle(m, stack, v, out);
          }
        } else {
          color[u] = kBlack;
          stack.pop_back();
          next.pop_back();
        }
      }
    }
  }

 private:
  static void report_cycle(const netlist::Module& m, const std::vector<int>& stack, int entry,
                           std::vector<Diagnostic>& out) {
    const auto it = std::find(stack.begin(), stack.end(), entry);
    std::string path;
    for (auto p = it; p != stack.end(); ++p) {
      if (!path.empty()) path += " -> ";
      path += m.instances()[static_cast<std::size_t>(*p)].name;
    }
    path += " -> " + m.instances()[static_cast<std::size_t>(entry)].name;
    out.push_back(Diagnostic{rules::kCombCycle, Severity::kError,
                             m.name() + ":inst " + m.instances()[static_cast<std::size_t>(entry)].name,
                             "combinational cycle: " + path,
                             "break the loop with a flop or restructure the logic"});
  }
};

/// NL004: an instance output that feeds nothing and is not a primary output
/// is dead logic (or a forgotten connection).
class DanglingOutputRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.dangling"; }
  [[nodiscard]] std::string_view description() const override {
    return "every instance output reaches a sink or a primary output";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr) return;
    const netlist::Module& m = *subject.module;
    const netlist::Fanout fanout(m);
    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const netlist::NetId o = m.instances()[i].out;
      if (o == netlist::kNoNet) continue;  // NL006 (no output) covers this
      if (fanout.count(o) == 0) {
        out.push_back(Diagnostic{rules::kDanglingOutput, Severity::kWarning, inst_loc(m, i),
                                 "output net " + m.net_name(o) + " feeds nothing",
                                 "remove the dead instance or connect its output"});
      }
    }
  }
};

/// NL005 + NL006(arity): every instance references a library cell (λ-indexed
/// names resolve through their base; absent *corners* are AN002's finding,
/// not NL005's) and connects exactly the cell's input-pin count.
class CellRefRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.cellrefs"; }
  [[nodiscard]] std::string_view description() const override {
    return "instances reference known cells with matching pin counts";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr || subject.library == nullptr) return;
    const netlist::Module& m = *subject.module;
    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const auto& inst = m.instances()[i];
      const ResolvedCell r = resolve_cell(*subject.library, inst.cell, IndexRange::kAny);
      if (r.cell == nullptr) {
        if (r.indexed && library_has_variant(*subject.library, r.base)) continue;  // -> AN002
        out.push_back(Diagnostic{rules::kUnknownCell, Severity::kError, inst_loc(m, i),
                                 "unknown cell " + inst.cell,
                                 "use a cell from the target library"});
        continue;
      }
      const auto want = static_cast<std::size_t>(r.cell->n_inputs());
      if (inst.fanin.size() != want) {
        out.push_back(Diagnostic{
            rules::kPortArity, Severity::kError, inst_loc(m, i),
            "cell " + r.cell->name + " has " + std::to_string(want) + " input pin(s) but " +
                std::to_string(inst.fanin.size()) + " are connected",
            "connect every input pin exactly once"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> netlist_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<StructureRule>());
  rules.push_back(std::make_unique<CombCycleRule>());
  rules.push_back(std::make_unique<DanglingOutputRule>());
  rules.push_back(std::make_unique<CellRefRule>());
  return rules;
}

}  // namespace rw::lint
