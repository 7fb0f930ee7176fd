#include "synth/buffering.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

namespace rw::synth {

const liberty::Cell* find_buffer_cell(const liberty::Library& library,
                                      const std::string& preferred) {
  if (const liberty::Cell* c = library.find(preferred)) return c;
  // Fall back to the strongest identity-function cell available.
  const liberty::Cell* best = nullptr;
  for (const auto& cell : library.cells()) {
    if (cell.is_flop || cell.n_inputs() != 1 || cell.truth != 0b10) continue;
    if (best == nullptr || cell.drive_x > best->drive_x) best = &cell;
  }
  if (best == nullptr) {
    throw std::runtime_error("find_buffer_cell: library has no buffer/identity cell");
  }
  return best;
}

int buffer_high_fanout(netlist::Module& module, const liberty::Library& library,
                       const BufferingOptions& options) {
  const std::string buffer_cell = find_buffer_cell(library, options.buffer_cell)->name;
  int inserted = 0;
  int counter = 0;
  // Iterate to a fixed point: buffer outputs can themselves exceed the
  // limit when a net is split into many groups. Each pass indexes the nets
  // that exist when it starts. Splitting a net rewires only that net's sink
  // pins to new buffer nets, so the index stays exact for the nets still
  // ahead in the pass. A new buffer net has at most max_fanout sinks and no
  // primary-output use, so a pass need not revisit it.
  bool changed = true;
  while (changed) {
    changed = false;
    const netlist::Fanout fanout(module);
    const netlist::NetId pass_nets = module.net_count();
    for (netlist::NetId net = 0; net < pass_nets; ++net) {
      if (net == module.clock()) continue;
      const std::span<const netlist::PinUse> sinks = fanout.sinks(net);
      // Primary-output uses stay on the net and count against the limit.
      const auto po_uses = static_cast<std::size_t>(fanout.po_uses(net));
      if (sinks.size() + po_uses <= static_cast<std::size_t>(options.max_fanout)) continue;

      // Keep some sinks on the original net and hand the rest to buffers in
      // groups of max_fanout, such that kept + buffers + POs <= max_fanout.
      const auto total = sinks.size();
      const auto mf = static_cast<std::size_t>(options.max_fanout);
      std::size_t keep = 0;
      for (std::size_t nbuf = 1; nbuf + po_uses < mf; ++nbuf) {
        const std::size_t candidate_keep = mf - nbuf - po_uses;
        if (candidate_keep + nbuf * mf >= total) {
          keep = candidate_keep;
          break;
        }
      }
      std::size_t cursor = keep;
      while (cursor < sinks.size()) {
        const netlist::NetId buffered = module.new_net("buf");
        module.add_instance("zbuf$" + std::to_string(counter++), buffer_cell, {net}, buffered);
        ++inserted;
        const std::size_t end =
            std::min(sinks.size(), cursor + static_cast<std::size_t>(options.max_fanout));
        for (std::size_t s = cursor; s < end; ++s) {
          module.instances()[static_cast<std::size_t>(sinks[s].instance)]
              .fanin[static_cast<std::size_t>(sinks[s].pin)] = buffered;
        }
        cursor = end;
      }
      changed = true;
    }
  }
  return inserted;
}

}  // namespace rw::synth
