#include "logicsim/activity.hpp"

#include <stdexcept>

namespace rw::logicsim {

ActivityCollector::ActivityCollector(int net_count) {
  high_counts_.assign(static_cast<std::size_t>(net_count), 0);
  toggle_counts_.assign(static_cast<std::size_t>(net_count), 0);
  last_.assign(static_cast<std::size_t>(net_count), 0);
}

void ActivityCollector::observe(const CycleSimulator& sim) {
  const std::uint8_t* const v = sim.values().data();
  const std::size_t n = sim.values().size();
  // Toggles count from the second observation on: before it, last_ holds no value.
  const std::size_t counts_toggles = cycles_ > 0 ? 1 : 0;
  for (std::size_t i = 0; i < n; ++i) {
    high_counts_[i] += v[i];
    toggle_counts_[i] += counts_toggles & static_cast<std::size_t>(v[i] ^ last_[i]);
    last_[i] = v[i];
  }
  ++cycles_;
}

std::optional<double> ActivityCollector::probability_high(netlist::NetId net) const {
  if (cycles_ == 0) return std::nullopt;
  return static_cast<double>(high_counts_[static_cast<std::size_t>(net)]) /
         static_cast<double>(cycles_);
}

std::optional<double> ActivityCollector::toggle_rate(netlist::NetId net) const {
  if (cycles_ < 2) return std::nullopt;
  return static_cast<double>(toggle_counts_[static_cast<std::size_t>(net)]) /
         static_cast<double>(cycles_ - 1);
}

std::vector<netlist::InstanceDuty> extract_duty_cycles(const netlist::Module& module,
                                                       const liberty::Library& library,
                                                       const ActivityCollector& activity) {
  if (activity.cycles() == 0) {
    throw std::invalid_argument("logicsim: duty extraction needs at least one observed cycle");
  }
  std::vector<netlist::InstanceDuty> duties;
  duties.reserve(module.instances().size());
  for (const auto& inst : module.instances()) {
    const liberty::Cell& cell = library.at(inst.cell);
    const auto input_pins = cell.input_pins();
    double sum_high = 0.0;
    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      const bool is_clock_pin = input_pins[p]->is_clock;
      sum_high += is_clock_pin ? 0.5 : activity.probability_high(inst.fanin[p]).value();
    }
    const double avg_high =
        inst.fanin.empty() ? 0.5 : sum_high / static_cast<double>(inst.fanin.size());
    // nMOS stressed while gate high; pMOS stressed while gate low.
    duties.push_back(netlist::InstanceDuty{1.0 - avg_high, avg_high});
  }
  return duties;
}

}  // namespace rw::logicsim
