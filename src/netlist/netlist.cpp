#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace rw::netlist {

Module::Module(std::string name) : name_(std::move(name)) {}

NetId Module::add_net(const std::string& net_name) {
  if (find_net(net_name) != kNoNet) {
    throw std::invalid_argument("Module::add_net: duplicate net " + net_name);
  }
  net_names_.push_back(net_name);
  driver_.push_back(-1);
  const auto id = static_cast<NetId>(net_names_.size() - 1);
  net_index_.emplace(net_name, id);
  return id;
}

NetId Module::new_net(const std::string& prefix) {
  // Generated names live in their own "<prefix>$k" namespace to avoid
  // clashing with user names.
  return add_net(prefix + "$" + std::to_string(gen_counter_++));
}

void Module::rename_net(NetId id, const std::string& new_name) {
  if (id < 0 || id >= net_count()) throw std::out_of_range("Module::rename_net: bad id");
  if (find_net(new_name) != kNoNet) {
    throw std::invalid_argument("Module::rename_net: name in use: " + new_name);
  }
  net_index_.erase(net_names_[static_cast<std::size_t>(id)]);
  net_names_[static_cast<std::size_t>(id)] = new_name;
  net_index_.emplace(new_name, id);
}

NetId Module::find_net(const std::string& net_name) const {
  const auto it = net_index_.find(net_name);
  return it == net_index_.end() ? kNoNet : it->second;
}

const std::string& Module::net_name(NetId id) const {
  if (id < 0 || id >= net_count()) throw std::out_of_range("Module::net_name: bad id");
  return net_names_[static_cast<std::size_t>(id)];
}

void Module::mark_input(NetId id) {
  if (std::find(inputs_.begin(), inputs_.end(), id) == inputs_.end()) inputs_.push_back(id);
}

void Module::mark_output(NetId id) {
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) outputs_.push_back(id);
}

void Module::set_clock(NetId id) {
  clock_ = id;
  mark_input(id);
}

bool Module::is_input(NetId id) const {
  return std::find(inputs_.begin(), inputs_.end(), id) != inputs_.end();
}

std::size_t Module::add_instance(const std::string& inst_name, const std::string& cell,
                                 std::vector<NetId> fanin, NetId out) {
  if (out < 0 || out >= net_count()) {
    throw std::invalid_argument("Module::add_instance: bad output net for " + inst_name);
  }
  if (driver_[static_cast<std::size_t>(out)] != -1) {
    throw std::invalid_argument("Module::add_instance: net " + net_name(out) +
                                " already driven (instance " + inst_name + ")");
  }
  for (NetId f : fanin) {
    if (f < 0 || f >= net_count()) {
      throw std::invalid_argument("Module::add_instance: bad fanin net for " + inst_name);
    }
  }
  driver_[static_cast<std::size_t>(out)] = static_cast<int>(instances_.size());
  instances_.push_back(Instance{inst_name, cell, std::move(fanin), out});
  return instances_.size() - 1;
}

std::size_t Module::add_instance_lenient(const std::string& inst_name, const std::string& cell,
                                         std::vector<NetId> fanin, NetId out) {
  if (out >= net_count()) {
    throw std::invalid_argument("Module::add_instance_lenient: bad output net for " + inst_name);
  }
  if (out < 0) out = kNoNet;
  for (NetId f : fanin) {
    if (f < 0 || f >= net_count()) {
      throw std::invalid_argument("Module::add_instance_lenient: bad fanin net for " + inst_name);
    }
  }
  const int index = static_cast<int>(instances_.size());
  if (out != kNoNet) {
    if (driver_[static_cast<std::size_t>(out)] == -1) {
      driver_[static_cast<std::size_t>(out)] = index;
    } else {
      extra_drivers_.emplace_back(out, index);
    }
  }
  instances_.push_back(Instance{inst_name, cell, std::move(fanin), out});
  return instances_.size() - 1;
}

void Module::remove_last_instance(std::size_t index) {
  if (index + 1 != instances_.size()) {
    throw std::invalid_argument("Module::remove_last_instance: not the last instance");
  }
  const NetId out = instances_.back().out;
  const int self = static_cast<int>(index);
  if (out != kNoNet && driver_[static_cast<std::size_t>(out)] == self) {
    driver_[static_cast<std::size_t>(out)] = -1;
  }
  while (!extra_drivers_.empty() && extra_drivers_.back().second == self) {
    extra_drivers_.pop_back();
  }
  instances_.pop_back();
}

int Module::driver(NetId net) const {
  if (net < 0 || net >= net_count()) throw std::out_of_range("Module::driver: bad net");
  return driver_[static_cast<std::size_t>(net)];
}

std::vector<lint::Diagnostic> Module::check() const {
  std::vector<lint::Diagnostic> out;
  const Fanout fanout(*this);
  std::vector<bool> is_pi(driver_.size(), false);
  for (NetId n : inputs_) {
    if (n >= 0 && n < net_count()) is_pi[static_cast<std::size_t>(n)] = true;
  }
  const auto emit = [&](const char* rule, const std::string& location, std::string message,
                        std::string hint) {
    out.push_back(lint::Diagnostic{rule, lint::Severity::kError, name_ + ":" + location,
                                   std::move(message), std::move(hint)});
  };
  for (NetId n = 0; n < net_count(); ++n) {
    const bool driven = driver_[static_cast<std::size_t>(n)] != -1;
    if (driven && is_pi[static_cast<std::size_t>(n)]) {
      emit(lint::rules::kMultiDrivenNet, "net " + net_name(n),
           "primary input is also driven by instance " +
               instances_[static_cast<std::size_t>(driver_[static_cast<std::size_t>(n)])].name,
           "remove the port marking or the driving instance");
    }
    if (!driven && !is_pi[static_cast<std::size_t>(n)]) {
      // Dangling nets (no sinks, not an output) are allowed — they arise
      // when trial optimization moves are backed out.
      if (fanout.count(n) > 0) {
        emit(lint::rules::kUndrivenNet, "net " + net_name(n),
             "used net has no driver and is not a primary input",
             "drive the net or mark it as an input");
      }
    }
  }
  for (const auto& [net, extra] : extra_drivers_) {
    const int first = driver_[static_cast<std::size_t>(net)];
    emit(lint::rules::kMultiDrivenNet, "net " + net_name(net),
         "driven by multiple instances (" +
             instances_[static_cast<std::size_t>(first)].name + " and " +
             instances_[static_cast<std::size_t>(extra)].name + ")",
         "keep exactly one driver per net");
  }
  for (const auto& inst : instances_) {
    if (inst.out == kNoNet || inst.out >= net_count()) {
      emit(lint::rules::kPortArity, "inst " + inst.name, "instance has no output net",
           "connect the cell's output pin");
    }
  }
  return out;
}

Fanout::Fanout(const Module& module) {
  const auto n_nets = static_cast<std::size_t>(module.net_count());
  const auto& instances = module.instances();
  // Counting sort keyed by net: count, prefix-sum, then fill in instance
  // order so each net's slice comes out sorted by (instance, pin).
  offset_.assign(n_nets + 1, 0);
  for (const Instance& inst : instances) {
    for (NetId f : inst.fanin) {
      if (f != kNoNet) ++offset_[static_cast<std::size_t>(f) + 1];
    }
  }
  for (std::size_t n = 0; n < n_nets; ++n) offset_[n + 1] += offset_[n];
  uses_.resize(static_cast<std::size_t>(offset_[n_nets]));
  std::vector<int> cursor(offset_.begin(), offset_.end() - 1);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& fanin = instances[i].fanin;
    for (std::size_t p = 0; p < fanin.size(); ++p) {
      if (fanin[p] == kNoNet) continue;
      uses_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(fanin[p])]++)] =
          PinUse{static_cast<int>(i), static_cast<int>(p)};
    }
  }
  po_uses_.assign(n_nets, 0);
  for (NetId po : module.outputs()) {
    if (po >= 0 && po < module.net_count()) ++po_uses_[static_cast<std::size_t>(po)];
  }
}

void Module::validate() const {
  const auto diagnostics = check();
  if (diagnostics.empty()) return;
  std::string message = "Module::validate: " + std::to_string(diagnostics.size()) +
                        " violation(s) in module " + name_ + "\n";
  message += lint::format_report(diagnostics);
  throw std::runtime_error(message);
}

}  // namespace rw::netlist
