#pragma once

/// \file timingsim.hpp
/// Event-driven gate-level timing simulation with SDF-style per-arc delays.
/// Flops capture whatever logic value is present on D at the clock edge —
/// if the combinational cloud has not settled (aged delays exceeding the
/// clock period), the wrong value is captured, which is precisely the timing
/// -error mechanism behind the paper's image-quality experiments
/// (Figs. 6(c), 7).

#include <queue>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/graph.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sdf.hpp"

namespace rw::logicsim {

class TimingSimulator {
 public:
  /// `period_ps` is the clock period all scenarios share (the paper runs
  /// every scenario at the fresh design's maximum frequency).
  TimingSimulator(const netlist::Module& module, const liberty::Library& library,
                  const netlist::DelayAnnotation& annotation, double period_ps);

  /// Sets a primary-input value to be applied at the *next* clock edge.
  void set_input(netlist::NetId net, bool value);

  /// Advances one clock period: applies pending input changes and flop
  /// outputs at the edge, propagates events until the next edge, then
  /// captures flop D values there. After the call, `sampled(net)` returns
  /// the value each net held at the capture instant.
  void run_cycle();

  /// Net value at the most recent clock edge (capture time).
  [[nodiscard]] bool sampled(netlist::NetId net) const;

  /// Current simulation time (ps).
  [[nodiscard]] double now_ps() const { return now_ps_; }

  [[nodiscard]] const netlist::Module& module() const { return module_; }

  /// Resets to time 0 with all state initialized from a zero-delay
  /// evaluation of current inputs and zeroed flops.
  void reset();

 private:
  void schedule(double t_ps, netlist::NetId net, bool value);
  void evaluate_sinks(netlist::NetId net, double t_ps);
  void process_until(double t_ps);

  struct Event {
    double t_ps;
    long seq;  ///< FIFO tie-break for same-time events
    netlist::NetId net;
    bool value;
    long version;  ///< inertial semantics: only the newest event per net applies
    bool operator>(const Event& other) const {
      return t_ps != other.t_ps ? t_ps > other.t_ps : seq > other.seq;
    }
  };

  const netlist::Module& module_;
  const liberty::Library& library_;
  const netlist::DelayAnnotation& annotation_;
  double period_ps_;
  netlist::Graph graph_;

  std::vector<bool> net_value_;
  std::vector<bool> sampled_value_;
  std::vector<bool> pending_input_;      ///< value to apply at next edge
  std::vector<bool> has_pending_input_;
  std::vector<std::uint64_t> truth_;
  std::vector<int> flop_instances_;
  std::vector<bool> flop_state_;
  std::vector<bool> last_scheduled_;     ///< per instance: last scheduled output value
  std::vector<long> net_version_;        ///< per net: newest scheduled event version

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  double now_ps_ = 0.0;
  long seq_ = 0;
};

}  // namespace rw::logicsim
