#include "jfm/tools/elaborate.hpp"

#include <vector>

#include "jfm/support/telemetry.hpp"
#include "schematic_index.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;
using support::Status;

namespace {

struct Elaborator {
  const SchematicResolver& resolver;
  Circuit circuit;
  /// Instance path of the scope being flattened ("" for top, "u1/"
  /// below). Signal names are built by appending to it and cutting back,
  /// so naming a signal reuses one buffer.
  std::string path;

  /// Intern the signal `<path><name>`, or `<path><name>.<pin>`.
  int signal(std::string_view name, std::string_view pin = {}) {
    const std::size_t scope = path.size();
    path += name;
    if (!pin.empty()) {
      path += '.';
      path += pin;
    }
    const int id = circuit.add_signal(path);
    path.resize(scope);
    return id;
  }

  /// Flatten one schematic at `path`. `index` and `valid` are what
  /// SchematicIndex::build gave for it. `net_signals` has one entry per
  /// net: the parent signal that a connected port aliases, else -1.
  Status flatten(const Schematic& sch, const detail::SchematicIndex& index, const Status& valid,
                 std::vector<int>& net_signals, int depth) {
    if (depth > 32) {
      return support::fail(Errc::consistency_violation, "hierarchy deeper than 32 levels");
    }
    if (!valid.ok()) return valid;

    // Ports alias parent signals; every other net, unconnected ports
    // included, gets a local signal.
    for (std::size_t n = 0; n < sch.nets.size(); ++n) {
      if (net_signals[n] < 0) net_signals[n] = signal(sch.nets[n]);
    }

    const std::size_t prims = sch.primitives.size();
    for (std::size_t k = 0; k < prims; ++k) {
      const Primitive& prim = sch.primitives[k];
      // The net on each of the gate's pin slots, -1 where unconnected.
      int slot_nets[detail::SchematicIndex::kMaxGatePins] = {-1, -1, -1};
      for (int c : index.pins_of(k)) {
        const auto& pin = index.pin(static_cast<std::size_t>(c));
        slot_nets[pin.slot] = pin.net;
      }
      auto pin_signal = [&](std::size_t slot, std::string_view pin) {
        if (slot_nets[slot] >= 0) return net_signals[static_cast<std::size_t>(slot_nets[slot])];
        // Unconnected pin: give it a dedicated X-valued signal.
        return signal(prim.name, pin);
      };
      CircuitGate gate;
      gate.type = prim.gate;
      const auto inputs = gate_input_pins(prim.gate);
      gate.inputs.reserve(inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) gate.inputs.push_back(pin_signal(i, inputs[i]));
      gate.output = pin_signal(inputs.size(), gate_output_pin(prim.gate));
      circuit.gates.push_back(std::move(gate));
    }

    for (std::size_t i = 0; i < sch.instances.size(); ++i) {
      const SchInstance& inst = sch.instances[i];
      auto child = resolver({inst.master_cell, inst.master_view});
      if (!child.ok()) {
        return support::fail(child.error().code,
                             "instance " + path + inst.name + " (" + inst.master_cell + "/" +
                                 inst.master_view + "): " + child.error().message);
      }
      detail::SchematicIndex child_index;
      const Status child_valid = child_index.build(*child);
      // Map the child's ports to this scope's nets via the instance pins.
      // A pin the master does not declare is an error; the one reported
      // is the first in pin-name order.
      std::vector<int> child_nets(child->nets.size(), -1);
      const Connection* undeclared = nullptr;
      for (int c : index.pins_of(prims + i)) {
        const Connection& conn = sch.connections[static_cast<std::size_t>(c)];
        if (child_index.find_port(conn.pin) < 0) {
          if (undeclared == nullptr || conn.pin < undeclared->pin) undeclared = &conn;
        } else if (child_valid.ok()) {
          child_nets[static_cast<std::size_t>(child_index.find_net(conn.pin))] =
              net_signals[static_cast<std::size_t>(index.pin(static_cast<std::size_t>(c)).net)];
        }
      }
      if (undeclared != nullptr) {
        return support::fail(Errc::consistency_violation,
                             "instance " + path + inst.name + " connects pin " + undeclared->pin +
                                 " that master " + inst.master_cell + " does not declare");
      }
      const std::size_t scope = path.size();
      path += inst.name;
      path += '/';
      auto st = flatten(*child, child_index, child_valid, child_nets, depth + 1);
      path.resize(scope);
      if (!st.ok()) return st;
    }
    return {};
  }
};

}  // namespace

Result<Circuit> elaborate(const Schematic& top, const std::string& top_name,
                          const SchematicResolver& resolver) {
  JFM_SPAN("tools", "elaborate");
  (void)top_name;  // kept for symmetric APIs; top nets are unprefixed
  Elaborator elab{resolver, {}, {}};
  detail::SchematicIndex index;
  const Status valid = index.build(top);
  std::vector<int> net_signals(top.nets.size(), -1);
  if (auto st = elab.flatten(top, index, valid, net_signals, 0); !st.ok()) {
    return Result<Circuit>::failure(st.error().code, st.error().message);
  }
  if (auto st = elab.circuit.check_single_driver(); !st.ok()) {
    return Result<Circuit>::failure(st.error().code, st.error().message);
  }
  return std::move(elab.circuit);
}

}  // namespace jfm::tools
