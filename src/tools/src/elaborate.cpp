#include "jfm/tools/elaborate.hpp"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "jfm/support/telemetry.hpp"

namespace jfm::tools {

using support::Errc;
using support::Result;
using support::Status;

namespace {

/// Net or port name -> signal id within one scope. Keys are views into
/// the schematic being flattened, which outlives its scope: a child
/// schematic stays in its parent's frame for the whole recursive call.
using NetIds = std::unordered_map<std::string_view, int>;

/// One connection seen from its element.
struct PinNet {
  std::string_view pin;
  std::string_view net;
};

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

  /// Flatten one schematic at `path`. `port_signals` maps the
  /// schematic's port names to already-created parent signal ids.
  Status flatten(const Schematic& sch, const NetIds& port_signals, int depth) {
    if (depth > 32) {
      return support::fail(Errc::consistency_violation, "hierarchy deeper than 32 levels");
    }
    if (auto st = sch.validate(); !st.ok()) return st;

    // Ports alias parent signals; unconnected ports fall through and get
    // a local signal like every other net.
    NetIds net_ids;
    net_ids.reserve(sch.nets.size());
    for (const auto& port : sch.ports) {
      auto it = port_signals.find(port.name);
      if (it != port_signals.end()) net_ids.emplace(port.name, it->second);
    }
    for (const auto& net : sch.nets) {
      if (!net_ids.contains(net)) net_ids.emplace(net, signal(net));
    }

    // element -> its connections, in connection order
    std::unordered_map<std::string_view, std::vector<PinNet>> pins;
    pins.reserve(sch.primitives.size() + sch.instances.size());
    for (const auto& conn : sch.connections) pins[conn.element].push_back({conn.pin, conn.net});

    for (const auto& prim : sch.primitives) {
      const auto& element_pins = pins[prim.name];
      auto pin_signal = [&](std::string_view pin) {
        for (const auto& p : element_pins) {
          if (p.pin == pin) return net_ids.at(p.net);
        }
        // Unconnected pin: give it a dedicated X-valued signal.
        return signal(prim.name, pin);
      };
      CircuitGate gate;
      gate.type = prim.gate;
      const auto inputs = gate_input_pins(prim.gate);
      gate.inputs.reserve(inputs.size());
      for (std::string_view pin : inputs) gate.inputs.push_back(pin_signal(pin));
      gate.output = pin_signal(gate_output_pin(prim.gate));
      circuit.gates.push_back(std::move(gate));
    }

    for (const auto& inst : sch.instances) {
      auto child = resolver({inst.master_cell, inst.master_view});
      if (!child.ok()) {
        return support::fail(child.error().code,
                             "instance " + path + inst.name + " (" + inst.master_cell + "/" +
                                 inst.master_view + "): " + child.error().message);
      }
      // Map the child's ports to this scope's nets via the instance pins.
      // A pin the master does not declare is an error; the one reported
      // is the first in pin-name order.
      std::unordered_set<std::string_view> declared;
      for (const auto& port : child->ports) declared.insert(port.name);
      NetIds child_ports;
      const PinNet* undeclared = nullptr;
      for (const auto& p : pins[inst.name]) {
        if (declared.contains(p.pin)) {
          child_ports.emplace(p.pin, net_ids.at(p.net));
        } else if (undeclared == nullptr || p.pin < undeclared->pin) {
          undeclared = &p;
        }
      }
      if (undeclared != nullptr) {
        return support::fail(Errc::consistency_violation,
                             "instance " + path + inst.name + " connects pin " +
                                 std::string(undeclared->pin) + " that master " +
                                 inst.master_cell + " does not declare");
      }
      const std::size_t scope = path.size();
      path += inst.name;
      path += '/';
      auto st = flatten(*child, child_ports, depth + 1);
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
  if (auto st = elab.flatten(top, {}, 0); !st.ok()) {
    return Result<Circuit>::failure(st.error().code, st.error().message);
  }
  if (auto st = elab.circuit.check_single_driver(); !st.ok()) {
    return Result<Circuit>::failure(st.error().code, st.error().message);
  }
  return std::move(elab.circuit);
}

}  // namespace jfm::tools
