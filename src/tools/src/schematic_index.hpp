#pragma once
// One schematic's name lookups, built in a single pass that also runs
// Schematic::validate()'s checks. validate() builds an index and drops
// it; the elaborator builds one per schematic it flattens and reads the
// connections through it. Every table holds ids into the schematic, which
// must outlive the index unchanged.

#include <span>
#include <string_view>
#include <vector>

#include "jfm/support/id_table.hpp"
#include "jfm/support/result.hpp"
#include "jfm/tools/schematic.hpp"

namespace jfm::tools::detail {

class SchematicIndex {
 public:
  /// Index `sch` and run validate()'s checks, returning the first failure
  /// in validate()'s order. The net and port tables are complete even
  /// when a check fails; the rest is meaningful only on success.
  support::Status build(const Schematic& sch);

  int find_net(std::string_view name) const;   ///< index into nets, or -1
  int find_port(std::string_view name) const;  ///< index into ports, or -1

  /// A connection, resolved.
  struct Pin {
    int net;      ///< index into nets
    int element;  ///< primitives first, then instances (primitives.size() + i)
    int slot;     ///< on a primitive, the pin's place in gate_input_pins, or
                  ///< the input count for the output pin; -1 on an instance
  };
  static constexpr int kMaxGatePins = 3;

  const Pin& pin(std::size_t connection) const { return pins_[connection]; }
  /// The element's connections, as indices into connections, in
  /// connection order.
  std::span<const int> pins_of(std::size_t element) const {
    return std::span<const int>(pin_conns_).subspan(
        pin_start_[element], pin_start_[element + 1] - pin_start_[element]);
  }

 private:
  const Schematic* sch_ = nullptr;
  support::IdTable nets_;   ///< net name -> first net of that name
  support::IdTable ports_;  ///< port name -> first port of that name
  std::vector<Pin> pins_;   ///< per connection
  /// CSR pin lists: element e's connections are
  /// pin_conns_[pin_start_[e] .. pin_start_[e + 1]).
  std::vector<int> pin_start_;
  std::vector<int> pin_conns_;
};

}  // namespace jfm::tools::detail
