#include "jfm/vfs/filesystem.hpp"

#include <cassert>
#include <mutex>
#include <unordered_map>

#include "jfm/support/faultsim.hpp"
#include "jfm/support/telemetry.hpp"

namespace jfm::vfs {

using support::Errc;
using support::Result;
using support::Status;

namespace {
// The vfs leaves of a trace: per-file copy and hash spans, plus byte
// counters mirroring IoCounters into the process-wide registry so one
// snapshot correlates file traffic with the layers above.
namespace telemetry = support::telemetry;

telemetry::Counter& read_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.file.read.bytes");
  return c;
}
telemetry::Counter& write_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.file.write.bytes");
  return c;
}
telemetry::Counter& copy_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.file.copy.bytes");
  return c;
}
telemetry::Counter& copy_files_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.file.copy.count");
  return c;
}
telemetry::Counter& hash_ops_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.hash.op.count");
  return c;
}
telemetry::Counter& hash_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.hash.bytes");
  return c;
}
// Physical accounting: bytes the process really duplicated, as opposed
// to the logical model above. Under COW the copy path adds zero here.
telemetry::Counter& physical_write_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.file.write.physical.bytes");
  return c;
}
telemetry::Counter& physical_copy_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.file.copy.physical.bytes");
  return c;
}
// COW event counters (docs/vfs-cow.md).
telemetry::Counter& cow_shared_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.cow.shared.count");
  return c;
}
telemetry::Counter& cow_break_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.cow.break.count");
  return c;
}
telemetry::Counter& cow_saved_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.cow.saved.bytes");
  return c;
}
telemetry::Counter& cow_cloned_bytes_counter() {
  static auto& c = telemetry::Registry::global().counter("vfs.cow.cloned.bytes");
  return c;
}

constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

FileSystem::FileSystem(support::SimClock* clock, FsOptions options)
    : clock_(clock),
      options_(options),
      shards_(options.lock_shards == 0 ? 1 : options.lock_shards) {
  assert(clock != nullptr);
  root_.dir = true;
}

std::size_t FileSystem::shard_index(const void* node) const noexcept {
  // Golden-ratio mix of the node address; drop the low alignment bits
  // first so neighbouring allocations spread across shards.
  const auto v = reinterpret_cast<std::uintptr_t>(node);
  const std::uint64_t mixed = (static_cast<std::uint64_t>(v) >> 4) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(mixed >> 32) % shards_.size();
}

FileSystem::Shard& FileSystem::shard_of(const Node& node) const noexcept {
  return shards_[shard_index(&node)];
}

IoCounters FileSystem::counters() const noexcept {
  IoCounters c;
  c.bytes_read = counters_.bytes_read.load(kRelaxed);
  c.bytes_written = counters_.bytes_written.load(kRelaxed);
  c.bytes_copied = counters_.bytes_copied.load(kRelaxed);
  c.files_copied = counters_.files_copied.load(kRelaxed);
  c.hash_ops = counters_.hash_ops.load(kRelaxed);
  c.hash_bytes = counters_.hash_bytes.load(kRelaxed);
  c.bytes_physical_written = counters_.bytes_physical_written.load(kRelaxed);
  c.bytes_physical_copied = counters_.bytes_physical_copied.load(kRelaxed);
  return c;
}

void FileSystem::reset_counters() noexcept {
  counters_.bytes_read.store(0, kRelaxed);
  counters_.bytes_written.store(0, kRelaxed);
  counters_.bytes_copied.store(0, kRelaxed);
  counters_.files_copied.store(0, kRelaxed);
  counters_.hash_ops.store(0, kRelaxed);
  counters_.hash_bytes.store(0, kRelaxed);
  counters_.bytes_physical_written.store(0, kRelaxed);
  counters_.bytes_physical_copied.store(0, kRelaxed);
  cow_.shared_copies.store(0, kRelaxed);
  cow_.broken_extents.store(0, kRelaxed);
  cow_.bytes_saved.store(0, kRelaxed);
  cow_.bytes_cloned.store(0, kRelaxed);
}

const FileSystem::Node* FileSystem::find(const Path& path) const {
  const Node* node = &root_;
  for (const auto& comp : path.components()) {
    if (!node->dir) return nullptr;
    auto it = node->children.find(comp);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

FileSystem::Node* FileSystem::find(const Path& path) {
  return const_cast<Node*>(static_cast<const FileSystem*>(this)->find(path));
}

Status FileSystem::charge(std::uint64_t new_size, std::uint64_t old_size) {
  // CAS loop: with striped payload locks, writers to different files
  // charge the quota concurrently -- a plain load/store pair would lose
  // updates.
  const std::uint64_t capacity = capacity_.load(kRelaxed);
  if (new_size <= old_size) {
    used_bytes_.fetch_sub(old_size - new_size, kRelaxed);
    return {};
  }
  const std::uint64_t delta = new_size - old_size;
  std::uint64_t used = used_bytes_.load(kRelaxed);
  for (;;) {
    if (capacity != 0 && used + delta > capacity) {
      return support::fail(Errc::io_error, "no space left on device (quota " +
                                               std::to_string(capacity) + " bytes)");
    }
    if (used_bytes_.compare_exchange_weak(used, used + delta, kRelaxed, kRelaxed)) {
      return {};
    }
  }
}

std::uint64_t FileSystem::subtree_bytes(const Node& node) {
  if (!node.dir) return node.payload().size();
  std::uint64_t total = 0;
  for (const auto& [name, child] : node.children) total += subtree_bytes(*child);
  return total;
}

Status FileSystem::mkdir(const Path& path) {
  std::unique_lock lock(mu_);
  return mkdir_locked(path);
}

Status FileSystem::mkdir_locked(const Path& path) {
  if (path.is_root()) return support::fail(Errc::already_exists, "/ always exists");
  Node* parent = find(path.parent());
  if (parent == nullptr || !parent->dir) {
    return support::fail(Errc::not_found, "no such directory: " + path.parent().str());
  }
  if (parent->children.contains(path.basename())) {
    return support::fail(Errc::already_exists, path.str());
  }
  auto node = std::make_unique<Node>();
  node->dir = true;
  node->mtime = clock_->tick();
  parent->children.emplace(path.basename(), std::move(node));
  return {};
}

Status FileSystem::mkdirs(const Path& path) {
  std::unique_lock lock(mu_);
  Path cur;
  for (const auto& comp : path.components()) {
    cur = cur.child(comp);
    Node* node = find(cur);
    if (node == nullptr) {
      if (auto st = mkdir_locked(cur); !st.ok()) return st;
    } else if (!node->dir) {
      return support::fail(Errc::invalid_argument, cur.str() + " is a file");
    }
  }
  return {};
}

Result<std::vector<std::string>> FileSystem::list(const Path& dir) const {
  std::shared_lock lock(mu_);
  const Node* node = find(dir);
  if (node == nullptr) {
    return Result<std::vector<std::string>>::failure(Errc::not_found, dir.str());
  }
  if (!node->dir) {
    return Result<std::vector<std::string>>::failure(Errc::invalid_argument,
                                                     dir.str() + " is not a directory");
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;
}

void FileSystem::note_replaced(const Node& node) {
  // A file mutation that discards a co-owned extent breaks sharing:
  // the other owners keep the old buffer, this file moves on. Only
  // counted, never copied -- immutability means nobody has to be
  // defended against. The ablation never shares, so its counters stay
  // at zero even when an external read_extent holder pins the buffer.
  if (options_.cow_extents && node.data && node.data.use_count() > 1) {
    cow_.broken_extents.fetch_add(1, kRelaxed);
    cow_break_counter().add(1);
  }
}

Status FileSystem::write_file(const Path& path, std::string data) {
  // Fault hook BEFORE any mutation: an injected write failure is
  // all-or-nothing, exactly like the quota check -- the file keeps its
  // previous payload, which is what checkout rollback relies on.
  if (auto f = support::faultsim::trip("vfs.write"); !f.ok()) return f;
  // The caller handed us a freshly materialized buffer: physical bytes
  // moved regardless of COW mode.
  return publish_extent(path, make_extent(std::move(data)), std::nullopt,
                        /*physical=*/true);
}

Status FileSystem::write_extent(const Path& path, Extent data) {
  if (data == nullptr) {
    return support::fail(Errc::invalid_argument, "write_extent: null extent");
  }
  if (auto f = support::faultsim::trip("vfs.write"); !f.ok()) return f;
  if (!options_.cow_extents) {
    // Ablation: every publish materializes a private duplicate, exactly
    // like the string-payload file system the paper measures.
    return publish_extent(path, make_extent(std::string(*data)), std::nullopt,
                          /*physical=*/true);
  }
  if (data.use_count() > 1) {
    // The buffer is co-owned (by the caller, the OMS store, another
    // file, ...): this publish is a logical write served by sharing.
    cow_.shared_copies.fetch_add(1, kRelaxed);
    cow_.bytes_saved.fetch_add(data->size(), kRelaxed);
    cow_shared_counter().add(1);
    cow_saved_bytes_counter().add(data->size());
  }
  return publish_extent(path, std::move(data), std::nullopt, /*physical=*/false);
}

Status FileSystem::write_extent_hashed(const Path& path, Extent data, std::uint64_t hash) {
  if (data == nullptr) {
    return support::fail(Errc::invalid_argument, "write_extent_hashed: null extent");
  }
  if (auto f = support::faultsim::trip("vfs.write"); !f.ok()) return f;
  if (!options_.cow_extents) {
    // The clone holds bit-identical bytes, so the caller's hash still
    // describes the destination exactly -- the memo survives the
    // ablation.
    return publish_extent(path, make_extent(std::string(*data)), hash,
                          /*physical=*/true);
  }
  if (data.use_count() > 1) {
    cow_.shared_copies.fetch_add(1, kRelaxed);
    cow_.bytes_saved.fetch_add(data->size(), kRelaxed);
    cow_shared_counter().add(1);
    cow_saved_bytes_counter().add(data->size());
  }
  return publish_extent(path, std::move(data), hash, /*physical=*/false);
}

Status FileSystem::publish_extent(const Path& path, Extent data,
                                  std::optional<std::uint64_t> known_hash, bool physical) {
  {
    // Hot path: the file already exists, so only its payload shard is
    // taken exclusively -- the tree lock stays shared and other files'
    // writers proceed in parallel.
    std::shared_lock tree(mu_);
    Node* node = find(path);
    if (node != nullptr) {
      if (node->dir) {
        return support::fail(Errc::invalid_argument, path.str() + " is a directory");
      }
      std::unique_lock shard(shard_of(*node).mu);
      return overwrite_locked(*node, std::move(data), known_hash, physical);
    }
  }
  // Creation is a structure change: fall back to the exclusive tree
  // lock. write_extent_locked re-finds, so a racing creator is benign.
  std::unique_lock lock(mu_);
  return write_extent_locked(path, std::move(data), known_hash, physical);
}

Status FileSystem::overwrite_locked(Node& node, Extent data,
                                    std::optional<std::uint64_t> known_hash, bool physical) {
  if (auto st = charge(data->size(), node.payload().size()); !st.ok()) return st;
  note_replaced(node);
  counters_.bytes_written.fetch_add(data->size(), kRelaxed);
  write_bytes_counter().add(data->size());
  if (physical) {
    counters_.bytes_physical_written.fetch_add(data->size(), kRelaxed);
    physical_write_bytes_counter().add(data->size());
  }
  // Invalidate BEFORE the swap so no observer can pair the old "valid"
  // flag with the new extent.
  node.hash_valid.store(false, kRelaxed);
  node.data = std::move(data);
  node.appendable = false;
  if (known_hash.has_value()) {
    node.cached_hash.store(*known_hash, kRelaxed);
    node.hash_valid.store(true, std::memory_order_release);
  }
  node.mtime = clock_->tick();
  return {};
}

Status FileSystem::write_extent_locked(const Path& path, Extent data,
                                       std::optional<std::uint64_t> known_hash,
                                       bool physical) {
  if (path.is_root()) return support::fail(Errc::invalid_argument, "cannot write /");
  Node* parent = find(path.parent());
  if (parent == nullptr || !parent->dir) {
    return support::fail(Errc::not_found, "no such directory: " + path.parent().str());
  }
  auto it = parent->children.find(path.basename());
  Node* node;
  if (it == parent->children.end()) {
    if (auto st = charge(data->size(), 0); !st.ok()) return st;
    auto owned = std::make_unique<Node>();
    node = owned.get();
    parent->children.emplace(path.basename(), std::move(owned));
  } else {
    node = it->second.get();
    if (node->dir) return support::fail(Errc::invalid_argument, path.str() + " is a directory");
    if (auto st = charge(data->size(), node->payload().size()); !st.ok()) return st;
    note_replaced(*node);
  }
  counters_.bytes_written.fetch_add(data->size(), kRelaxed);
  write_bytes_counter().add(data->size());
  if (physical) {
    counters_.bytes_physical_written.fetch_add(data->size(), kRelaxed);
    physical_write_bytes_counter().add(data->size());
  }
  node->data = std::move(data);
  node->appendable = false;
  if (known_hash.has_value()) {
    // Copy propagation: the caller hashed (or inherited) exactly these
    // bytes, so the destination's memo starts valid.
    node->cached_hash.store(*known_hash, kRelaxed);
    node->hash_valid.store(true, std::memory_order_release);
  } else {
    node->hash_valid.store(false, kRelaxed);
  }
  node->mtime = clock_->tick();
  return {};
}

Status FileSystem::append_file(const Path& path, std::string_view data) {
  if (auto f = support::faultsim::trip("vfs.write"); !f.ok()) return f;
  // Torn-write crash point (docs/fault-injection.md): when this site
  // trips, the FIRST HALF of the payload still lands in the file and
  // the operation fails anyway -- the file is left mid-record, exactly
  // what a process kill during a partially flushed append produces.
  // The WAL recovery tests drive this site to prove torn tails are
  // discarded (docs/persistence.md).
  Status torn = support::faultsim::trip("vfs.append.torn");
  if (!torn.ok()) data = data.substr(0, data.size() / 2);
  std::unique_lock lock(mu_);
  Node* node = find(path);
  if (node == nullptr) {
    auto st = write_extent_locked(path, make_extent(std::string(data)), std::nullopt,
                                  /*physical=*/true);
    return st.ok() ? torn : st;
  }
  if (node->dir) return support::fail(Errc::invalid_argument, path.str() + " is a directory");
  const std::uint64_t old_size = node->payload().size();
  if (auto st = charge(old_size + data.size(), old_size); !st.ok()) return st;
  if (node->appendable && node->data.use_count() == 1) {
    // Fast path: the buffer was privately allocated (non-const) by a
    // previous append and nothing else holds a reference -- the
    // exclusive tree lock keeps it that way for the duration -- so it
    // grows in place, amortized O(appended bytes). This is what keeps
    // a growing log file (docs/persistence.md) off the quadratic
    // read-modify-replace cliff.
    std::const_pointer_cast<std::string>(node->data)->append(data);
  } else {
    // Referenced extents are immutable, so append is read-modify-
    // replace: clone the old payload into a fresh buffer and grow it.
    // When the old extent was co-owned this is the classic
    // copy-on-write break -- the clone exists only because sharing had
    // to be preserved for the co-owners.
    if (options_.cow_extents && node->data.use_count() > 1) {
      cow_.broken_extents.fetch_add(1, kRelaxed);
      cow_.bytes_cloned.fetch_add(old_size, kRelaxed);
      cow_break_counter().add(1);
      cow_cloned_bytes_counter().add(old_size);
    }
    auto grown = std::make_shared<std::string>();
    grown->reserve(old_size + data.size());
    *grown = node->payload();
    grown->append(data);
    node->data = std::move(grown);
    node->appendable = true;
  }
  counters_.bytes_written.fetch_add(data.size(), kRelaxed);
  counters_.bytes_physical_written.fetch_add(data.size(), kRelaxed);
  write_bytes_counter().add(data.size());
  physical_write_bytes_counter().add(data.size());
  node->hash_valid.store(false, kRelaxed);
  node->mtime = clock_->tick();
  return torn;
}

Status FileSystem::reserve_file(const Path& path, std::size_t capacity) {
  std::unique_lock lock(mu_);
  Node* node = find(path);
  if (node == nullptr) return support::fail(Errc::not_found, path.str());
  if (node->dir) return support::fail(Errc::invalid_argument, path.str() + " is a directory");
  const std::size_t size = node->payload().size();
  if (node->appendable && node->data.use_count() == 1) {
    auto* buf = std::const_pointer_cast<std::string>(node->data).get();
    if (capacity > buf->capacity()) buf->reserve(capacity);
    // Pre-fault the reserved tail: resize value-initializes (touches)
    // every page once, here, instead of on the first append that
    // reaches it; shrinking back keeps the capacity.
    buf->resize(buf->capacity());
    buf->resize(size);
  } else {
    if (options_.cow_extents && node->data.use_count() > 1) {
      cow_.broken_extents.fetch_add(1, kRelaxed);
      cow_.bytes_cloned.fetch_add(size, kRelaxed);
      cow_break_counter().add(1);
      cow_cloned_bytes_counter().add(size);
    }
    auto grown = std::make_shared<std::string>();
    grown->reserve(std::max(capacity, size));
    grown->resize(grown->capacity());
    grown->assign(node->payload());
    node->data = std::move(grown);
    node->appendable = true;
  }
  return {};
}

Result<std::string> FileSystem::read_file(const Path& path) const {
  if (auto f = support::faultsim::trip("vfs.read"); !f.ok()) {
    return Result<std::string>(f.error());
  }
  std::shared_lock lock(mu_);
  const Node* node = find(path);
  if (node == nullptr) return Result<std::string>::failure(Errc::not_found, path.str());
  if (node->dir) {
    return Result<std::string>::failure(Errc::invalid_argument, path.str() + " is a directory");
  }
  std::shared_lock shard(shard_of(*node).mu);
  counters_.bytes_read.fetch_add(node->payload().size(), kRelaxed);
  read_bytes_counter().add(node->payload().size());
  return node->payload();
}

Result<Extent> FileSystem::read_extent(const Path& path) const {
  if (auto f = support::faultsim::trip("vfs.read"); !f.ok()) {
    return Result<Extent>(f.error());
  }
  std::shared_lock lock(mu_);
  const Node* node = find(path);
  if (node == nullptr) return Result<Extent>::failure(Errc::not_found, path.str());
  if (node->dir) {
    return Result<Extent>::failure(Errc::invalid_argument, path.str() + " is a directory");
  }
  // A logical read of the whole payload -- same accounting as
  // read_file -- served by a refcount bump. The returned extent is
  // immutable and detached from the file's future: a later write
  // replaces the node's extent, it never touches this one.
  std::shared_lock shard(shard_of(*node).mu);
  counters_.bytes_read.fetch_add(node->payload().size(), kRelaxed);
  read_bytes_counter().add(node->payload().size());
  return node->data;
}

bool FileSystem::exists(const Path& path) const {
  std::shared_lock lock(mu_);
  return find(path) != nullptr;
}

bool FileSystem::is_directory(const Path& path) const {
  std::shared_lock lock(mu_);
  const Node* node = find(path);
  return node != nullptr && node->dir;
}

Result<std::uint64_t> FileSystem::content_hash(const Path& path) const {
  std::shared_lock lock(mu_);
  const Node* node = find(path);
  if (node == nullptr) return Result<std::uint64_t>::failure(Errc::not_found, path.str());
  if (node->dir) {
    return Result<std::uint64_t>::failure(Errc::invalid_argument,
                                          path.str() + " is a directory");
  }
  JFM_SPAN("vfs", "content_hash");
  counters_.hash_ops.fetch_add(1, kRelaxed);
  hash_ops_counter().add(1);
  // The node's shard (shared) pins the extent/memo pair: a concurrent
  // overwrite needs the shard exclusively, so the memo we read always
  // describes the payload we would hash. Concurrent hashers at worst
  // both compute the same value and publish identical memos.
  std::shared_lock shard(shard_of(*node).mu);
  if (node->hash_valid.load(std::memory_order_acquire)) {
    return node->cached_hash.load(kRelaxed);
  }
  const std::uint64_t h = fnv1a(node->payload());
  node->cached_hash.store(h, kRelaxed);
  node->hash_valid.store(true, std::memory_order_release);
  counters_.hash_bytes.fetch_add(node->payload().size(), kRelaxed);
  hash_bytes_counter().add(node->payload().size());
  return h;
}

Result<FileStat> FileSystem::stat(const Path& path) const {
  std::shared_lock lock(mu_);
  const Node* node = find(path);
  if (node == nullptr) return Result<FileStat>::failure(Errc::not_found, path.str());
  FileStat st;
  st.is_directory = node->dir;
  if (node->dir) {
    st.mtime = node->mtime;  // directory metadata changes hold the tree lock
  } else {
    std::shared_lock shard(shard_of(*node).mu);
    st.size = node->payload().size();
    st.mtime = node->mtime;
  }
  return st;
}

Status FileSystem::remove(const Path& path, bool recursive) {
  // Declared before the lock, so the detached subtree -- and any payload
  // buffer only it still owned -- is freed after the tree lock is
  // released: handing a large buffer back to the allocator must not
  // stall every other reader and writer of the tree.
  std::unique_ptr<Node> detached;
  std::unique_lock lock(mu_);
  if (path.is_root()) return support::fail(Errc::invalid_argument, "cannot remove /");
  Node* parent = find(path.parent());
  if (parent == nullptr || !parent->dir) return support::fail(Errc::not_found, path.str());
  auto it = parent->children.find(path.basename());
  if (it == parent->children.end()) return support::fail(Errc::not_found, path.str());
  if (it->second->dir && !it->second->children.empty() && !recursive) {
    return support::fail(Errc::invalid_argument, path.str() + " is a non-empty directory");
  }
  used_bytes_.fetch_sub(subtree_bytes(*it->second), kRelaxed);
  detached = std::move(it->second);
  parent->children.erase(it);
  return {};
}

Status FileSystem::copy_file(const Path& src, const Path& dst) {
  JFM_SPAN("vfs", "copy_file");
  if (auto f = support::faultsim::trip("vfs.copy"); !f.ok()) return f;
  // Reads the source payload under its shard (shared): the extent, its
  // size and its memoized hash. The source's hash memo rides along when
  // it is already valid. Both COW modes count the same *logical*
  // traffic: one read + one copy of the payload. Caller must hold the
  // source's shard (shared is enough). Either way the extent is only
  // pinned here; the ablation's duplicate is made after every lock is
  // released (below).
  Extent payload;
  std::optional<std::uint64_t> src_hash;
  const auto read_source = [&](const Node& from) {
    const std::uint64_t size = from.payload().size();
    counters_.bytes_read.fetch_add(size, kRelaxed);
    counters_.bytes_copied.fetch_add(size, kRelaxed);
    counters_.files_copied.fetch_add(1, kRelaxed);
    read_bytes_counter().add(size);
    copy_bytes_counter().add(size);
    copy_files_counter().add(1);
    payload = from.data;
    if (options_.cow_extents) {
      // O(1): the destination will share this buffer. Zero physical
      // bytes move; record what a physical copy would have cost.
      cow_.shared_copies.fetch_add(1, kRelaxed);
      cow_.bytes_saved.fetch_add(size, kRelaxed);
      cow_shared_counter().add(1);
      cow_saved_bytes_counter().add(size);
    } else {
      counters_.bytes_physical_copied.fetch_add(size, kRelaxed);
      physical_copy_bytes_counter().add(size);
    }
    if (from.hash_valid.load(std::memory_order_acquire)) {
      src_hash = from.cached_hash.load(kRelaxed);
    }
  };
  {
    std::shared_lock lock(mu_);
    Node* from = find(src);
    if (from == nullptr) return support::fail(Errc::not_found, src.str());
    if (from->dir) return support::fail(Errc::invalid_argument, src.str() + " is a directory");
    Node* to = find(dst);
    if (to != nullptr && to->dir) {
      return support::fail(Errc::invalid_argument, dst.str() + " is a directory");
    }
    if (to != nullptr && options_.cow_extents) {
      // Fast path: both endpoints exist, so the whole copy runs under
      // the SHARED tree lock with the two payload shards taken in
      // ascending index order (src shared, dst exclusive) -- the
      // ordered multi-shard acquisition that makes concurrent copies
      // deadlock-free. Equal indices collapse to one exclusive lock
      // covering both nodes (which also handles src == dst).
      const std::size_t si = shard_index(from);
      const std::size_t di = shard_index(to);
      std::shared_lock<std::shared_mutex> src_shard;
      std::unique_lock<std::shared_mutex> dst_shard;
      if (si == di) {
        dst_shard = std::unique_lock(shards_[di].mu);
      } else if (si < di) {
        src_shard = std::shared_lock(shards_[si].mu);
        dst_shard = std::unique_lock(shards_[di].mu);
      } else {
        dst_shard = std::unique_lock(shards_[di].mu);
        src_shard = std::shared_lock(shards_[si].mu);
      }
      read_source(*from);
      return overwrite_locked(*to, std::move(payload), src_hash, /*physical=*/false);
    }
    // Otherwise pin the source under its shard and publish below.
    std::shared_lock shard(shard_of(*from).mu);
    read_source(*from);
  }
  if (!options_.cow_extents) {
    // Paper-faithful ablation: real byte movement, done while no lock is
    // held -- the pinned extent is immutable -- so a payload-sized copy
    // (and the page faults of its fresh buffer) never stalls other
    // files' readers or a creator waiting for the tree lock. The
    // publish then overwrites or creates dst like any other write.
    return publish_extent(dst, make_extent(std::string(*payload)), src_hash,
                          /*physical=*/true);
  }
  // Creation phase (exclusive): O(1) -- the destination shares the
  // source's buffer.
  std::unique_lock lock(mu_);
  return write_extent_locked(dst, std::move(payload), src_hash, /*physical=*/false);
}

Status FileSystem::copy_tree_into(const Node& src, Node& dst_parent, const std::string& name) {
  auto owned = std::make_unique<Node>();
  Node* dst = owned.get();
  dst->dir = src.dir;
  dst->mtime = clock_->tick();
  if (!src.dir) {
    const std::uint64_t size = src.payload().size();
    if (auto st = charge(size, 0); !st.ok()) return st;
    counters_.bytes_read.fetch_add(size, kRelaxed);
    counters_.bytes_written.fetch_add(size, kRelaxed);
    counters_.bytes_copied.fetch_add(size, kRelaxed);
    counters_.files_copied.fetch_add(1, kRelaxed);
    if (options_.cow_extents) {
      dst->data = src.data;
      dst->appendable = false;
      cow_.shared_copies.fetch_add(1, kRelaxed);
      cow_.bytes_saved.fetch_add(size, kRelaxed);
      cow_shared_counter().add(1);
      cow_saved_bytes_counter().add(size);
    } else {
      dst->data = make_extent(std::string(src.payload()));
      dst->appendable = false;
      counters_.bytes_physical_written.fetch_add(size, kRelaxed);
      counters_.bytes_physical_copied.fetch_add(size, kRelaxed);
      physical_write_bytes_counter().add(size);
      physical_copy_bytes_counter().add(size);
    }
    if (src.hash_valid.load(std::memory_order_acquire)) {
      dst->cached_hash.store(src.cached_hash.load(kRelaxed), kRelaxed);
      dst->hash_valid.store(true, std::memory_order_release);
    }
  }
  dst_parent.children[name] = std::move(owned);
  if (src.dir) {
    for (const auto& [child_name, child] : src.children) {
      if (auto st = copy_tree_into(*child, *dst, child_name); !st.ok()) return st;
    }
  }
  return {};
}

Status FileSystem::copy_tree(const Path& src, const Path& dst) {
  if (auto f = support::faultsim::trip("vfs.copy"); !f.ok()) return f;
  std::unique_lock lock(mu_);
  const Node* from = find(src);
  if (from == nullptr) return support::fail(Errc::not_found, src.str());
  if (dst.is_within(src)) {
    return support::fail(Errc::invalid_argument, "cannot copy " + src.str() + " into itself");
  }
  Node* dst_parent = find(dst.parent());
  if (dst_parent == nullptr || !dst_parent->dir) {
    return support::fail(Errc::not_found, "no such directory: " + dst.parent().str());
  }
  if (dst_parent->children.contains(dst.basename())) {
    return support::fail(Errc::already_exists, dst.str());
  }
  return copy_tree_into(*from, *dst_parent, dst.basename());
}

Result<std::uint64_t> FileSystem::tree_size(const Path& path) const {
  std::shared_lock lock(mu_);
  const Node* node = find(path);
  if (node == nullptr) return Result<std::uint64_t>::failure(Errc::not_found, path.str());
  // Striped writers publish payloads under the shared tree lock, so the
  // walk takes each file's shard (shared) around the size read.
  // (subtree_bytes stays lock-free for remove, which holds the tree
  // lock exclusively.)
  std::uint64_t total = 0;
  struct Walker {
    const FileSystem* fs;
    std::uint64_t* total;
    void visit(const Node& n) {
      if (!n.dir) {
        std::shared_lock shard(fs->shard_of(n).mu);
        *total += n.payload().size();
        return;
      }
      for (const auto& [name, child] : n.children) visit(*child);
    }
  } walker{this, &total};
  walker.visit(*node);
  return total;
}

Result<std::vector<Path>> FileSystem::walk_files(const Path& root) const {
  std::shared_lock lock(mu_);
  const Node* node = find(root);
  if (node == nullptr) return Result<std::vector<Path>>::failure(Errc::not_found, root.str());
  std::vector<Path> out;
  struct Walker {
    std::vector<Path>* out;
    void visit(const Node& n, const Path& at) {
      if (!n.dir) {
        out->push_back(at);
        return;
      }
      for (const auto& [name, child] : n.children) visit(*child, at.child(name));
    }
  } walker{&out};
  walker.visit(*node, root);
  return out;
}

CowStats FileSystem::cow_snapshot() const {
  CowStats s;
  s.shared_copies = cow_.shared_copies.load(kRelaxed);
  s.broken_extents = cow_.broken_extents.load(kRelaxed);
  s.bytes_saved = cow_.bytes_saved.load(kRelaxed);
  s.bytes_cloned = cow_.bytes_cloned.load(kRelaxed);
  // Live walk: group the tree's file payloads by buffer identity. An
  // extent referenced by two files stores its bytes once -- that is the
  // resident-set win the event counters only approximate. The map pins
  // each extent (a real shared_ptr copy, not a raw pointer): with
  // striped writers running under the shared tree lock, a concurrent
  // overwrite may drop a buffer's last file reference mid-walk, and
  // pinning both keeps the size read valid and prevents a freed
  // buffer's address being reused for a different extent.
  std::unordered_map<const std::string*, std::pair<Extent, std::uint64_t>> refs;
  {
    std::shared_lock lock(mu_);
    struct Walker {
      const FileSystem* fs;
      CowStats* s;
      std::unordered_map<const std::string*, std::pair<Extent, std::uint64_t>>* refs;
      void visit(const Node& n) {
        if (!n.dir) {
          std::shared_lock shard(fs->shard_of(n).mu);
          ++s->live_files;
          s->logical_bytes += n.payload().size();
          auto& slot = (*refs)[n.data.get()];
          if (slot.first == nullptr) slot.first = n.data;
          ++slot.second;
          return;
        }
        for (const auto& [name, child] : n.children) visit(*child);
      }
    } walker{this, &s, &refs};
    walker.visit(root_);
    for (const auto& [buffer, slot] : refs) {
      ++s.live_extents;
      s.physical_bytes += slot.first->size();
      if (slot.second > 1) ++s.live_shared_extents;
    }
  }
  auto& reg = telemetry::Registry::global();
  reg.gauge("vfs.cow.live.files").set(static_cast<std::int64_t>(s.live_files));
  reg.gauge("vfs.cow.live.extents").set(static_cast<std::int64_t>(s.live_extents));
  reg.gauge("vfs.cow.live.shared.extents")
      .set(static_cast<std::int64_t>(s.live_shared_extents));
  reg.gauge("vfs.cow.live.logical.bytes").set(static_cast<std::int64_t>(s.logical_bytes));
  reg.gauge("vfs.cow.live.physical.bytes").set(static_cast<std::int64_t>(s.physical_bytes));
  return s;
}

}  // namespace jfm::vfs
