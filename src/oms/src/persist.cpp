// Store durability: WAL capture/flush, snapshots and crash recovery.
//
// Companion TU to store.cpp holding every Store member that touches
// the vfs (docs/persistence.md). Design in brief:
//
//   * commit() seals the transaction's ops into one CRC-framed redo
//     record (wal.hpp); records buffer in wal_pending_ and one vfs
//     append on the committing thread flushes a full group (group
//     commit);
//   * a flush failure NEVER fails the commit -- the records stay
//     buffered for retry, and wal_repair_tail() truncates any torn
//     half-record a failed append left behind before the next append,
//     so the durable file is always header + whole frames;
//   * snapshot() serializes the full store image into a line-oriented,
//     CRC-trailed manifest plus content-addressed payload blobs
//     published as COW extents (write_extent_hashed: a refcount bump
//     per blob, zero payload copies) and truncates the WAL;
//   * open() loads the newest CRC-valid snapshot, re-executes the WAL
//     tail through the store's own mutator paths with the epoch
//     counter pinned to each record's bracket, and physically discards
//     any torn suffix -- objects, attributes, link order, secondary
//     indexes, epoch stamps and text-hash memos all reproduce
//     bit-identically because nothing is restored by structure copy.

#include <algorithm>
#include <charconv>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "jfm/oms/store.hpp"
#include "jfm/support/faultsim.hpp"
#include "jfm/support/hash.hpp"
#include "jfm/support/strings.hpp"
#include "jfm/support/telemetry.hpp"
#include "jfm/vfs/filesystem.hpp"

namespace jfm::oms {

using support::Errc;
using support::Result;
using support::Status;

namespace {
namespace telemetry = support::telemetry;

telemetry::Counter& wal_counter(const char* which) {
  return telemetry::Registry::global().counter(std::string("oms.wal.") + which);
}
telemetry::Counter& snap_counter(const char* which) {
  return telemetry::Registry::global().counter(std::string("oms.snapshot.") + which);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = digits[(v >> (4 * i)) & 0xF];
  }
  buf[16] = '\0';
  return std::string(buf, 16);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && p == text.data() + text.size();
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), out, 16);
  return ec == std::errc{} && p == text.data() + text.size();
}

std::string real_to_text(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

Status corrupt(const std::string& what) {
  return support::fail(Errc::parse_error, "snapshot: " + what);
}
}  // namespace

// ======================= WAL capture and flush ============================

void Store::wal_package() {
  // The ops are already in place behind the frame-header slot opened
  // by the first wal_note_op(); sealing the record is a backpatch, not
  // a copy.
  wal::finish_frame(wal_pending_, tx_frame_base_, ++commit_seq_, tx_epoch_before_,
                    epoch_.load(std::memory_order_relaxed), tx_wal_op_count_);
  tx_wal_op_count_ = 0;
  ++wal_pending_count_;
  static auto& records = wal_counter("records.count");
  records.add(1);
  if (wal_pending_count_ >= std::max<std::size_t>(1, options_.wal_group_commit)) {
    (void)wal_flush_locked();  // failure keeps the group buffered
  }
  ++commits_since_snapshot_;
  if (options_.snapshot_every != 0 && commits_since_snapshot_ >= options_.snapshot_every) {
    (void)write_snapshot_locked();  // best effort; WAL already has the records
  }
}

void Store::wal_preallocate_locked() {
  if (options_.wal_preallocate_bytes == 0 || journal_fs_ == nullptr) return;
  (void)journal_fs_->reserve_file(wal_path(), options_.wal_preallocate_bytes);
}

Status Store::wal_repair_tail() {
  auto st = journal_fs_->stat(wal_path());
  if (!st.ok()) {
    // The file vanished (nothing durable survives a lost file anyway);
    // recreate an empty log so pending records land in a valid file.
    if (auto w = journal_fs_->write_file(wal_path(), std::string(wal::kFileHeader));
        !w.ok()) {
      return w;
    }
    wal_expected_bytes_ = wal::kFileHeader.size();
    wal_preallocate_locked();
  } else if (st->size != wal_expected_bytes_) {
    auto data = journal_fs_->read_file(wal_path());
    if (!data.ok()) return Status(data.error());
    if (data->size() < wal_expected_bytes_) {
      return support::fail(Errc::io_error, "wal shrank below its durable prefix");
    }
    if (auto w = journal_fs_->write_file(wal_path(), data->substr(0, wal_expected_bytes_));
        !w.ok()) {
      return w;
    }
    static auto& repairs = wal_counter("repair.count");
    repairs.add(1);
    wal_preallocate_locked();
  }
  wal_tail_dirty_ = false;
  return {};
}

Status Store::wal_flush_locked() {
  // Only sealed records may reach the file: a flush_wal() issued while
  // a transaction is open stops short of its unfinished frame.
  const bool open_frame = tx_wal_op_count_ > 0;
  const std::size_t sealed = open_frame ? tx_frame_base_ : wal_pending_.size();
  if (sealed == 0) return {};
  static auto& flushes = wal_counter("flush.count");
  static auto& failures = wal_counter("flush.fail.count");
  static auto& appended = wal_counter("append.count");
  static auto& bytes = wal_counter("append.bytes");
  if (auto f = support::faultsim::trip("oms.wal.flush"); !f.ok()) {
    ++wal_flush_failures_;
    failures.add(1);
    return f;
  }
  if (wal_tail_dirty_) {
    if (auto st = wal_repair_tail(); !st.ok()) {
      ++wal_flush_failures_;
      failures.add(1);
      return st;
    }
  }
  const std::string_view batch(wal_pending_.data(), sealed);
  if (auto st = journal_fs_->append_file(wal_path(), batch); !st.ok()) {
    // The append may have torn mid-batch; remember to truncate back to
    // the durable prefix before the retry. Records stay pending.
    wal_tail_dirty_ = true;
    ++wal_flush_failures_;
    failures.add(1);
    return st;
  }
  wal_expected_bytes_ += batch.size();
  wal_appended_records_ += wal_pending_count_;
  wal_appended_bytes_ += batch.size();
  ++wal_flushes_;
  flushes.add(1);
  appended.add(wal_pending_count_);
  bytes.add(batch.size());
  if (open_frame) {
    // Slide the open frame down over the flushed prefix (rare: only an
    // explicit mid-transaction flush_wal() lands here).
    wal_pending_.erase(0, sealed);
    tx_frame_base_ -= sealed;
  } else {
    wal_pending_.clear();  // keeps capacity for the next group
  }
  wal_pending_count_ = 0;
  return {};
}

Status Store::flush_wal() {
  std::unique_lock lock(mu_);
  if (journal_fs_ == nullptr) {
    return support::fail(Errc::invalid_argument, "flush_wal: store not attached");
  }
  return wal_flush_locked();
}

// ======================= snapshots ========================================

Status Store::write_snapshot_locked() {
  JFM_SPAN("oms", "snapshot.write");
  static auto& writes = snap_counter("write.count");
  static auto& write_bytes = snap_counter("write.bytes");
  static auto& write_fails = snap_counter("write.fail.count");
  if (auto f = support::faultsim::trip("oms.snapshot"); !f.ok()) {
    write_fails.add(1);
    return f;
  }
  const std::uint64_t seq = commit_seq_;
  const vfs::Path dir = snap_root().child(std::to_string(seq));
  if (journal_fs_->exists(dir)) (void)journal_fs_->remove(dir, /*recursive=*/true);
  auto fail_snapshot = [&](Status st) {
    (void)journal_fs_->remove(dir, /*recursive=*/true);
    write_fails.add(1);
    return st;
  };
  if (auto st = journal_fs_->mkdirs(dir.child("blobs")); !st.ok()) return fail_snapshot(st);

  std::string m = "omssnap 1\n";
  m += "seq " + std::to_string(seq) + '\n';
  m += "epoch " + std::to_string(epoch_.load(std::memory_order_relaxed)) + '\n';
  m += "ids " + std::to_string(ids_.issued()) + '\n';

  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, obj] : objects_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::uint64_t blob_bytes = 0;
  for (ObjectId id : ids) {
    const Object& obj = objects_.at(id);
    m += "object " + std::to_string(id.raw()) + ' ' + obj.class_name + ' ' +
         std::to_string(obj.created) + ' ' + std::to_string(obj.modified) + '\n';
    for (const auto& [name, value] : obj.attrs) {
      if (const auto* text = std::get_if<StoredText>(&value)) {
        // Payload bytes go out as ONE content-addressed COW blob per
        // distinct buffer: write_extent_hashed pins the extent by
        // refcount and seeds the file's hash memo, so the snapshot
        // costs metadata, not payload copies, and a reload re-seeds
        // the attribute memo from the same recorded hash.
        const std::uint64_t hash = memoized_hash(*text);
        const vfs::Path blob = dir.child("blobs").child(hex64(hash));
        if (!journal_fs_->exists(blob)) {
          if (auto st = journal_fs_->write_extent_hashed(blob, text->text, hash); !st.ok()) {
            return fail_snapshot(st);
          }
          blob_bytes += text->text->size();
        }
        m += "text " + std::to_string(id.raw()) + ' ' + name + ' ' + hex64(hash) + ' ' +
             std::to_string(text->text->size()) + '\n';
      } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
        m += "attr " + std::to_string(id.raw()) + ' ' + name + " int " +
             std::to_string(*i) + '\n';
      } else if (const auto* d = std::get_if<double>(&value)) {
        m += "attr " + std::to_string(id.raw()) + ' ' + name + " real " + real_to_text(*d) +
             '\n';
      } else {
        m += "attr " + std::to_string(id.raw()) + ' ' + name + " bool " +
             (std::get<bool>(value) ? "true" : "false") + '\n';
      }
    }
  }
  // Both adjacency directions are serialized verbatim: sources() and
  // targets() are each link-order-sensitive, and only the vectors
  // themselves carry that order.
  for (const auto& [rel_name, index] : relations_) {
    std::vector<ObjectId> froms;
    for (const auto& [from, tos] : index.forward) {
      if (!tos.empty()) froms.push_back(from);
    }
    std::sort(froms.begin(), froms.end());
    for (ObjectId from : froms) {
      const auto& tos = index.forward.at(from);
      m += "fwd " + rel_name + ' ' + std::to_string(from.raw());
      for (ObjectId to : tos) m += ' ' + std::to_string(to.raw());
      m += '\n';
    }
    std::vector<ObjectId> tos;
    for (const auto& [to, froms_v] : index.backward) {
      if (!froms_v.empty()) tos.push_back(to);
    }
    std::sort(tos.begin(), tos.end());
    for (ObjectId to : tos) {
      const auto& froms_v = index.backward.at(to);
      m += "bwd " + rel_name + ' ' + std::to_string(to.raw());
      for (ObjectId from : froms_v) m += ' ' + std::to_string(from.raw());
      m += '\n';
    }
  }
  const std::uint32_t crc = support::crc32c(m);
  m += "end " + hex64(crc) + '\n';
  const std::uint64_t manifest_size = m.size();
  if (auto st = journal_fs_->write_file(dir.child("manifest"), std::move(m)); !st.ok()) {
    return fail_snapshot(st);
  }

  snapshot_seq_ = seq;
  commits_since_snapshot_ = 0;
  ++snapshots_written_;
  writes.add(1);
  write_bytes.add(manifest_size + blob_bytes);
  // Every pending record has seq <= the snapshot we just wrote.
  wal_pending_.clear();
  wal_pending_count_ = 0;
  // Truncate the WAL and drop older snapshots -- both best-effort:
  // replay skips records the snapshot covers, and recovery ignores
  // stale snapshot directories newer-first.
  if (auto st = journal_fs_->write_file(wal_path(), std::string(wal::kFileHeader)); st.ok()) {
    wal_expected_bytes_ = wal::kFileHeader.size();
    wal_tail_dirty_ = false;
    wal_preallocate_locked();
  }
  if (auto listed = journal_fs_->list(snap_root()); listed.ok()) {
    for (const auto& name : *listed) {
      std::uint64_t n = 0;
      if (!parse_u64(name, n) || n != seq) {
        (void)journal_fs_->remove(snap_root().child(name), /*recursive=*/true);
      }
    }
  }
  return {};
}

Status Store::snapshot() {
  std::unique_lock lock(mu_);
  if (journal_fs_ == nullptr) {
    return support::fail(Errc::invalid_argument, "snapshot: store not attached");
  }
  if (tx_open_.load(std::memory_order_relaxed)) {
    return support::fail(Errc::invalid_argument, "snapshot: transaction open");
  }
  return write_snapshot_locked();
}

// ======================= recovery =========================================

void Store::reset_locked() {
  objects_.clear();
  relations_.clear();
  for (const auto& name : schema_.relation_names()) {
    relations_.emplace(name, RelationIndex{});
  }
  class_index_.clear();
  attr_index_.clear();
  epoch_index_.clear();
  epoch_.store(0, std::memory_order_relaxed);
  undo_log_.clear();
  ids_ = support::IdAllocator<ObjectTag>{};
}

Status Store::load_snapshot_locked(vfs::FileSystem& fs, const vfs::Path& dir,
                                   std::uint64_t seq, std::uint64_t& max_id) {
  const vfs::Path snap = dir.child("snap").child(std::to_string(seq));
  auto text = fs.read_file(snap.child("manifest"));
  if (!text.ok()) return Status(text.error());
  // The CRC trailer covers every byte before the "end " line.
  const std::size_t end_pos = text->rfind("end ");
  if (end_pos == std::string::npos || (end_pos != 0 && (*text)[end_pos - 1] != '\n')) {
    return corrupt("missing crc trailer");
  }
  const std::size_t end_eol = text->find('\n', end_pos);
  if (end_eol == std::string::npos) return corrupt("unterminated crc trailer");
  std::uint64_t recorded_crc = 0;
  if (!parse_hex64(std::string_view(*text).substr(end_pos + 4, end_eol - end_pos - 4),
                   recorded_crc)) {
    return corrupt("bad crc trailer");
  }
  if (support::crc32c(std::string_view(*text).substr(0, end_pos)) !=
      static_cast<std::uint32_t>(recorded_crc)) {
    return corrupt("manifest crc mismatch");
  }

  auto lines = support::split(std::string_view(*text).substr(0, end_pos), '\n');
  if (lines.empty() || support::trim(lines[0]) != "omssnap 1") {
    return corrupt("not a snapshot manifest");
  }
  std::uint64_t manifest_seq = 0;
  std::uint64_t manifest_epoch = 0;
  std::uint64_t manifest_ids = 0;
  // Distinct attrs sharing one payload buffer in the live store come
  // back sharing one extent AND one memo: blobs are keyed by content
  // hash, so the cache below restores the sharing structurally.
  std::map<std::uint64_t, StoredText> blob_cache;
  std::vector<std::string_view> fields;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    std::string_view line = support::trim(lines[n]);
    if (line.empty()) continue;
    support::split_ws(line, fields);
    const std::string_view kind = fields[0];
    if (kind == "seq") {
      if (fields.size() != 2 || !parse_u64(fields[1], manifest_seq) || manifest_seq != seq) {
        return corrupt("bad seq line");
      }
    } else if (kind == "epoch") {
      if (fields.size() != 2 || !parse_u64(fields[1], manifest_epoch)) {
        return corrupt("bad epoch line");
      }
    } else if (kind == "ids") {
      if (fields.size() != 2 || !parse_u64(fields[1], manifest_ids)) {
        return corrupt("bad ids line");
      }
    } else if (kind == "object") {
      if (fields.size() != 5) return corrupt("bad object line");
      std::uint64_t raw = 0, created = 0, modified = 0;
      if (!parse_u64(fields[1], raw) || !parse_u64(fields[3], created) ||
          !parse_u64(fields[4], modified)) {
        return corrupt("bad object line");
      }
      if (schema_.find_class(fields[2]) == nullptr) {
        return corrupt("unknown class " + std::string(fields[2]));
      }
      ObjectId id(raw);
      if (objects_.contains(id)) return corrupt("duplicate object id");
      Object obj;
      obj.class_name = fields[2];
      obj.created = created;
      obj.modified = modified;
      auto oit = objects_.emplace(id, std::move(obj)).first;
      index_add_object(id, oit->second);
      if (modified != 0) epoch_entry_insert(oit->second.class_name, modified, id);
      max_id = std::max(max_id, raw);
    } else if (kind == "attr") {
      if (fields.size() != 5) return corrupt("bad attr line");
      std::uint64_t raw = 0;
      if (!parse_u64(fields[1], raw)) return corrupt("bad attr line");
      auto oit = objects_.find(ObjectId(raw));
      if (oit == objects_.end()) return corrupt("attr before object");
      const AttributeDef* def = schema_.find_attribute(oit->second.class_name, fields[2]);
      if (def == nullptr) return corrupt("unknown attribute " + std::string(fields[2]));
      StoredValue stored;
      if (fields[3] == "int" && def->type == AttrType::integer) {
        std::int64_t v = 0;
        auto [p, ec] = std::from_chars(fields[4].data(), fields[4].data() + fields[4].size(), v);
        if (ec != std::errc{} || p != fields[4].data() + fields[4].size()) {
          return corrupt("bad integer value");
        }
        stored = StoredValue(v);
      } else if (fields[3] == "real" && def->type == AttrType::real) {
        try {
          std::size_t pos = 0;
          double v = std::stod(std::string(fields[4]), &pos);
          if (pos != fields[4].size()) return corrupt("bad real value");
          stored = StoredValue(v);
        } catch (const std::exception&) {
          return corrupt("bad real value");
        }
      } else if (fields[3] == "bool" && def->type == AttrType::boolean) {
        if (fields[4] != "true" && fields[4] != "false") return corrupt("bad bool value");
        stored = StoredValue(fields[4] == "true");
      } else {
        return corrupt("attr type mismatch");
      }
      index_add_attr(ObjectId(raw), oit->second.class_name, fields[2], stored);
      oit->second.attrs[std::string(fields[2])] = std::move(stored);
    } else if (kind == "text") {
      if (fields.size() != 5) return corrupt("bad text line");
      std::uint64_t raw = 0, hash = 0, size = 0;
      if (!parse_u64(fields[1], raw) || !parse_hex64(fields[3], hash) ||
          !parse_u64(fields[4], size)) {
        return corrupt("bad text line");
      }
      auto oit = objects_.find(ObjectId(raw));
      if (oit == objects_.end()) return corrupt("text before object");
      const AttributeDef* def = schema_.find_attribute(oit->second.class_name, fields[2]);
      if (def == nullptr || def->type != AttrType::text) {
        return corrupt("text attr mismatch");
      }
      auto cached = blob_cache.find(hash);
      if (cached == blob_cache.end()) {
        const vfs::Path blob = snap.child("blobs").child(hex64(hash));
        auto extent = fs.read_extent(blob);
        if (!extent.ok()) return Status(extent.error());
        // content_hash is O(1) here when the blob was published via
        // write_extent_hashed (the memo rode along); it still verifies
        // the blob is the one the manifest recorded.
        auto actual = fs.content_hash(blob);
        if (!actual.ok()) return Status(actual.error());
        if (*actual != hash || (*extent)->size() != size) {
          return corrupt("blob content mismatch");
        }
        StoredText stored_text;
        stored_text.text = *extent;
        stored_text.memo = std::make_shared<TextHashMemo>();
        stored_text.memo->hash.store(hash, std::memory_order_relaxed);
        stored_text.memo->valid.store(true, std::memory_order_release);
        cached = blob_cache.emplace(hash, std::move(stored_text)).first;
      } else if (cached->second.text->size() != size) {
        return corrupt("blob size mismatch");
      }
      StoredValue stored = StoredValue(cached->second);
      index_add_attr(ObjectId(raw), oit->second.class_name, fields[2], stored);
      oit->second.attrs[std::string(fields[2])] = std::move(stored);
    } else if (kind == "fwd" || kind == "bwd") {
      if (fields.size() < 3) return corrupt("bad adjacency line");
      auto rit = relations_.find(fields[1]);
      if (rit == relations_.end()) return corrupt("unknown relation " + std::string(fields[1]));
      std::uint64_t key = 0;
      if (!parse_u64(fields[2], key)) return corrupt("bad adjacency line");
      std::vector<ObjectId> peers;
      peers.reserve(fields.size() - 3);
      for (std::size_t i = 3; i < fields.size(); ++i) {
        std::uint64_t peer = 0;
        if (!parse_u64(fields[i], peer)) return corrupt("bad adjacency line");
        if (!objects_.contains(ObjectId(peer))) return corrupt("adjacency to missing object");
      peers.push_back(ObjectId(peer));
      }
      if (!objects_.contains(ObjectId(key))) return corrupt("adjacency from missing object");
      if (kind == "fwd") {
        rit->second.forward[ObjectId(key)] = std::move(peers);
      } else {
        rit->second.backward[ObjectId(key)] = std::move(peers);
      }
    } else {
      return corrupt("unknown record '" + std::string(kind) + "'");
    }
  }
  // Rebuild the edge membership sets from the forward vectors.
  for (auto& [rel_name, index] : relations_) {
    for (const auto& [from, tos] : index.forward) {
      for (ObjectId to : tos) edge_insert(index, from, to);
    }
  }
  epoch_.store(manifest_epoch, std::memory_order_relaxed);
  max_id = std::max(max_id, manifest_ids);
  return {};
}

Status Store::apply_record(const wal::Record& rec, std::uint64_t& max_id) {
  // Pin the epoch to the recorded bracket: aborted transactions in the
  // original run left gaps, and per-object stamps must land on the
  // exact values the live store handed out.
  epoch_.store(rec.epoch_before, std::memory_order_relaxed);
  for (const auto& op : rec.ops) {
    Status st = std::visit(
        [this, &max_id](const auto& o) -> Status {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, wal::OpCreate>) {
            const ClassDef* def = schema_.find_class(o.class_name);
            if (def == nullptr) {
              return support::fail(Errc::parse_error, "wal: unknown class " + o.class_name);
            }
            ObjectId id(o.id);
            if (objects_.contains(id)) {
              return support::fail(Errc::parse_error, "wal: duplicate object id");
            }
            Object obj;
            obj.class_name = def->name;
            obj.created = o.created;
            auto it = objects_.emplace(id, std::move(obj)).first;
            index_add_object(id, it->second);
            touch(id, it->second);
            max_id = std::max(max_id, o.id);
            return Status{};
          } else if constexpr (std::is_same_v<T, wal::OpDestroy>) {
            return destroy_locked(ObjectId(o.id));
          } else if constexpr (std::is_same_v<T, wal::OpSet>) {
            auto it = objects_.find(ObjectId(o.id));
            if (it == objects_.end()) {
              return support::fail(Errc::parse_error, "wal: set on missing object");
            }
            const AttributeDef* def =
                schema_.find_attribute(it->second.class_name, o.attr);
            if (def == nullptr) {
              return support::fail(Errc::parse_error, "wal: unknown attribute " + o.attr);
            }
            StoredValue stored;
            if (const auto* i = std::get_if<std::int64_t>(&o.value)) {
              if (def->type != AttrType::integer) {
                return support::fail(Errc::parse_error, "wal: attr type mismatch");
              }
              stored = StoredValue(*i);
            } else if (const auto* d = std::get_if<double>(&o.value)) {
              if (def->type != AttrType::real) {
                return support::fail(Errc::parse_error, "wal: attr type mismatch");
              }
              stored = StoredValue(*d);
            } else if (const auto* b = std::get_if<bool>(&o.value)) {
              if (def->type != AttrType::boolean) {
                return support::fail(Errc::parse_error, "wal: attr type mismatch");
              }
              stored = StoredValue(*b);
            } else {
              const auto& tv = std::get<wal::TextValue>(o.value);
              if (def->type != AttrType::text) {
                return support::fail(Errc::parse_error, "wal: attr type mismatch");
              }
              StoredText stext;
              stext.text = std::make_shared<const std::string>(tv.bytes);
              stext.memo = std::make_shared<TextHashMemo>();
              // Seed the memo when the writer had one memoized: the
              // recovered attribute keeps the zero-rehash warm path.
              // hash 0 = unmemoized at capture; leave the memo lazy.
              if (tv.hash != 0) {
                stext.memo->hash.store(tv.hash, std::memory_order_relaxed);
                stext.memo->valid.store(true, std::memory_order_release);
              }
              stored = StoredValue(std::move(stext));
            }
            return set_stored(ObjectId(o.id), it->second, o.attr, std::move(stored));
          } else if constexpr (std::is_same_v<T, wal::OpLink>) {
            const RelationDef* rel = schema_.find_relation(o.relation);
            if (rel == nullptr) {
              return support::fail(Errc::parse_error, "wal: unknown relation " + o.relation);
            }
            if (!objects_.contains(ObjectId(o.from)) || !objects_.contains(ObjectId(o.to))) {
              return support::fail(Errc::parse_error, "wal: link to missing object");
            }
            return link_nocheck(*rel, ObjectId(o.from), ObjectId(o.to));
          } else {
            return unlink_locked(o.relation, ObjectId(o.from), ObjectId(o.to));
          }
        },
        op);
    if (!st.ok()) return st;
  }
  if (epoch_.load(std::memory_order_relaxed) != rec.epoch_after) {
    return support::fail(Errc::parse_error, "wal: epoch bracket mismatch after replay");
  }
  return {};
}

Status Store::open(vfs::FileSystem& fs, const vfs::Path& dir) {
  JFM_SPAN("oms", "store.open");
  std::unique_lock lock(mu_);
  if (options_.durability != StoreOptions::Durability::wal) {
    return support::fail(Errc::invalid_argument, "open: durability is off for this store");
  }
  if (journal_fs_ != nullptr) {
    return support::fail(Errc::already_exists, "open: store already attached");
  }
  if (tx_open_.load(std::memory_order_relaxed)) {
    return support::fail(Errc::invalid_argument, "open: transaction open");
  }
  if (!objects_.empty() || epoch_.load(std::memory_order_relaxed) != 0) {
    return support::fail(Errc::invalid_argument, "open: store is not empty");
  }
  if (auto st = fs.mkdirs(dir.child("snap")); !st.ok()) return st;

  journal_fs_ = &fs;
  journal_dir_ = dir;
  replaying_ = true;
  auto detach = [this](Status st) {
    replaying_ = false;
    journal_fs_ = nullptr;
    reset_locked();
    commit_seq_ = snapshot_seq_ = 0;
    return st;
  };

  // Newest numerically-named snapshot that loads and verifies wins;
  // invalid ones (half-written before a crash) are skipped and the
  // next-older tried, down to WAL-only recovery from scratch.
  std::uint64_t max_id = 0;
  std::vector<std::uint64_t> snaps;
  if (auto listed = fs.list(dir.child("snap")); listed.ok()) {
    for (const auto& name : *listed) {
      std::uint64_t n = 0;
      if (parse_u64(name, n)) snaps.push_back(n);
    }
  }
  std::sort(snaps.rbegin(), snaps.rend());
  static auto& snap_loads = snap_counter("load.count");
  static auto& snap_rejects = snap_counter("load.reject.count");
  bool loaded = false;
  for (std::uint64_t seq : snaps) {
    reset_locked();
    max_id = 0;
    if (auto st = load_snapshot_locked(fs, dir, seq, max_id); st.ok()) {
      snapshot_seq_ = commit_seq_ = seq;
      ++snapshots_loaded_;
      snap_loads.add(1);
      loaded = true;
      break;
    }
    snap_rejects.add(1);
  }
  if (!loaded) {
    reset_locked();
    max_id = 0;
    snapshot_seq_ = commit_seq_ = 0;
  }

  // Replay the WAL tail. Records the snapshot already covers are
  // skipped; a sequence gap is treated exactly like a torn tail.
  static auto& replayed = wal_counter("replayed.count");
  static auto& discarded = wal_counter("discarded.bytes");
  std::uint64_t valid_prefix = 0;  // bytes after the file header
  std::uint64_t dropped = 0;
  const vfs::Path wal = wal_path();
  if (fs.exists(wal)) {
    auto data = fs.read_file(wal);
    if (!data.ok()) return detach(Status(data.error()));
    std::string_view body = *data;
    if (body.substr(0, wal::kFileHeader.size()) != wal::kFileHeader) {
      dropped = body.size();  // not our file: discard it wholesale
    } else {
      body.remove_prefix(wal::kFileHeader.size());
      auto scanned = wal::scan(body);
      dropped = scanned.discarded_bytes;
      for (std::size_t i = 0; i < scanned.records.size(); ++i) {
        const wal::Record& rec = scanned.records[i];
        if (rec.seq <= snapshot_seq_) {
          valid_prefix = scanned.record_ends[i];
          continue;
        }
        if (rec.seq != commit_seq_ + 1) {
          // Sequence gap: everything from here is unusable suffix.
          dropped += scanned.valid_bytes - valid_prefix;
          break;
        }
        if (auto st = apply_record(rec, max_id); !st.ok()) return detach(st);
        commit_seq_ = rec.seq;
        ++wal_replayed_records_;
        replayed.add(1);
        valid_prefix = scanned.record_ends[i];
      }
    }
  }
  wal_discarded_bytes_ += dropped;
  if (dropped != 0) discarded.add(dropped);

  // Rewrite the log to exactly its applied prefix so the torn suffix
  // is GONE, not merely skipped -- a later append must extend whole
  // frames. Failure here is survivable: mark the tail dirty and the
  // pre-append repair truncates it instead.
  const std::uint64_t want = wal::kFileHeader.size() + valid_prefix;
  bool rewrite = dropped != 0 || !fs.exists(wal);
  if (!rewrite) {
    if (auto st = fs.stat(wal); !st.ok() || st->size != want) rewrite = true;
  }
  wal_expected_bytes_ = want;
  wal_tail_dirty_ = false;
  if (rewrite) {
    std::string clean(wal::kFileHeader);
    bool have_prefix = true;
    if (valid_prefix != 0) {
      auto data = fs.read_file(wal);
      if (data.ok()) {
        clean = data->substr(0, want);
      } else {
        have_prefix = false;  // never truncate below the applied prefix
      }
    }
    if (!have_prefix || !fs.write_file(wal, std::move(clean)).ok()) {
      wal_tail_dirty_ = true;
    }
  }

  // Keep new ids clear of every id the recovered image ever issued.
  while (ids_.issued() < max_id) ids_.next();
  // Preallocate journal headroom up front (docs/persistence.md):
  // page faults and buffer growth are paid here, not per commit.
  wal_preallocate_locked();
  replaying_ = false;
  return {};
}

Store::WalStats Store::wal_stats() const {
  std::shared_lock lock(mu_);
  WalStats s;
  s.attached = journal_fs_ != nullptr;
  s.commit_seq = commit_seq_;
  s.snapshot_seq = snapshot_seq_;
  s.pending_records = wal_pending_count_;
  s.appended_records = wal_appended_records_;
  s.appended_bytes = wal_appended_bytes_;
  s.flushes = wal_flushes_;
  s.flush_failures = wal_flush_failures_;
  s.replayed_records = wal_replayed_records_;
  s.discarded_bytes = wal_discarded_bytes_;
  s.snapshots_written = snapshots_written_;
  s.snapshots_loaded = snapshots_loaded_;
  return s;
}

}  // namespace jfm::oms
