#pragma once
// TransferEngine: the encapsulation data path between OMS and FMCAD.
//
// Paper s2.1: "In case of encapsulation, the required data are copied
// to and from the database via the UNIX file system." And s3.6: "design
// data have to be copied to and from the JCF database even in the case
// of read only accesses" -- the root cause of the hybrid's size-
// dependent latency.
//
// copy_through_filesystem = true (the paper's implementation) stages
// every payload in a transfer directory before it reaches its
// destination, so each access moves the data twice. false is the
// ablation: a hypothetical direct interface (which JCF 3.0's closed
// architecture did not offer).
//
// content_addressed_cache = true is this repo's answer to the s3.6
// bottleneck: exports are keyed by (design object version, FNV-1a
// content hash). When an unchanged version is re-exported to a
// destination that still holds the same bytes (verified by a cheap
// hash, never a copy), the staging copy and the destination write are
// skipped entirely. Entries are invalidated the moment import_file --
// or anyone else -- publishes a new version of the design object
// (JcfFramework::add_dov_created_listener).
//
// Thread-safety (docs/concurrency.md): the engine carries a reader-
// writer lock. Read-only export paths (export_dov / export_batch,
// including cache probes and staging traffic through per-operation
// staging files) take SHARED access and may run concurrently -- the
// FileSystem and the OMS store underneath carry their own reader
// locks. import_file takes EXCLUSIVE access: while an import publishes
// a new version, no export is in flight on this engine. All transfer
// counters are atomics, so stats_snapshot() is always safe, torn-value
// free, and never blocks the data path. Lock order: engine lock before
// cache_mu_, never the reverse.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "jfm/fmcad/session.hpp"
#include "jfm/jcf/framework.hpp"
#include "jfm/vfs/filesystem.hpp"

namespace jfm::coupling {

/// Point-in-time copy of the transfer accounting; the engine's live
/// counters are atomics and stats_snapshot() materializes one of
/// these. (The old `const TransferStats& stats()` accessor raced with
/// in-flight batches and is gone.)
struct TransferStats {
  std::uint64_t exports = 0;        ///< OMS -> FMCAD
  std::uint64_t imports = 0;        ///< FMCAD -> OMS
  std::uint64_t bytes_exported = 0;
  std::uint64_t bytes_imported = 0;
  /// Physical twins of the byte counters above (docs/vfs-cow.md): the
  /// logical counters model the paper's cost -- every transfer counts
  /// its payload once regardless of staging or sharing, which is what
  /// keeps the 4x staged-vs-native tables comparable across COW modes.
  /// The physical counters record bytes actually duplicated into new
  /// buffers: zero per transfer when the file system shares extents,
  /// size (direct) or 2x size (staged) under the cow-off ablation.
  /// They are analytic mirrors of the engine's own work; the vfs
  /// IoCounters physical fields are the ground truth underneath.
  std::uint64_t bytes_exported_physical = 0;
  std::uint64_t bytes_imported_physical = 0;
  std::uint64_t staging_copies = 0;  ///< extra copies through the transfer dir
  // content-addressed cache accounting
  std::uint64_t cache_hits = 0;          ///< exports served without moving bytes
  std::uint64_t cache_misses = 0;        ///< cache consulted, copy still required
  std::uint64_t cache_evictions = 0;     ///< entries dropped by the LRU bound
  std::uint64_t cache_invalidations = 0; ///< entries dropped by version change
  std::uint64_t bytes_saved = 0;         ///< payload bytes a hit did NOT move
  // fault-tolerance accounting (docs/fault-injection.md)
  std::uint64_t retries = 0;             ///< export attempts repeated after a failure
  std::uint64_t timeouts = 0;            ///< items abandoned at the batch deadline
};

/// Per-item retry discipline for the export path. An attempt that
/// fails with a transient code (io_error, locked) is retried after an
/// exponential backoff until the attempt budget is spent; other codes
/// (not_found, permission_denied, ...) fail immediately -- retrying a
/// deterministic error only burns the budget.
struct RetryPolicy {
  std::size_t max_attempts = 4;         ///< total attempts per item (1 = no retry)
  std::uint64_t backoff_base_us = 50;   ///< first backoff; doubles per retry
  std::uint64_t backoff_cap_us = 2000;  ///< backoff ceiling
};

struct TransferOptions {
  bool copy_through_filesystem = true;   ///< paper behaviour (s2.1)
  bool content_addressed_cache = false;  ///< skip re-exports of unchanged DOVs
  std::size_t cache_capacity = 128;      ///< max cached (dov, dst) entries
  /// Per-item retry discipline (applies to export_dov / export_batch).
  RetryPolicy retry;
};

/// One export request for the batched API.
struct ExportRequest {
  jcf::DovRef dov;
  jcf::UserRef reader;
  vfs::Path dst;
};

class TransferEngine {
 public:
  TransferEngine(jcf::JcfFramework* jcf, vfs::FileSystem* fs, vfs::Path transfer_dir,
                 TransferOptions options);
  ~TransferEngine();
  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// OMS -> file: materialize a design object version at `dst`.
  /// The caller provides the reading user (workspace rules apply).
  /// Takes shared engine access: concurrent exports proceed in
  /// parallel, imports exclude them.
  support::Status export_dov(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst);

  /// Batched export: return one Status per item (same order). The
  /// desktop/hybrid layer uses this to check out a whole hierarchy in
  /// one call. Items run in order on the calling thread, each with the
  /// per-item retry discipline; concurrent callers overlap under the
  /// engine's reader lock.
  /// `timeout_us` > 0 arms a per-batch deadline: items (and retries)
  /// that would start after it fail with Errc::timeout instead; already
  /// running attempts are never interrupted mid-copy, so a timed-out
  /// batch still leaves every individual file all-or-nothing.
  std::vector<support::Status> export_batch(std::span<const ExportRequest> items,
                                            std::uint64_t timeout_us = 0);

  /// True when (dov, dst) is cached AND dst still holds exactly the
  /// bytes an export of `dov` would produce (verified via the memoized
  /// content hash, O(1) on an unchanged file, no payload traffic).
  /// The checkout journal uses this to skip pre-image capture on the
  /// warm path: a true answer means the export cannot change dst.
  bool peek_cached(jcf::DovRef dov, const vfs::Path& dst) const;

  /// file -> OMS: store `src`'s content as a new version of `dobj`.
  /// Takes exclusive engine access (single writer).
  support::Result<jcf::DovRef> import_file(const vfs::Path& src, jcf::DesignObjectRef dobj,
                                           jcf::UserRef writer);

  /// Coherent copy of the counters; safe at any time, even while
  /// batches and imports are in flight.
  TransferStats stats_snapshot() const;
  void reset_stats();
  bool copies_through_filesystem() const noexcept {
    return options_.copy_through_filesystem;
  }
  const TransferOptions& options() const noexcept { return options_; }
  std::size_t cache_size() const;
  void clear_cache();

 private:
  struct CacheEntry {
    std::uint64_t content_hash = 0;
    std::uint64_t bytes = 0;
    oms::ObjectId dobj;      // owning design object, for invalidation
    std::uint64_t last_used = 0;
  };
  using CacheKey = std::pair<oms::ObjectId, std::string>;  // (dov, dst path)

  /// Atomic twin of TransferStats: bumped from shared-lock export paths.
  struct AtomicTransferStats {
    std::atomic<std::uint64_t> exports{0};
    std::atomic<std::uint64_t> imports{0};
    std::atomic<std::uint64_t> bytes_exported{0};
    std::atomic<std::uint64_t> bytes_imported{0};
    std::atomic<std::uint64_t> bytes_exported_physical{0};
    std::atomic<std::uint64_t> bytes_imported_physical{0};
    std::atomic<std::uint64_t> staging_copies{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    std::atomic<std::uint64_t> cache_evictions{0};
    std::atomic<std::uint64_t> cache_invalidations{0};
    std::atomic<std::uint64_t> bytes_saved{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> timeouts{0};
  };

  vfs::Path staging_file(const std::string& tag);
  /// How many times one transfer physically duplicates its payload:
  /// 0 when the file system shares extents, 2 when staged through the
  /// transfer dir, else 1. The factor behind the *_physical counters.
  std::uint64_t physical_copies() const noexcept;
  /// One attempt: lock acquisition, fault hook, export_shared.
  support::Status export_once(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst);
  /// The retry loop around export_once; `deadline_us` is the batch
  /// deadline as steady-clock microseconds (0 = none).
  support::Status export_with_retry(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst,
                                    std::chrono::steady_clock::time_point deadline,
                                    bool has_deadline);
  support::Status export_shared(jcf::DovRef dov, jcf::UserRef reader, const vfs::Path& dst);
  /// True when (dov, dst) is cached with `hash` and dst still holds
  /// those bytes. Takes cache_mu_; caller holds the engine lock
  /// (shared is enough).
  bool cache_probe(jcf::DovRef dov, const vfs::Path& dst, std::uint64_t hash,
                   std::uint64_t size);
  void cache_store(jcf::DovRef dov, const vfs::Path& dst, std::uint64_t hash,
                   std::uint64_t size);
  void invalidate_dobj(oms::ObjectId dobj);

  jcf::JcfFramework* jcf_;
  vfs::FileSystem* fs_;
  vfs::Path transfer_dir_;
  TransferOptions options_;
  std::uint64_t listener_token_ = 0;

  // mu_ is the engine's reader-writer gate: exports hold it shared,
  // import_file (and reset_stats) exclusively. cache_mu_ guards only
  // the cache map so the jcf invalidation hook (which may fire while
  // mu_ is held by an import on this or another engine) never needs
  // mu_. Lock order: mu_ before cache_mu_, never the reverse.
  mutable std::shared_mutex mu_;
  mutable std::mutex cache_mu_;
  AtomicTransferStats stats_;
  std::atomic<std::uint64_t> stage_counter_{0};
  std::map<CacheKey, CacheEntry> cache_;
  std::uint64_t cache_tick_ = 0;
};

}  // namespace jfm::coupling
