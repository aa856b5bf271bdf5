// Concurrency stress: export_batch callers on several threads,
// exporting overlapping DOV sets, while a writer imports new versions
// through the same engine. Run under ThreadSanitizer in CI; the
// assertions check that no TransferStats count is torn and every
// export either succeeded or failed cleanly.
//
// The FileSystem and the OMS store carry their own reader-writer
// locks (docs/concurrency.md); TransferEngine layers the transfer-
// level discipline (shared exports, exclusive imports) on top. All
// shared state the test threads touch goes through the engine's API.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "jfm/coupling/transfer.hpp"

namespace jfm::coupling {
namespace {

class TransferStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs.mkdirs(vfs::Path().child("out")).ok());
    user = *jcf.create_user("alice");
    auto team = *jcf.create_team("rtl");
    ASSERT_TRUE(jcf.add_member(team, user).ok());
    auto tool = *jcf.register_tool("t");
    auto made = *jcf.create_viewtype("made");  // activities must create a viewtype
    auto act = *jcf.create_activity("a", tool, {}, {made});
    auto flow = *jcf.create_flow("f", {act});
    ASSERT_TRUE(jcf.freeze_flow(flow).ok());
    auto project = *jcf.create_project("p", team);
    auto cell = *jcf.create_cell(project, "c", flow, team);
    auto cv = *jcf.create_cell_version(cell, user);
    ASSERT_TRUE(jcf.reserve(cv, user).ok());
    auto variant = *jcf.create_variant(cv, "work", user);
    for (int i = 0; i < kObjects; ++i) {
      auto vt = *jcf.create_viewtype("view" + std::to_string(i));
      dobjs.push_back(*jcf.create_design_object(variant, "do" + std::to_string(i), vt, user));
    }
  }

  static constexpr int kObjects = 6;
  support::SimClock clock;
  vfs::FileSystem fs{&clock};
  jcf::JcfFramework jcf{&clock};
  jcf::UserRef user;
  std::vector<jcf::DesignObjectRef> dobjs;
};

TEST_F(TransferStressTest, ConcurrentBatchExportsAndImportsKeepStatsCoherent) {
  TransferOptions options;
  options.copy_through_filesystem = true;
  options.content_addressed_cache = true;
  options.cache_capacity = 64;  // roomy: hits are guaranteed once the writer drains
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"), options);

  // Seed every design object with one version; these DovRefs are the
  // stable, overlapping set all reader threads export.
  std::vector<jcf::DovRef> seed_dovs;
  for (int i = 0; i < kObjects; ++i) {
    seed_dovs.push_back(
        *jcf.create_dov(dobjs[i], "seed payload " + std::to_string(i), user));
  }
  // Warm the cache with one export per design object before any thread
  // starts: the writer's very first import then has an entry to
  // invalidate even if it wins every race against the readers.
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(engine
                    .export_dov(seed_dovs[i], user,
                                vfs::Path().child("out").child("warm_d" + std::to_string(i)))
                    .ok());
  }
  // Pre-create the importer's source files: the raw FileSystem is not
  // part of the engine's synchronized surface, so all direct fs writes
  // happen before the threads start.
  constexpr int kImports = 48;
  std::vector<vfs::Path> sources;
  for (int i = 0; i < kImports; ++i) {
    vfs::Path src = vfs::Path().child("out").child("src" + std::to_string(i));
    EXPECT_TRUE(fs.write_file(src, "imported payload " + std::to_string(i)).ok());
    sources.push_back(src);
  }

  constexpr int kReaderThreads = 3;
  constexpr int kBatchesPerReader = 12;
  std::atomic<std::uint64_t> ok_exports{0};
  std::atomic<std::uint64_t> failed_exports{0};

  auto reader = [&](int reader_id) {
    for (int round = 0; round < kBatchesPerReader; ++round) {
      std::vector<ExportRequest> items;
      for (int i = 0; i < kObjects; ++i) {
        // overlapping destination set per reader; rounds overwrite
        items.push_back({seed_dovs[i], user,
                         vfs::Path().child("out").child("r" + std::to_string(reader_id) +
                                                        "_d" + std::to_string(i))});
      }
      auto results = engine.export_batch(items);
      for (const auto& st : results) {
        (st.ok() ? ok_exports : failed_exports).fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto writer = [&]() {
    for (int i = 0; i < kImports; ++i) {
      auto dov = engine.import_file(sources[i], dobjs[i % kObjects], user);
      EXPECT_TRUE(dov.ok()) << "import " << i;
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaderThreads; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  for (auto& t : threads) t.join();

  const auto stats = engine.stats_snapshot();
  const std::uint64_t expected_exports =
      static_cast<std::uint64_t>(kReaderThreads) * kBatchesPerReader * kObjects;
  // No torn counters: every request is accounted for exactly once
  // (the +kObjects is the single-threaded cache warm-up above).
  EXPECT_EQ(ok_exports.load(), expected_exports);
  EXPECT_EQ(failed_exports.load(), 0u);
  EXPECT_EQ(stats.exports, expected_exports + kObjects);
  EXPECT_EQ(stats.imports, static_cast<std::uint64_t>(kImports));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.exports);
  // Seed versions are immutable, and each reader re-exports the same
  // (dov, dst) pairs twelve times, so some must hit the cache...
  EXPECT_GT(stats.cache_hits, 0u);
  // ...and the writer's new versions must have invalidated entries.
  EXPECT_GT(stats.cache_invalidations, 0u);

  // Byte totals are exact: every export moved its seed payload size.
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < kObjects; ++i) {
    expected_bytes += ("seed payload " + std::to_string(i)).size();
  }
  EXPECT_EQ(stats.bytes_exported,
            expected_bytes * (kReaderThreads * kBatchesPerReader + 1));

  // And the exported files hold exactly the seed bytes (no torn writes).
  for (int r = 0; r < kReaderThreads; ++r) {
    for (int i = 0; i < kObjects; ++i) {
      auto content = fs.read_file(vfs::Path().child("out").child(
          "r" + std::to_string(r) + "_d" + std::to_string(i)));
      ASSERT_TRUE(content.ok());
      EXPECT_EQ(*content, "seed payload " + std::to_string(i));
    }
  }
}

TEST_F(TransferStressTest, BatchOnColdCacheIsExact) {
  TransferEngine engine(&jcf, &fs, vfs::Path().child("xfer"),
                        TransferOptions{.copy_through_filesystem = true});
  std::vector<ExportRequest> items;
  std::vector<jcf::DovRef> dovs;
  for (int i = 0; i < kObjects; ++i) {
    dovs.push_back(*jcf.create_dov(dobjs[i], std::string(100 + i, 'q'), user));
  }
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < kObjects; ++i) {
      items.push_back({dovs[i], user,
                       vfs::Path().child("out").child("p" + std::to_string(round) + "_" +
                                                      std::to_string(i))});
    }
  }
  auto results = engine.export_batch(items);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_TRUE(results[i].ok()) << i;
  const auto stats = engine.stats_snapshot();
  EXPECT_EQ(stats.exports, items.size());
  EXPECT_EQ(stats.staging_copies, items.size());
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < kObjects; ++i) expected_bytes += (100 + i) * 8;
  EXPECT_EQ(stats.bytes_exported, expected_bytes);
}

}  // namespace
}  // namespace jfm::coupling
