// Inter-project data sharing -- the s3.1 future-work extension ("it
// would be helpful to also provide access to cells of other projects")
// plus framework checkpoint/restore through the OMS dump.

#include <gtest/gtest.h>

#include "jfm/jcf/framework.hpp"

namespace jfm::jcf {
namespace {

using support::Errc;

class SharingTest : public ::testing::Test {
 protected:
  explicit SharingTest(oms::StoreOptions options = {}) : jcf(&clock, options) {}

  void SetUp() override {
    user = *jcf.create_user("alice");
    team = *jcf.create_team("rtl");
    ASSERT_TRUE(jcf.add_member(team, user).ok());
    auto tool = *jcf.register_tool("t");
    vt = *jcf.create_viewtype("schematic");
    auto act = *jcf.create_activity("a", tool, {}, {vt});
    flow = *jcf.create_flow("f", {act});
    ASSERT_TRUE(jcf.freeze_flow(flow).ok());
    ip_library = *jcf.create_project("ip_library", team);
    soc = *jcf.create_project("soc", team);
  }

  CellRef published_cell(ProjectRef project, const std::string& name) {
    auto cell = *jcf.create_cell(project, name, flow, team);
    auto cv = *jcf.create_cell_version(cell, user);
    EXPECT_TRUE(jcf.reserve(cv, user).ok());
    auto variant = *jcf.create_variant(cv, "work", user);
    auto dobj = *jcf.create_design_object(variant, "schematic", vt, user);
    (void)*jcf.create_dov(dobj, "ip data", user);
    EXPECT_TRUE(jcf.publish(cv, user).ok());
    return cell;
  }

  support::SimClock clock;
  JcfFramework jcf;
  UserRef user;
  TeamRef team;
  ViewTypeRef vt;
  FlowRef flow;
  ProjectRef ip_library, soc;
};

TEST_F(SharingTest, SharedCellVisibleInBorrowingProject) {
  auto cell = published_cell(ip_library, "uart");
  EXPECT_EQ(jcf.find_cell(soc, "uart").code(), Errc::not_found);
  ASSERT_TRUE(jcf.share_cell(soc, cell).ok());
  auto found = jcf.find_cell(soc, "uart");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, cell);
  // ownership is unchanged
  EXPECT_EQ(*jcf.project_of(cell), ip_library);
  auto shared = jcf.shared_cells(soc);
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(shared->size(), 1u);
  // own cells list does not grow
  EXPECT_TRUE(jcf.cells(soc)->empty());
}

TEST_F(SharingTest, OnlyPublishedCellsCanBeShared) {
  auto cell = *jcf.create_cell(ip_library, "wip", flow, team);
  (void)*jcf.create_cell_version(cell, user);  // never published
  auto st = jcf.share_cell(soc, cell);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Errc::permission_denied);
  // a cell with no versions at all
  auto bare = *jcf.create_cell(ip_library, "bare", flow, team);
  EXPECT_EQ(jcf.share_cell(soc, bare).code(), Errc::not_found);
}

TEST_F(SharingTest, CannotShareIntoOwnProjectOrTwice) {
  auto cell = published_cell(ip_library, "uart");
  EXPECT_EQ(jcf.share_cell(ip_library, cell).code(), Errc::invalid_argument);
  ASSERT_TRUE(jcf.share_cell(soc, cell).ok());
  EXPECT_EQ(jcf.share_cell(soc, cell).code(), Errc::already_exists);
}

TEST_F(SharingTest, SharedDataReadableAcrossProjects) {
  auto cell = published_cell(ip_library, "uart");
  ASSERT_TRUE(jcf.share_cell(soc, cell).ok());
  auto found = *jcf.find_cell(soc, "uart");
  auto cv = *jcf.latest_cell_version(found);
  auto variant = *jcf.find_variant(cv, "work");
  auto dobj = *jcf.find_design_object(variant, "schematic");
  auto dov = *jcf.latest_dov(dobj);
  auto stranger = *jcf.create_user("bob");
  auto data = jcf.dov_data(dov, stranger);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "ip data");
}

TEST_F(SharingTest, OwnCellShadowsSharedOnLookup) {
  auto ip_cell = published_cell(ip_library, "uart");
  ASSERT_TRUE(jcf.share_cell(soc, ip_cell).ok());
  auto own = *jcf.create_cell(soc, "uart", flow, team);
  auto found = jcf.find_cell(soc, "uart");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, own);  // project_cell searched before project_shared
}

TEST_F(SharingTest, CheckpointRestoreRoundTrip) {
  auto cell = published_cell(ip_library, "uart");
  ASSERT_TRUE(jcf.share_cell(soc, cell).ok());
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(vfs::Path().child("db")).ok());
  auto file = vfs::Path().child("db").child("jcf.oms");
  ASSERT_TRUE(jcf.checkpoint(fs, file).ok());

  JcfFramework restored(&clock);
  ASSERT_TRUE(restored.restore(fs, file).ok());
  // the full object graph survives, ids included
  auto project = restored.find_project("ip_library");
  ASSERT_TRUE(project.ok());
  auto found = restored.find_cell(*restored.find_project("soc"), "uart");
  ASSERT_TRUE(found.ok());
  auto cv = *restored.latest_cell_version(*found);
  auto variant = *restored.find_variant(cv, "work");
  auto dobj = *restored.find_design_object(variant, "schematic");
  auto dov = *restored.latest_dov(dobj);
  auto reader = restored.find_user("alice");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*restored.dov_data(dov, *reader), "ip data");
  // restoring into a non-empty framework is refused
  EXPECT_EQ(restored.restore(fs, file).code(), Errc::invalid_argument);
}

TEST_F(SharingTest, CheckpointIsStable) {
  (void)published_cell(ip_library, "uart");
  vfs::FileSystem fs(&clock);
  ASSERT_TRUE(fs.mkdirs(vfs::Path().child("db")).ok());
  auto f1 = vfs::Path().child("db").child("a.oms");
  auto f2 = vfs::Path().child("db").child("b.oms");
  ASSERT_TRUE(jcf.checkpoint(fs, f1).ok());
  JcfFramework restored(&clock);
  ASSERT_TRUE(restored.restore(fs, f1).ok());
  ASSERT_TRUE(restored.checkpoint(fs, f2).ok());
  EXPECT_EQ(*fs.read_file(f1), *fs.read_file(f2));
}

// find_cell and create_cell's duplicate check answer from the (Cell,
// name) attribute index. Every case runs with the indexes on and with
// the full-scan ablation, which must give the same answers.
class FindCellTest : public ::testing::WithParamInterface<bool>, public SharingTest {
 protected:
  FindCellTest() : SharingTest(oms::StoreOptions{.secondary_indexes = GetParam()}) {}

  ProjectRef project(const std::string& name) { return *jcf.create_project(name, team); }
};

TEST_P(FindCellTest, SameNamedCellElsewhereIsInvisibleUntilShared) {
  auto ip_uart = published_cell(ip_library, "uart");
  auto vendor = project("vendor");
  auto vendor_uart = published_cell(vendor, "uart");
  EXPECT_EQ(*jcf.find_cell(ip_library, "uart"), ip_uart);
  EXPECT_EQ(*jcf.find_cell(vendor, "uart"), vendor_uart);
  auto missing = jcf.find_cell(soc, "uart");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Errc::not_found);
  EXPECT_EQ(missing.error().message, "cell 'uart'");
  // sharing the later-created one makes exactly that one visible
  ASSERT_TRUE(jcf.share_cell(soc, vendor_uart).ok());
  EXPECT_EQ(*jcf.find_cell(soc, "uart"), vendor_uart);
}

TEST_P(FindCellTest, SameNamedSharedCellsResolveInLinkOrder) {
  auto ip_uart = published_cell(ip_library, "uart");  // smaller id
  auto vendor_uart = published_cell(project("vendor"), "uart");
  ASSERT_TRUE(jcf.share_cell(soc, vendor_uart).ok());
  ASSERT_TRUE(jcf.share_cell(soc, ip_uart).ok());
  EXPECT_EQ(*jcf.find_cell(soc, "uart"), vendor_uart);  // linked first, not smallest id
  auto other = project("other");
  ASSERT_TRUE(jcf.share_cell(other, ip_uart).ok());
  ASSERT_TRUE(jcf.share_cell(other, vendor_uart).ok());
  EXPECT_EQ(*jcf.find_cell(other, "uart"), ip_uart);
  // an own cell still shadows both
  auto own = *jcf.create_cell(soc, "uart", flow, team);
  EXPECT_EQ(*jcf.find_cell(soc, "uart"), own);
}

TEST_P(FindCellTest, UnknownProjectKeepsItsError) {
  (void)published_cell(ip_library, "uart");
  for (ProjectRef bogus : {ProjectRef(oms::ObjectId(987654)), ProjectRef(team.id)}) {
    auto found = jcf.find_cell(bogus, "uart");
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.error().code, Errc::not_found);
    EXPECT_EQ(found.error().message, "cell 'uart'");
  }
}

TEST_P(FindCellTest, CreateCellRejectsOnlyOwnDuplicates) {
  auto ip_uart = published_cell(ip_library, "uart");
  auto dup = jcf.create_cell(ip_library, "uart", flow, team);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, Errc::already_exists);
  EXPECT_EQ(dup.error().message, "cell 'uart' in this project");
  // a shared cell of the same name does not block an own one
  ASSERT_TRUE(jcf.share_cell(soc, ip_uart).ok());
  EXPECT_TRUE(jcf.create_cell(soc, "uart", flow, team).ok());
  EXPECT_TRUE(jcf.create_cell(project("vendor"), "uart", flow, team).ok());
}

INSTANTIATE_TEST_SUITE_P(Indexes, FindCellTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "indexed" : "full_scan");
                         });

}  // namespace
}  // namespace jfm::jcf
