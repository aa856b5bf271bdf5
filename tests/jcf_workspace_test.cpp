// The JCF workspace concept (paper s2.1/s3.1): exclusive reservation,
// published-only visibility for everyone else, and publication.

#include <gtest/gtest.h>

#include "jfm/jcf/framework.hpp"

namespace jfm::jcf {
namespace {

using support::Errc;

class WorkspaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice = *jcf.create_user("alice");
    bob = *jcf.create_user("bob");
    outsider = *jcf.create_user("eve");
    team = *jcf.create_team("rtl");
    ASSERT_TRUE(jcf.add_member(team, alice).ok());
    ASSERT_TRUE(jcf.add_member(team, bob).ok());
    auto tool = *jcf.register_tool("t");
    vt = *jcf.create_viewtype("schematic");
    auto act = *jcf.create_activity("a", tool, {}, {vt});
    flow = *jcf.create_flow("f", {act});
    ASSERT_TRUE(jcf.freeze_flow(flow).ok());
    project = *jcf.create_project("chip", team);
    cell = *jcf.create_cell(project, "alu", flow, team);
    cv = *jcf.create_cell_version(cell, alice);
  }

  support::SimClock clock;
  JcfFramework jcf{&clock};
  UserRef alice, bob, outsider;
  TeamRef team;
  ViewTypeRef vt;
  FlowRef flow;
  ProjectRef project;
  CellRef cell;
  CellVersionRef cv;
};

TEST_F(WorkspaceTest, ReserveIsExclusive) {
  EXPECT_EQ(*jcf.reserved_by(cv), "");
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  EXPECT_EQ(*jcf.reserved_by(cv), "alice");
  auto denied = jcf.reserve(cv, bob);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, Errc::locked);
  // re-reserving your own workspace is flagged distinctly
  EXPECT_EQ(jcf.reserve(cv, alice).code(), Errc::already_exists);
  EXPECT_EQ(jcf.workspace_stats().reservation_conflicts, 2u);
  EXPECT_EQ(jcf.workspace_stats().reservations, 1u);
}

TEST_F(WorkspaceTest, ReserveRequiresTeamMembership) {
  auto denied = jcf.reserve(cv, outsider);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, Errc::permission_denied);
}

TEST_F(WorkspaceTest, UnpublishedDataVisibleOnlyToHolder) {
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  auto variant = *jcf.create_variant(cv, "work", alice);
  auto dobj = *jcf.create_design_object(variant, "schematic", vt, alice);
  auto dov = *jcf.create_dov(dobj, "secret design", alice);
  // holder reads fine
  EXPECT_EQ(*jcf.dov_data(dov, alice), "secret design");
  // teammate cannot see unpublished data
  auto denied = jcf.dov_data(dov, bob);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, Errc::permission_denied);
  EXPECT_EQ(jcf.workspace_stats().read_denials, 1u);
  // after publish everyone reads
  ASSERT_TRUE(jcf.publish(cv, alice).ok());
  EXPECT_EQ(*jcf.dov_data(dov, bob), "secret design");
  EXPECT_EQ(*jcf.dov_data(dov, outsider), "secret design");
}

TEST_F(WorkspaceTest, PublishReleasesReservation) {
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  ASSERT_TRUE(jcf.publish(cv, alice).ok());
  EXPECT_EQ(*jcf.reserved_by(cv), "");
  // bob can now take it
  EXPECT_TRUE(jcf.reserve(cv, bob).ok());
}

TEST_F(WorkspaceTest, OnlyHolderCanPublish) {
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  auto denied = jcf.publish(cv, bob);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, Errc::permission_denied);
  // publishing an unreserved version also fails
  auto cv2 = *jcf.create_cell_version(cell, alice);
  EXPECT_EQ(jcf.publish(cv2, alice).code(), Errc::permission_denied);
}

TEST_F(WorkspaceTest, WritesRequireTheWorkspace) {
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  auto variant = *jcf.create_variant(cv, "work", alice);
  auto dobj = *jcf.create_design_object(variant, "schematic", vt, alice);
  // bob holds nothing: all writes denied
  EXPECT_EQ(jcf.create_dov(dobj, "x", bob).code(), Errc::permission_denied);
  EXPECT_EQ(jcf.create_design_object(variant, "d2", vt, bob).code(), Errc::permission_denied);
  EXPECT_EQ(jcf.create_variant(cv, "v2", bob).code(), Errc::permission_denied);
}

TEST_F(WorkspaceTest, ParallelWorkOnDifferentCellVersions) {
  // the capability FMCAD lacks (s3.1): two users, two versions of the
  // same cell, simultaneously
  auto cv2 = *jcf.create_cell_version(cell, bob);
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  ASSERT_TRUE(jcf.reserve(cv2, bob).ok());
  auto va = *jcf.create_variant(cv, "work", alice);
  auto vb = *jcf.create_variant(cv2, "work", bob);
  auto da = *jcf.create_design_object(va, "schematic", vt, alice);
  auto db = *jcf.create_design_object(vb, "schematic", vt, bob);
  EXPECT_TRUE(jcf.create_dov(da, "alice's take", alice).ok());
  EXPECT_TRUE(jcf.create_dov(db, "bob's take", bob).ok());
}

TEST_F(WorkspaceTest, PublishMakesAllVariantDataVisible) {
  ASSERT_TRUE(jcf.reserve(cv, alice).ok());
  auto v1 = *jcf.create_variant(cv, "opt1", alice);
  auto v2 = *jcf.create_variant(cv, "opt2", alice);
  auto d1 = *jcf.create_design_object(v1, "schematic", vt, alice);
  auto d2 = *jcf.create_design_object(v2, "schematic", vt, alice);
  auto dov1 = *jcf.create_dov(d1, "one", alice);
  auto dov2 = *jcf.create_dov(d2, "two", alice);
  ASSERT_TRUE(jcf.publish(cv, alice).ok());
  EXPECT_EQ(*jcf.dov_data(dov1, bob), "one");
  EXPECT_EQ(*jcf.dov_data(dov2, bob), "two");
}

}  // namespace
}  // namespace jfm::jcf
