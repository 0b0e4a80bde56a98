// Golden-plan tests: the compiled plan for each bundled overlay is pinned
// byte-for-byte against tests/goldens/plan_<overlay>.txt. A diff here
// means the planner changed its output — trigger selection, join order,
// fanout estimates, index choice or head routing. If the change is
// intentional, regenerate with:
//
//   for o in chord gossip narada pathvector; do
//     build/p2run --overlay $o --explain > tests/goldens/plan_$o.txt
//   done
//
// The dumps are deterministic: plans are built against empty tables, so
// every fanout estimate comes from the static spec priors.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/cli/scenario.h"

namespace p2 {
namespace {

std::string ReadGolden(const std::string& overlay) {
  std::string path = std::string(P2_SOURCE_DIR) + "/tests/goldens/plan_" + overlay + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ExplainGoldenTest : public ::testing::TestWithParam<OverlayKind> {};

TEST_P(ExplainGoldenTest, PlanMatchesGolden) {
  OverlayKind kind = GetParam();
  EXPECT_EQ(ExplainOverlayPlan(kind), ReadGolden(OverlayKindName(kind)));
}

TEST_P(ExplainGoldenTest, DumpIsDeterministic) {
  OverlayKind kind = GetParam();
  EXPECT_EQ(ExplainOverlayPlan(kind), ExplainOverlayPlan(kind));
}

INSTANTIATE_TEST_SUITE_P(AllOverlays, ExplainGoldenTest,
                         ::testing::Values(OverlayKind::kChord, OverlayKind::kGossip,
                                           OverlayKind::kNarada, OverlayKind::kPathVector),
                         [](const ::testing::TestParamInfo<OverlayKind>& info) {
                           return std::string(OverlayKindName(info.param));
                         });

}  // namespace
}  // namespace p2
