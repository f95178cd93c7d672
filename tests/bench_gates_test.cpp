// Tests for the verdict every gated bench reaches through
// bench/bench_common.hpp: a failed Gates::check makes finish() exit 1
// naming the gate and the command that reproduces the run, a run whose
// checks all hold returns, and RFS_CHAOS_SEED is parsed strictly.
#include <gtest/gtest.h>

#include <cstdlib>

#include "../bench/bench_common.hpp"

namespace rfs::bench {
namespace {

TEST(GatesDeathTest, AFailedCheckExitsOneNamingItsGate) {
  EXPECT_EXIT(
      {
        Gates gates("fig00_example");
        gates.check(true, "a gate that holds", "schedule a");
        gates.check(false, "zero widgets lost", "schedule b");
        gates.finish();
      },
      ::testing::ExitedWithCode(1), "GATE FAILED \\[zero widgets lost\\] under schedule b");
}

TEST(GatesDeathTest, TheReproduceLineCarriesTheChaosSettings) {
  EXPECT_EXIT(
      {
        unsetenv("RFS_SMOKE");
        setenv("RFS_CHAOS_SOAK", "1", 1);
        setenv("RFS_CHAOS_SEED", "7", 1);
        Gates gates("fig00_example");
        gates.check(false, "zero widgets lost", "schedule b");
        gates.finish();
      },
      ::testing::ExitedWithCode(1),
      "1 of 1 gates failed; reproduce with: RFS_CHAOS_SOAK=1 RFS_CHAOS_SEED=7 "
      "\\./bench/fig00_example");
}

TEST(Gates, FinishReturnsWhenEveryCheckHolds) {
  Gates gates("fig00_example");
  gates.check(true, "a gate that holds", "schedule a");
  gates.check(true, "another gate that holds", "schedule b");
  gates.finish();
}

TEST(ChaosSeed, ParsesADecimalSeedAndDefaultsToOne) {
  ASSERT_EQ(setenv("RFS_CHAOS_SEED", "7", 1), 0);
  EXPECT_EQ(chaos_seed(), 7u);
  ASSERT_EQ(setenv("RFS_CHAOS_SEED", "", 1), 0);
  EXPECT_EQ(chaos_seed(), 1u);
  ASSERT_EQ(unsetenv("RFS_CHAOS_SEED"), 0);
  EXPECT_EQ(chaos_seed(), 1u);
}

TEST(ChaosSeedDeathTest, RejectsWhatIsNotAWholeDecimalNumber) {
  for (const char* bad : {"abc", "12x", "-1", " 7", "18446744073709551616"}) {
    EXPECT_EXIT(
        {
          setenv("RFS_CHAOS_SEED", bad, 1);
          (void)chaos_seed();
        },
        ::testing::ExitedWithCode(2), "is not a whole decimal number")
        << "RFS_CHAOS_SEED=" << bad;
  }
}

}  // namespace
}  // namespace rfs::bench
