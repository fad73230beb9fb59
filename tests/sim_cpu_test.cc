#include <gtest/gtest.h>

#include "ecodb/sim/calibration.h"
#include "ecodb/sim/cpu.h"

namespace ecodb {
namespace {

TEST(CpuModelTest, StockFrequencyIsE8500) {
  CpuModel cpu(CpuConfig::E8500());
  EXPECT_NEAR(cpu.TopFrequencyHz(), 9.5 * 333.333e6, 1e6);
  EXPECT_NEAR(cpu.IdleFrequencyHz(), 6.0 * 333.333e6, 1e6);
  EXPECT_EQ(cpu.num_pstates(), 4);
}

TEST(CpuModelTest, UnderclockScalesAllPStates) {
  // The paper's key distinction: underclocking scales every p-state while
  // retaining all of them (Section 3).
  CpuModel cpu(CpuConfig::E8500());
  std::vector<double> stock;
  for (int i = 0; i < cpu.num_pstates(); ++i) stock.push_back(cpu.FrequencyHz(i));
  ASSERT_TRUE(cpu.ApplySettings({0.10, VoltageDowngrade::kStock}).ok());
  for (int i = 0; i < cpu.num_pstates(); ++i) {
    EXPECT_NEAR(cpu.FrequencyHz(i), stock[static_cast<size_t>(i)] * 0.9, 1.0);
  }
}

TEST(CpuModelTest, PstateCapIsCoarserThanUnderclock) {
  // Paper example: capping the multiplier at 7 drops 3 GHz to 2.3 GHz —
  // a 23 % step, vs the 5 % steps underclocking provides.
  CpuModel cpu(CpuConfig::E8500());
  double capped = cpu.PstateCapFrequencyHz(7.0);
  EXPECT_NEAR(capped, 7.0 * 333.333e6, 1e6);
  ASSERT_TRUE(cpu.ApplySettings({0.05, VoltageDowngrade::kStock}).ok());
  EXPECT_GT(cpu.TopFrequencyHz(), capped);
}

TEST(CpuModelTest, PowerFollowsCV2F) {
  CpuModel cpu(CpuConfig::E8500());
  double p_stock = cpu.BusyPowerW(LoadClass::kSustained);
  ASSERT_TRUE(cpu.ApplySettings({0.10, VoltageDowngrade::kStock}).ok());
  double p_uc = cpu.BusyPowerW(LoadClass::kSustained);
  // Same voltage, 10 % lower F: dynamic part drops 10 %, uncore constant.
  double v = cpu.LoadVoltage(LoadClass::kSustained);
  double uncore = cpu.config().uncore_k * v * v;
  EXPECT_NEAR((p_uc - uncore) / (p_stock - uncore), 0.9, 1e-6);
}

TEST(CpuModelTest, DowngradeReducesVoltageAndPower) {
  CpuModel cpu(CpuConfig::E8500());
  double p_stock = cpu.BusyPowerW(LoadClass::kBursty);
  ASSERT_TRUE(cpu.ApplySettings({0.0, VoltageDowngrade::kMedium}).ok());
  EXPECT_LT(cpu.LoadVoltage(LoadClass::kBursty), 1.2625);
  EXPECT_LT(cpu.BusyPowerW(LoadClass::kBursty), p_stock);
}

TEST(CpuModelTest, StallAndIdlePowerOrdering) {
  CpuModel cpu(CpuConfig::E8500());
  EXPECT_LT(cpu.IdlePowerW(), cpu.StallPowerW(LoadClass::kSustained));
  EXPECT_LT(cpu.StallPowerW(LoadClass::kSustained),
            cpu.BusyPowerW(LoadClass::kSustained));
}

TEST(CpuModelTest, TheoreticalEdpRisesWithUnderclockAtFixedVoltage) {
  // Section 3.4: with V fixed, EDP ~ V^2/F rises as F falls — why
  // underclocking beyond 5 % worsens EDP.
  CpuModel cpu(CpuConfig::E8500());
  double prev = 0;
  for (double uc : {0.0, 0.05, 0.10, 0.15}) {
    ASSERT_TRUE(cpu.ApplySettings({uc, VoltageDowngrade::kMedium}).ok());
    double edp = cpu.TheoreticalEdpFactor(LoadClass::kSustained);
    EXPECT_GT(edp, prev);
    prev = edp;
  }
}

TEST(CpuModelTest, MediumDowngradeLowersTheoreticalEdp) {
  CpuModel cpu(CpuConfig::E8500());
  ASSERT_TRUE(cpu.ApplySettings({0.05, VoltageDowngrade::kStock}).ok());
  double stock_v = cpu.TheoreticalEdpFactor(LoadClass::kSustained);
  ASSERT_TRUE(cpu.ApplySettings({0.05, VoltageDowngrade::kMedium}).ok());
  EXPECT_LT(cpu.TheoreticalEdpFactor(LoadClass::kSustained), stock_v);
}

TEST(CpuModelTest, RejectsOutOfRangeUnderclock) {
  CpuModel cpu(CpuConfig::E8500());
  EXPECT_TRUE(cpu.ApplySettings({-0.01, VoltageDowngrade::kStock})
                  .IsInvalidArgument());
  EXPECT_TRUE(cpu.ApplySettings({0.5, VoltageDowngrade::kStock})
                  .IsInvalidArgument());
}

struct StabilityCase {
  double underclock;
  VoltageDowngrade downgrade;
  bool stable;
};

class StabilityTest : public ::testing::TestWithParam<StabilityCase> {};

TEST_P(StabilityTest, MatchesPcProbeExpectation) {
  // Paper Section 3.3: small and medium downgrades ran with no PC Probe II
  // warnings at all tested underclocks; our aggressive level must trip.
  const StabilityCase& c = GetParam();
  Status st = CpuModel::CheckStability(CpuConfig::E8500(),
                                       {c.underclock, c.downgrade});
  EXPECT_EQ(st.ok(), c.stable) << st.ToString();
  if (!st.ok()) {
    EXPECT_TRUE(st.IsUnstableSettings());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StabilityTest,
    ::testing::Values(
        StabilityCase{0.00, VoltageDowngrade::kStock, true},
        StabilityCase{0.05, VoltageDowngrade::kStock, true},
        StabilityCase{0.15, VoltageDowngrade::kStock, true},
        StabilityCase{0.00, VoltageDowngrade::kSmall, true},
        StabilityCase{0.05, VoltageDowngrade::kSmall, true},
        StabilityCase{0.10, VoltageDowngrade::kSmall, true},
        StabilityCase{0.15, VoltageDowngrade::kSmall, true},
        StabilityCase{0.00, VoltageDowngrade::kMedium, true},
        StabilityCase{0.05, VoltageDowngrade::kMedium, true},
        StabilityCase{0.10, VoltageDowngrade::kMedium, true},
        StabilityCase{0.15, VoltageDowngrade::kMedium, true},
        StabilityCase{0.00, VoltageDowngrade::kAggressive, false},
        StabilityCase{0.05, VoltageDowngrade::kAggressive, false},
        StabilityCase{0.15, VoltageDowngrade::kAggressive, false}));

TEST(CpuModelTest, PstateCapComposesWithUnderclock) {
  // Regression: the cap frequency used to be computed against the STOCK
  // FSB, so an underclocked machine reported a cap above what multiplier
  // x effective-FSB can actually realize. The cap lives in multiplier
  // space and must follow FsbHz() like every other frequency accessor.
  CpuModel cpu(CpuConfig::E8500());
  ASSERT_TRUE(cpu.ApplySettings({0.10, VoltageDowngrade::kStock}).ok());
  EXPECT_NEAR(cpu.PstateCapFrequencyHz(7.0), 7.0 * 333.333e6 * 0.9, 1e6);
  // And the capped frequency is a realizable operating point: it never
  // exceeds the machine's own (underclocked) top frequency scaled to the
  // capped multiplier.
  EXPECT_LE(cpu.PstateCapFrequencyHz(9.5), cpu.TopFrequencyHz() + 1.0);
}

TEST(CpuModelTest, StabilityChecksOnlyVisitedOperatingPoints) {
  // Regression: CheckStability used to validate every mid p-state at the
  // IDLE voltage — operating points the EIST model never visits (mid
  // p-states run at load voltage; idle drops to the LOWEST p-state).
  // This config has a mid p-state (12 x 333 MHz = 4 GHz, vmin 0.87 V)
  // that fails at the 0.80 V idle voltage, while both real operating
  // points pass: idle = 6 x 333 MHz = 2 GHz (vmin 0.71 <= 0.80) and top
  // = 16 x 333 MHz = 5.33 GHz (vmin 0.98 <= 1.10 V load). The old check
  // falsely rejected it.
  CpuConfig config = CpuConfig::E8500();
  config.multipliers = {6.0, 12.0, 16.0};
  config.idle_voltage[0] = 0.80;
  EXPECT_TRUE(CpuModel::CheckStability(config,
                                       {0.0, VoltageDowngrade::kStock})
                  .ok());
  // Genuinely unstable idle points are still caught: drop the idle
  // voltage below the lowest p-state's vmin.
  config.idle_voltage[0] = 0.70;
  Status st =
      CpuModel::CheckStability(config, {0.0, VoltageDowngrade::kStock});
  EXPECT_TRUE(st.IsUnstableSettings()) << st.ToString();
}

TEST(SettingsTest, ToStringAndEquality) {
  SystemSettings a{0.05, VoltageDowngrade::kMedium};
  EXPECT_EQ(a.ToString(), "uc=5% medium");
  EXPECT_TRUE(a == (SystemSettings{0.05, VoltageDowngrade::kMedium}));
  EXPECT_FALSE(a == SystemSettings::Stock());
}

}  // namespace
}  // namespace ecodb
