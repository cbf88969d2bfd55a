// Tests for the memory technology models: monotonicity and trade-off
// properties the exploration methodology depends on.
#include <gtest/gtest.h>

#include <cmath>

#include "memlib/dram_model.hpp"
#include "memlib/memory_library.hpp"
#include "memlib/sram_model.hpp"
#include "support/check.hpp"

namespace dtse::memlib {
namespace {

TEST(SramModel, AreaGrowsWithWordsAndWidth) {
  SramModel model;
  const auto small = model.cost(256, 8, PortCount::kSingle);
  const auto deeper = model.cost(512, 8, PortCount::kSingle);
  const auto wider = model.cost(256, 16, PortCount::kSingle);
  EXPECT_GT(deeper.area_mm2, small.area_mm2);
  EXPECT_GT(wider.area_mm2, small.area_mm2);
}

TEST(SramModel, EnergyGrowsWithCapacity) {
  SramModel model;
  const auto small = model.cost(256, 8, PortCount::kSingle);
  const auto large = model.cost(4096, 8, PortCount::kSingle);
  EXPECT_GT(large.read_energy_nj, small.read_energy_nj);
}

TEST(SramModel, EnergyIsSubLinearInCapacity) {
  // The property behind Table 4: splitting a memory in two halves saves
  // energy per access.
  SramModel model;
  const auto whole = model.cost(8192, 8, PortCount::kSingle);
  const auto half = model.cost(4096, 8, PortCount::kSingle);
  EXPECT_LT(half.read_energy_nj, whole.read_energy_nj);
  EXPECT_GT(2.0 * half.read_energy_nj, whole.read_energy_nj);
}

TEST(SramModel, PeripheryMakesManySmallMemoriesCostArea) {
  // The other half of Table 4's U-shape: N small memories have more area
  // than one memory of the combined capacity, once N is large.
  SramModel model;
  const auto one = model.cost(1024, 8, PortCount::kSingle);
  const auto piece = model.cost(128, 8, PortCount::kSingle);
  EXPECT_GT(8.0 * piece.area_mm2, one.area_mm2);
}

TEST(SramModel, DualPortCostsMoreInEveryRespect) {
  SramModel model;
  const auto single = model.cost(2048, 10, PortCount::kSingle);
  const auto dual = model.cost(2048, 10, PortCount::kDual);
  EXPECT_GT(dual.area_mm2, 1.5 * single.area_mm2);
  EXPECT_GT(dual.read_energy_nj, single.read_energy_nj);
  EXPECT_GT(dual.static_power_mw, single.static_power_mw);
}

TEST(SramModel, WriteCostsMoreThanRead) {
  SramModel model;
  const auto cost = model.cost(1024, 8, PortCount::kSingle);
  EXPECT_GT(cost.write_energy_nj, cost.read_energy_nj);
}

TEST(SramModel, RejectsBadGeometry) {
  SramModel model;
  EXPECT_THROW((void)model.cost(0, 8, PortCount::kSingle), support::ContractError);
  EXPECT_THROW((void)model.cost(16, 0, PortCount::kSingle), support::ContractError);
  EXPECT_THROW((void)model.cost(16, 200, PortCount::kSingle), support::ContractError);
  EXPECT_THROW((void)model.cost(std::uint64_t{1} << 40, 8, PortCount::kSingle),
               support::ContractError);
}

class SramSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SramSweep, CostsArePositiveAndFinite) {
  SramModel model;
  for (const int width : {2, 8, 10, 16, 20, 32}) {
    for (const auto ports : {PortCount::kSingle, PortCount::kDual}) {
      const auto cost = model.cost(GetParam(), width, ports);
      EXPECT_GT(cost.area_mm2, 0.0);
      EXPECT_GT(cost.read_energy_nj, 0.0);
      EXPECT_GT(cost.write_energy_nj, 0.0);
      EXPECT_GT(cost.static_power_mw, 0.0);
      EXPECT_GT(cost.access_time_ns, 0.0);
      EXPECT_TRUE(std::isfinite(cost.area_mm2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, SramSweep,
                         ::testing::Values(1, 4, 12, 64, 256, 762, 4096, 65536, 262144));

TEST(DramModel, SelectsAPartThatFits) {
  DramModel model;
  const auto sel = model.select(1024 * 1024, 8, PortCount::kSingle, 1e6);
  ASSERT_TRUE(sel.feasible);
  std::uint64_t words = 0;
  for (const auto& part : sel.parts) words += part.words;
  EXPECT_GE(words, 1024u * 1024u);
}

TEST(DramModel, WideSignalUsesWiderOrMoreParts) {
  DramModel model;
  const auto narrow = model.select(1024 * 1024, 8, PortCount::kSingle, 1e6);
  const auto wide = model.select(1024 * 1024, 10, PortCount::kSingle, 1e6);
  ASSERT_TRUE(narrow.feasible && wide.feasible);
  EXPECT_GT(wide.cost.read_energy_nj, narrow.cost.read_energy_nj);

  // Wider and deeper than any catalogue part: the selection composes parts
  // side by side in width and in depth, and together they hold every bit of
  // the signal.
  const std::uint64_t words = 6 * 1024 * 1024;
  const auto composed = model.select(words, 32, PortCount::kSingle, 1e6);
  ASSERT_TRUE(composed.feasible);
  EXPECT_GE(composed.parts.size(), 4u);
  std::uint64_t bits = 0;
  for (const auto& part : composed.parts) {
    EXPECT_LT(part.width_bits, 32);
    EXPECT_LT(part.words, words);
    bits += part.words * static_cast<std::uint64_t>(part.width_bits);
  }
  EXPECT_GE(bits, words * 32);
}

TEST(DramModel, DualPortIsMuchMoreExpensive) {
  // The effect behind Table 2's "no hierarchy" row and Table 3's tightest
  // budget: a dual-ported off-chip signal needs duplicated banks.
  DramModel model;
  const double rate = 5e6;
  const auto single = model.select(1024 * 1024, 8, PortCount::kSingle, rate);
  const auto dual = model.select(1024 * 1024, 8, PortCount::kDual, rate);
  ASSERT_TRUE(single.feasible && dual.feasible);
  const auto power = [rate](const DramSelection& s) {
    return s.cost.read_energy_nj * rate * 1e-6 + s.cost.static_power_mw;
  };
  EXPECT_GT(power(dual), 1.3 * power(single));
  EXPECT_GE(dual.parts.size(), 2 * single.parts.size());
}

TEST(DramModel, PageHitsReduceEnergy) {
  DramModel model;
  const auto random_access = model.select(1024 * 1024, 8, PortCount::kSingle, 1e6, 0.0);
  const auto sequential = model.select(1024 * 1024, 8, PortCount::kSingle, 1e6, 0.9);
  EXPECT_LT(sequential.cost.read_energy_nj, random_access.cost.read_energy_nj);
}

TEST(DramModel, SmallerCapacityIsCheaper) {
  // The compaction pay-off: a 256K-address signal picks a cheaper part than
  // a 1M-address signal.
  DramModel model;
  const double rate = 2e6;
  const auto big = model.select(1024 * 1024, 8, PortCount::kSingle, rate);
  const auto small = model.select(256 * 1024, 8, PortCount::kSingle, rate);
  EXPECT_LE(small.cost.static_power_mw, big.cost.static_power_mw);
  EXPECT_LE(small.cost.read_energy_nj, big.cost.read_energy_nj);
}

TEST(DramModel, OneRightSizedPartBeatsAStackOfSmallOnes) {
  DramModel model;
  const auto sel = model.select(1024 * 1024, 8, PortCount::kSingle, 4e6, 0.5);
  ASSERT_TRUE(sel.feasible);
  EXPECT_EQ(sel.parts.size(), 1u);
}

TEST(DramModel, RejectsBadInput) {
  DramModel model;
  EXPECT_THROW((void)model.select(0, 8, PortCount::kSingle, 1e6), support::ContractError);
  EXPECT_THROW((void)model.select(16, 0, PortCount::kSingle, 1e6), support::ContractError);
  EXPECT_THROW((void)model.select(16, 8, PortCount::kSingle, -1.0), support::ContractError);
  EXPECT_THROW((void)model.select(16, 8, PortCount::kSingle, 1e6, 1.5),
               support::ContractError);
}

TEST(ClockSpec, SecondsAndCycleTime) {
  const ClockSpec clock;
  EXPECT_DOUBLE_EQ(clock.cycle_ns(), 50.0);
  EXPECT_DOUBLE_EQ(clock.seconds(20'000'000), 1.0);
}

TEST(MemoryLibrary, OnchipPowerMatchesHandComputation) {
  MemoryLibrary library;
  MemoryCost cost;
  cost.read_energy_nj = 2.0;
  cost.write_energy_nj = 3.0;
  cost.static_power_mw = 0.5;
  // 1M reads + 1M writes over one second (20M cycles at 20 MHz):
  // (2 + 3) mJ / 1 s = 5 mW dynamic + 0.5 mW static.
  const double power = MemoryLibrary::onchip_frame_power_mw(
      cost, 1'000'000, 1'000'000, library.clock().seconds(20'000'000));
  EXPECT_NEAR(power, 5.5, 1e-9);
}

TEST(MemoryLibrary, InfeasibleSelectionThrows) {
  MemoryLibrary library;
  DramSelection selection;  // feasible = false
  EXPECT_THROW((void)library.offchip_power_mw(selection, 1, 1, 1000),
               support::ContractError);
}

TEST(CostSummary, AdditionAndScalarization) {
  CostSummary a{10.0, 5.0, 20.0};
  CostSummary b{1.0, 2.0, 3.0};
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum.onchip_area_mm2, 11.0);
  EXPECT_DOUBLE_EQ(sum.onchip_power_mw, 7.0);
  EXPECT_DOUBLE_EQ(sum.offchip_power_mw, 23.0);
  EXPECT_DOUBLE_EQ(sum.total_power_mw(), 30.0);
  CostWeights weights{2.0, 1.0};
  EXPECT_DOUBLE_EQ(weights.scalarize(b), 2.0 * 1.0 + 1.0 * 5.0);
}

}  // namespace
}  // namespace dtse::memlib
