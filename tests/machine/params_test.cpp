#include "machine/params.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

TEST(MachineParams, ValidateAcceptsPresetsAndZeroCosts) {
  for (const MachineParams& m :
       {machines::ncube2(), machines::future_hypercube(), machines::simd_cm2(),
        machines::cm5_measured(), machines::ideal(), MachineParams{}}) {
    EXPECT_NO_THROW(m.validate()) << m.label;
  }
  MachineParams zero;
  zero.t_s = zero.t_w = zero.t_h = 0.0;
  EXPECT_NO_THROW(zero.validate());
}

TEST(MachineParams, ValidateRejectsNonFiniteOrNegativeCosts) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), -5.0};
  for (const double v : bad) {
    for (int field = 0; field < 3; ++field) {
      MachineParams m = machines::ncube2();
      double& slot = field == 0 ? m.t_s : field == 1 ? m.t_w : m.t_h;
      slot = v;
      const char* name = field == 0 ? "t_s (--ts)" : field == 1 ? "t_w (--tw)" : "t_h";
      try {
        m.validate();
        ADD_FAILURE() << name << " = " << v << " accepted";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(name) +
                                             " must be finite and >= 0"),
                  std::string::npos)
            << e.what();
      }
      // The simulator refuses such a machine up front.
      EXPECT_THROW(SimMachine(std::make_shared<Hypercube>(2u), m),
                   PreconditionError)
          << name << " = " << v;
    }
  }
}

TEST(MachineParams, MessageTimeCutThrough) {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 2.0;
  m.routing = Routing::kCutThrough;
  EXPECT_DOUBLE_EQ(m.message_time(5.0), 20.0);       // 10 + 2*5
  EXPECT_DOUBLE_EQ(m.message_time(5.0, 4), 20.0);    // hops free when t_h = 0
  EXPECT_DOUBLE_EQ(m.message_time(5.0, 0), 0.0);     // local
}

TEST(MachineParams, MessageTimeWithHopLatency) {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 2.0;
  m.t_h = 1.0;
  EXPECT_DOUBLE_EQ(m.message_time(5.0, 4), 24.0);  // 10 + 4*1 + 2*5
}

TEST(MachineParams, MessageTimeStoreAndForward) {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 2.0;
  m.routing = Routing::kStoreAndForward;
  EXPECT_DOUBLE_EQ(m.message_time(5.0, 3), 60.0);  // (10 + 10) * 3
}

TEST(MachineParams, CpuSpeedupScalesRelativeCosts) {
  MachineParams m;
  m.t_s = 100.0;
  m.t_w = 3.0;
  m.t_h = 0.5;
  const auto fast = m.with_cpu_speedup(10.0);
  EXPECT_DOUBLE_EQ(fast.t_s, 1000.0);
  EXPECT_DOUBLE_EQ(fast.t_w, 30.0);
  EXPECT_DOUBLE_EQ(fast.t_h, 5.0);
  EXPECT_THROW(m.with_cpu_speedup(0.0), PreconditionError);
}

TEST(MachineParams, CpuSpeedupLabelIsCompact) {
  MachineParams m;
  m.label = "base";
  // std::to_string used to render "cpu x2.000000"; the label now uses the
  // compact number format.
  EXPECT_EQ(m.with_cpu_speedup(2.0).label, "base (cpu x2)");
  EXPECT_EQ(m.with_cpu_speedup(2.5).label, "base (cpu x2.5)");
}

TEST(MachineParams, FromPhysicalNormalises) {
  // Section 9 CM-5 measurements.
  const auto m = MachineParams::from_physical(1.53, 380.0, 1.8, "cm5");
  EXPECT_NEAR(m.t_s, 248.37, 0.01);
  EXPECT_NEAR(m.t_w, 1.176, 0.001);
  EXPECT_THROW(MachineParams::from_physical(0.0, 1.0, 1.0), PreconditionError);
}

TEST(MachinePresets, PaperParameterSets) {
  EXPECT_DOUBLE_EQ(machines::ncube2().t_s, 150.0);
  EXPECT_DOUBLE_EQ(machines::ncube2().t_w, 3.0);
  EXPECT_DOUBLE_EQ(machines::future_hypercube().t_s, 10.0);
  EXPECT_DOUBLE_EQ(machines::simd_cm2().t_s, 0.5);
  EXPECT_DOUBLE_EQ(machines::simd_cm2().t_w, 3.0);
  EXPECT_NEAR(machines::cm5_measured().t_s, 248.37, 0.01);
  EXPECT_NEAR(machines::cm5_measured().t_w, 1.176, 0.001);
  // Eq. 18's constants are these exact ratios of the Section 9 measurements
  // (1.53 us per multiply-add, 380 us startup, 1.8 us per 4-byte word); the
  // per-4-byte-word convention is deliberate — see machine/params.cpp.
  EXPECT_DOUBLE_EQ(machines::cm5_measured().t_s, 380.0 / 1.53);
  EXPECT_DOUBLE_EQ(machines::cm5_measured().t_w, 1.8 / 1.53);
  EXPECT_DOUBLE_EQ(machines::ideal().t_s, 0.0);
  EXPECT_DOUBLE_EQ(machines::ideal().t_w, 0.0);
}

TEST(MachinePresets, DefaultsAreOnePortCutThrough) {
  const auto m = machines::ncube2();
  EXPECT_EQ(m.ports, PortModel::kOnePort);
  EXPECT_EQ(m.routing, Routing::kCutThrough);
  EXPECT_DOUBLE_EQ(m.t_h, 0.0);
}

}  // namespace
}  // namespace hpmm
