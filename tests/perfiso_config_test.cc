#include "src/perfiso/perfiso_config.h"

#include <gtest/gtest.h>

namespace perfiso {
namespace {

TEST(PerfIsoConfigTest, RoundTripsThroughConfigMap) {
  PerfIsoConfig config;
  config.enabled = false;
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  config.blind.buffer_cores = 6;
  config.blind.proportional_step = false;
  config.blind.placement = CorePlacement::kSpread;
  config.blind.initial_secondary_cores = 12;
  config.blind.update_on_every_poll = true;
  config.static_secondary_cores = 20;
  config.cpu_rate_cap = 0.33;
  config.poll_interval = FromMicros(750);
  config.min_free_memory_bytes = 123456789;
  config.memory_check_every_n_polls = 7;
  config.egress_rate_cap_bps = 5e8;
  config.io_window_polls = 9;
  config.io_poll_interval = FromMillis(55);
  config.io_limits.push_back(IoOwnerLimit{901, 60e6, 0, 1, 2.0, 100});
  config.io_limits.push_back(IoOwnerLimit{900, 100e6, 20, 2, 1.0, 0});

  auto parsed = PerfIsoConfig::FromConfigMap(config.ToConfigMap());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PerfIsoConfig& back = *parsed;
  EXPECT_EQ(back.enabled, config.enabled);
  EXPECT_EQ(back.cpu_mode, config.cpu_mode);
  EXPECT_EQ(back.blind.buffer_cores, config.blind.buffer_cores);
  EXPECT_EQ(back.blind.proportional_step, config.blind.proportional_step);
  EXPECT_EQ(back.blind.placement, config.blind.placement);
  EXPECT_EQ(back.blind.initial_secondary_cores, config.blind.initial_secondary_cores);
  EXPECT_EQ(back.blind.update_on_every_poll, config.blind.update_on_every_poll);
  EXPECT_EQ(back.static_secondary_cores, config.static_secondary_cores);
  EXPECT_DOUBLE_EQ(back.cpu_rate_cap, config.cpu_rate_cap);
  EXPECT_EQ(back.poll_interval, config.poll_interval);
  EXPECT_EQ(back.min_free_memory_bytes, config.min_free_memory_bytes);
  EXPECT_EQ(back.memory_check_every_n_polls, config.memory_check_every_n_polls);
  EXPECT_DOUBLE_EQ(back.egress_rate_cap_bps, config.egress_rate_cap_bps);
  EXPECT_EQ(back.io_window_polls, config.io_window_polls);
  EXPECT_EQ(back.io_poll_interval, config.io_poll_interval);
  ASSERT_EQ(back.io_limits.size(), 2u);
  // io_limits come back sorted by owner id.
  EXPECT_EQ(back.io_limits[0].owner, 900);
  EXPECT_DOUBLE_EQ(back.io_limits[0].iops, 20);
  EXPECT_EQ(back.io_limits[1].owner, 901);
  EXPECT_DOUBLE_EQ(back.io_limits[1].bandwidth_bps, 60e6);
  EXPECT_DOUBLE_EQ(back.io_limits[1].min_iops_guarantee, 100);
}

TEST(PerfIsoConfigTest, DefaultsFromEmptyMap) {
  auto config = PerfIsoConfig::FromConfigMap(ConfigMap());
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->enabled);
  EXPECT_EQ(config->cpu_mode, CpuIsolationMode::kBlindIsolation);
  EXPECT_EQ(config->blind.buffer_cores, 8);  // the paper's value for IndexServe
}

TEST(PerfIsoConfigTest, BadModeRejected) {
  ConfigMap map;
  map.SetString("cpu.mode", "turbo");
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());
}

TEST(PerfIsoConfigTest, BadPlacementRejected) {
  ConfigMap map;
  map.SetString("cpu.placement", "diagonal");
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());
}

TEST(PerfIsoConfigTest, StrictParseRejectsUnknownKeys) {
  // A typo'd key fails loudly instead of silently running the default.
  ConfigMap map;
  map.SetInt("cpu.buffer_cores", 6);
  map.SetInt("cpu.bufer_cores", 12);  // typo
  const auto typo = PerfIsoConfig::FromConfigMap(map);
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("cpu.bufer_cores"), std::string::npos);

  ConfigMap clean;
  clean.SetInt("cpu.buffer_cores", 6);
  auto strict = PerfIsoConfig::FromConfigMap(clean);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->blind.buffer_cores, 6);
}

TEST(PerfIsoConfigTest, FabricKeysAreRejected) {
  // The fabric describes the environment, not PerfIso: PerfIso applies only
  // the secondary egress cap, so that is the one net.* key it accepts.
  for (const char* key : {"net.link_rate_bps", "net.uplink_oversubscription",
                          "net.machines_per_rack", "net.base_latency_us", "net.chunk_bytes",
                          "net.tx_priority"}) {
    ConfigMap map;
    map.SetString(key, "1");
    const auto parsed = PerfIsoConfig::FromConfigMap(map);
    ASSERT_FALSE(parsed.ok()) << key;
    EXPECT_NE(parsed.status().message().find(key), std::string::npos) << key;
  }
  ConfigMap egress;
  egress.SetDouble("net.egress_rate_cap_bps", 5e8);
  const auto parsed = PerfIsoConfig::FromConfigMap(egress);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->egress_rate_cap_bps, 5e8);
}

TEST(PerfIsoConfigTest, MalformedIoOwnerIdIsAStatusErrorNotATerminate) {
  // Text configs reach this path (scenario specs embed perfiso.* keys), so a
  // non-numeric or overflowing owner id must come back as a Status.
  ConfigMap map;
  map.SetDouble("io.owner.ml.iops", 5);
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());

  ConfigMap overflow;
  overflow.SetDouble("io.owner.99999999999999999999.iops", 5);
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(overflow).ok());
}

TEST(PerfIsoConfigTest, IntKeyOutsideIntRangeIsRejectedNotWrapped) {
  // 2^32 + 8 used to wrap to 8 through a static_cast<int>.
  ConfigMap map;
  map.SetInt("cpu.buffer_cores", 4294967304LL);
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(map).ok());
  ConfigMap priority;
  priority.SetInt("io.owner.900.priority", -4294967295LL);
  EXPECT_FALSE(PerfIsoConfig::FromConfigMap(priority).ok());
}

TEST(PerfIsoConfigTest, StrictParseAcceptsFullCanonicalForm) {
  PerfIsoConfig config;
  config.io_limits.push_back(IoOwnerLimit{901, 60e6, 0, 1, 2.0, 100});
  auto strict = PerfIsoConfig::FromConfigMap(config.ToConfigMap());
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  ASSERT_EQ(strict->io_limits.size(), 1u);
  EXPECT_EQ(strict->io_limits[0].owner, 901);
}

TEST(PerfIsoConfigTest, ModeNamesRoundTrip) {
  for (CpuIsolationMode mode :
       {CpuIsolationMode::kNone, CpuIsolationMode::kBlindIsolation,
        CpuIsolationMode::kStaticCores, CpuIsolationMode::kCpuRateCap}) {
    auto parsed = ParseCpuIsolationMode(CpuIsolationModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
}

TEST(PerfIsoConfigTest, ValidateRejectsBadValues) {
  PerfIsoConfig config;
  EXPECT_TRUE(config.Validate(48).ok());

  config.blind.buffer_cores = 48;
  EXPECT_FALSE(config.Validate(48).ok());
  config.blind.buffer_cores = 8;

  // Validation is scoped to the active mode: an out-of-range static-cores
  // value is ignored while in blind mode but rejected when it matters.
  config.static_secondary_cores = 49;
  EXPECT_TRUE(config.Validate(48).ok());
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  EXPECT_FALSE(config.Validate(48).ok());
  config.static_secondary_cores = 8;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;

  config.blind.idle_deadband = -1;
  EXPECT_FALSE(config.Validate(48).ok());
  config.blind.idle_deadband = 2;

  config.cpu_mode = CpuIsolationMode::kCpuRateCap;
  config.cpu_rate_cap = 0;
  EXPECT_FALSE(config.Validate(48).ok());
  config.cpu_rate_cap = 1.5;
  EXPECT_FALSE(config.Validate(48).ok());
  config.cpu_rate_cap = 0.05;
  EXPECT_TRUE(config.Validate(48).ok());

  config.poll_interval = 0;
  EXPECT_FALSE(config.Validate(48).ok());
  config.poll_interval = FromMillis(1);
  EXPECT_TRUE(config.Validate(48).ok());
}

}  // namespace
}  // namespace perfiso
