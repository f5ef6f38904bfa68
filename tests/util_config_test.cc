#include "src/util/config.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace perfiso {
namespace {

TEST(ConfigTest, ParsesKeysCommentsAndBlanks) {
  auto result = ConfigMap::Parse(
      "# PerfIso cluster config\n"
      "cpu.buffer_cores = 8\n"
      "\n"
      "io.hdfs_limit_mbps = 60.5\n"
      "kill_switch = false\n"
      "name = IndexServe-Row1\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ConfigMap& config = *result;
  EXPECT_EQ(*config.GetInt("cpu.buffer_cores", 0), 8);
  EXPECT_DOUBLE_EQ(*config.GetDouble("io.hdfs_limit_mbps", 0), 60.5);
  EXPECT_FALSE(*config.GetBool("kill_switch", true));
  EXPECT_EQ(*config.GetString("name", ""), "IndexServe-Row1");
}

TEST(ConfigTest, MissingKeysReturnDefaults) {
  auto config = ConfigMap::Parse("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(*config->GetInt("absent", 42), 42);
  EXPECT_EQ(*config->GetInt32("absent", 7), 7);
  EXPECT_TRUE(*config->GetBool("absent", true));
}

TEST(ConfigTest, MalformedLineReportsLineNumber) {
  auto result = ConfigMap::Parse("a = 1\nbroken line\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, MalformedIntIsError) {
  auto config = ConfigMap::Parse("x = notanumber\n");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(config->GetInt("x", 0).ok());
  EXPECT_FALSE(config->GetInt32("x", 0).ok());
}

TEST(ConfigTest, Int32RejectsValuesOutsideIntInsteadOfWrapping) {
  ConfigMap config;
  config.SetInt("max", INT32_MAX);
  config.SetInt("min", INT32_MIN);
  config.SetInt("wraps_to_8", 4294967304LL);  // 2^32 + 8
  config.SetInt("below", static_cast<int64_t>(INT32_MIN) - 1);
  EXPECT_EQ(*config.GetInt32("max", 0), INT32_MAX);
  EXPECT_EQ(*config.GetInt32("min", 0), INT32_MIN);
  const auto wrapped = config.GetInt32("wraps_to_8", 0);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrapped.status().message().find("wraps_to_8"), std::string::npos);
  EXPECT_FALSE(config.GetInt32("below", 0).ok());
  // The 64-bit getter still reads the full value.
  EXPECT_EQ(*config.GetInt("wraps_to_8", 0), 4294967304LL);
}

TEST(ConfigTest, MalformedBoolIsError) {
  auto config = ConfigMap::Parse("x = yes\n");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(config->GetBool("x", false).ok());
}

TEST(ConfigTest, SerializeRoundTrip) {
  ConfigMap config;
  config.SetInt("cpu.buffer_cores", 8);
  config.SetBool("kill_switch", true);
  config.SetDouble("rate", 0.25);
  config.SetString("mode", "blind");
  auto reparsed = ConfigMap::Parse(config.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->entries(), config.entries());
}

TEST(ConfigTest, DoubleRoundTripIsBitExact) {
  // SetDouble writes the shortest text that parses back to the identical
  // double — a serialized scenario must describe the same experiment, not a
  // 6-significant-digit neighbor.
  ConfigMap config;
  for (double value : {2000.125, 0.123456789012345, 1.0 / 3.0, 5e8, 160e6}) {
    config.SetDouble("v", value);
    auto reparsed = ConfigMap::Parse(config.Serialize());
    ASSERT_TRUE(reparsed.ok());
    auto back = reparsed->GetDouble("v", 0);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, value);
  }
  // Friendly values still serialize compactly.
  config.SetDouble("v", 0.25);
  EXPECT_EQ(config.entries().at("v"), "0.25");
}

TEST(ConfigTest, EqualsSignInValueKept) {
  auto config = ConfigMap::Parse("expr = a=b\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(*config->GetString("expr", ""), "a=b");
}

}  // namespace
}  // namespace perfiso
