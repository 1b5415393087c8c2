/// Config-file parser coverage: the INI/TOML-subset syntax, typed
/// section reads, and the loud failure modes (syntax errors with
/// file:line context, unknown keys, bad values).

#include "harness/config.hpp"

#include <gtest/gtest.h>

namespace powertcp::harness {
namespace {

TEST(ConfigFile, ParsesSectionsKeysAndComments) {
  const auto cfg = ConfigFile::parse(R"(
# full-line comment
; also a comment
[experiment]
kind = fat_tree            # inline comment
schemes = powertcp, hpcc
title = "a # quoted hash"

[cc.powertcp]
gamma = 0.9
)",
                                     "test.toml");
  ASSERT_EQ(cfg.sections().size(), 2u);
  const auto* exp = cfg.find("experiment");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->find("kind")->value, "fat_tree");
  EXPECT_EQ(exp->find("schemes")->value, "powertcp, hpcc");
  EXPECT_EQ(exp->find("title")->value, "a # quoted hash");
  EXPECT_EQ(cfg.find("cc.powertcp")->find("gamma")->value, "0.9");
  EXPECT_EQ(cfg.find("nope"), nullptr);
  EXPECT_EQ(cfg.with_prefix("cc.").size(), 1u);
}

TEST(ConfigFile, SplitsPlainAndBracketedLists) {
  EXPECT_EQ(split_config_list("a, b ,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_config_list("[0.2, 0.6]"),
            (std::vector<std::string>{"0.2", "0.6"}));
  EXPECT_EQ(split_config_list("\"x\", y"),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(split_config_list("").empty());
}

TEST(ConfigFile, SyntaxErrorsCarryFileAndLine) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      ConfigFile::parse(text, "bad.toml");
      FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("bad.toml"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("[experiment\nkind = x\n", "']'");
  expect_error("kind = x\n", "outside any [section]");
  expect_error("[a]\nx 1\n", "key = value");
  expect_error("[a]\n[a]\n", "duplicate section");
  expect_error("[a]\nx = 1\nx = 2\n", "duplicate key");
  expect_error("[a]\nx = \"unterminated\n", "unterminated");
  expect_error("[a b]\n", "bad section name");
}

TEST(SectionView, TypedGettersAndFallbacks) {
  const auto cfg = ConfigFile::parse(R"(
[s]
num = 2.5
int = 42
flag = on
text = hello
list = 1, 2, 3
)");
  SectionView v(cfg, cfg.find("s"));
  EXPECT_DOUBLE_EQ(v.get_double("num", 0), 2.5);
  EXPECT_EQ(v.get_int("int", 0), 42);
  EXPECT_TRUE(v.get_bool("flag", false));
  EXPECT_EQ(v.get_string("text", ""), "hello");
  EXPECT_EQ(v.get_double_list("list"), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(v.get_string("absent", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(v.get_double("absent2", 7.5), 7.5);
  EXPECT_NO_THROW(v.finish());
}

TEST(SectionView, BadValuesAndUnknownKeysThrow) {
  const auto cfg = ConfigFile::parse(R"(
[s]
num = not-a-number
typo_key = 1
not_a_number = nan
infinite = inf
negative_infinite = -inf
overflows = 1e400
list_with_nan = 1, nan
list_with_inf = 2, inf
list_overflows = 1e400, 3
)",
                                     "bad.toml");
  SectionView v(cfg, cfg.find("s"));
  EXPECT_THROW(v.get_double("num", 0), ConfigError);
  EXPECT_THROW(v.get_int("num", 0), ConfigError);
  EXPECT_THROW(v.get_bool("num", false), ConfigError);
  // strtod accepts these spellings; a config number must be finite.
  for (const char* key :
       {"not_a_number", "infinite", "negative_infinite", "overflows"}) {
    try {
      v.get_double(key, 0);
      ADD_FAILURE() << key << " should be rejected";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("is not a valid number"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("bad.toml:"), std::string::npos)
          << e.what();
    }
  }
  for (const char* key : {"list_with_nan", "list_with_inf", "list_overflows"}) {
    EXPECT_THROW(v.get_double_list(key), ConfigError) << key;
  }
  // `typo_key` was never consumed by a getter.
  try {
    SectionView w(cfg, cfg.find("s"));
    w.get_string("num", "");
    w.finish();
    FAIL() << "expected unknown-key ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("typo_key"), std::string::npos);
  }
}

TEST(SectionView, AbsentSectionYieldsFallbacks) {
  const auto cfg = ConfigFile::parse("[present]\nx = 1\n");
  SectionView v(cfg, cfg.find("absent"));
  EXPECT_FALSE(v.has("x"));
  EXPECT_EQ(v.get_int("x", 9), 9);
  EXPECT_NO_THROW(v.finish());
}

TEST(ConfigFile, ParseFileReportsMissingFile) {
  EXPECT_THROW(ConfigFile::parse_file("/nonexistent/path.toml"),
               ConfigError);
}

}  // namespace
}  // namespace powertcp::harness
