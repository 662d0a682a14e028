#include <gtest/gtest.h>

#include "analysis/json_report.h"
#include "rulelang/parser.h"

namespace starburst {
namespace {

/// Minimal structural JSON validation: balanced braces/brackets outside of
/// string literals, properly terminated strings.
bool IsStructurallyValidJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        if (depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

class JsonReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"t", "s"}) {
      ASSERT_TRUE(schema_
                      .AddTable(name, {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kInt}})
                      .ok());
    }
  }

  Analyzer Create(const std::string& rules_src) {
    auto script = Parser::ParseScript(rules_src);
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    auto analyzer =
        Analyzer::Create(&schema_, std::move(script.value().rules));
    EXPECT_TRUE(analyzer.ok()) << analyzer.status().ToString();
    return std::move(analyzer).value();
  }

  Schema schema_;
};

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST_F(JsonReportTest, TerminationJson) {
  Analyzer a = Create(
      "create rule loop on t when inserted then insert into t values (1, 2);");
  std::string json =
      TerminationReportToJson(a.AnalyzeTermination(), a.catalog());
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"guaranteed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"rules\":[\"loop\"]"), std::string::npos);
  EXPECT_NE(json.find("\"discharged\":false"), std::string::npos);

  a.CertifyQuiescent("loop");
  std::string json2 =
      TerminationReportToJson(a.AnalyzeTermination(), a.catalog());
  EXPECT_NE(json2.find("\"guaranteed\":true"), std::string::npos);
  EXPECT_NE(json2.find("\"certified\":[\"loop\"]"), std::string::npos);
}

TEST_F(JsonReportTest, ConfluenceJsonCarriesViolations) {
  Analyzer a = Create(
      "create rule w1 on t when inserted then update s set a = 1; "
      "create rule w2 on t when inserted then update s set a = 2;");
  std::string json =
      ConfluenceReportToJson(a.AnalyzeConfluence(4), a.catalog());
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"confluent\":false"), std::string::npos);
  EXPECT_NE(json.find("\"witnesses\":[\"w1\",\"w2\"]"), std::string::npos);
  EXPECT_NE(json.find("\"condition\":5"), std::string::npos);
}

TEST_F(JsonReportTest, ObservableJson) {
  Analyzer a = Create(
      "create rule s1 on t when inserted then select a from t; "
      "create rule s2 on t when inserted then select b from t;");
  std::string json = ObservableReportToJson(
      a.AnalyzeObservableDeterminism(4), a.catalog());
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"deterministic\":false"), std::string::npos);
  EXPECT_NE(json.find("\"observable_rules\":[\"s1\",\"s2\"]"),
            std::string::npos);
  EXPECT_NE(json.find("[\"s1\",\"s2\"]"), std::string::npos);
}

TEST_F(JsonReportTest, FullReportJsonHasAllSections) {
  Analyzer a = Create(
      "create rule w1 on t when inserted then update s set a = 1; "
      "create rule w2 on t when inserted then update s set a = 2;");
  std::string json = FullReportToJson(a.AnalyzeAll(4), a.catalog());
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  for (const char* key : {"\"termination\"", "\"confluence\"",
                          "\"observable\"", "\"suggestions\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"kind\":\"certify_commute\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"add_priority\""), std::string::npos);
}

TEST_F(JsonReportTest, CleanRuleSetJson) {
  Analyzer a = Create(
      "create rule w1 on t when inserted then update s set a = 1;");
  std::string json = FullReportToJson(a.AnalyzeAll(), a.catalog());
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"confluent\":true"), std::string::npos);
  EXPECT_NE(json.find("\"suggestions\":[]"), std::string::npos);
}

TEST_F(JsonReportTest, ExplorationStatsJson) {
  ExplorationStats stats;
  stats.states_interned = 42;
  stats.dedup_hits = 7;
  stats.peak_stack_depth = 9;
  stats.canonicalization_bytes = 1234;
  stats.helper_threads = 3;
  stats.wall_seconds = 0.5;
  std::string json = ExplorationStatsToJson(stats);
  EXPECT_TRUE(IsStructurallyValidJson(json));
  EXPECT_NE(json.find("\"states_interned\":42"), std::string::npos);
  EXPECT_NE(json.find("\"dedup_hits\":7"), std::string::npos);
  EXPECT_NE(json.find("\"peak_stack_depth\":9"), std::string::npos);
  EXPECT_NE(json.find("\"canonicalization_bytes\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"helper_threads\":3"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\":0.5"), std::string::npos);
}

TEST_F(JsonReportTest, RuleNamesAreEscaped) {
  // Rule names cannot contain quotes lexically, but the escaper must be
  // wired in regardless; verify via the escape function directly plus a
  // name that is JSON-benign.
  Analyzer a = Create(
      "create rule plain_name on t when inserted then delete from t;");
  std::string json =
      TerminationReportToJson(a.AnalyzeTermination(), a.catalog());
  EXPECT_TRUE(IsStructurallyValidJson(json));
}

}  // namespace
}  // namespace starburst
