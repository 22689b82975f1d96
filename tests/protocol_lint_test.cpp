// Tests for the protocol model linter (analysis/protocol_lint/).
//
// Two halves: every shipped protocol must pass the strict lint at small n
// (the correctness wall), and every deliberately broken fixture must fail
// with exactly the finding code its defect was built to trigger (the wall
// actually fires).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/protocol_lint/lint.hpp"
#include "analysis/protocol_lint/registry.hpp"
#include "protocols/history_tree.hpp"

namespace ssr::lint {
namespace {

lint_report lint_one(const std::string& name,
                     std::vector<std::uint32_t> sizes = {2, 3, 4}) {
  lint_options options;
  options.protocols = {name};
  options.n_values = std::move(sizes);
  return run_lint(options);
}

bool has_error_with(const lint_report& report, finding_code code) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&](const finding& f) {
                       return f.code == code && f.sev == severity::error;
                     });
}

TEST(ProtocolLintRegistry, ShipsTheNineVisibleProtocols) {
  const std::vector<std::string> visible =
      registry_names(/*include_hidden=*/false);
  const std::vector<std::string> expected = {
      "baseline",     "optimal",        "optimal-default",
      "sublinear-h0", "sublinear-h1",   "sublinear-h2",
      "loose",        "initialized-le", "initialized-ranking"};
  EXPECT_EQ(visible, expected);
}

TEST(ProtocolLintRegistry, HiddenFixturesAreListedOnlyOnRequest) {
  const std::vector<std::string> all = registry_names(/*include_hidden=*/true);
  const std::vector<std::string> visible =
      registry_names(/*include_hidden=*/false);
  EXPECT_GT(all.size(), visible.size());
  for (const std::string& name : all) {
    const protocol_entry* entry = find_protocol(name);
    ASSERT_NE(entry, nullptr) << name;
    const bool listed_visible =
        std::find(visible.begin(), visible.end(), name) != visible.end();
    EXPECT_EQ(entry->hidden, !listed_visible) << name;
  }
}

TEST(ProtocolLintRegistry, FindProtocolReturnsNullOnUnknown) {
  EXPECT_EQ(find_protocol("no-such-protocol"), nullptr);
  EXPECT_NE(find_protocol("baseline"), nullptr);
}

// The correctness wall: every registered protocol passes the strict lint at
// n in {2,3,4}.  This is the same gate CI runs via `protocol_lint --strict`.
TEST(ProtocolLintWall, EveryVisibleProtocolPassesStrict) {
  const lint_report report = run_lint(lint_options{});
  for (const finding& f : report.findings) {
    EXPECT_NE(f.sev, severity::error) << to_line(f);
    EXPECT_NE(f.sev, severity::warning) << to_line(f);
  }
  EXPECT_TRUE(report.passed(/*strict=*/true));
  EXPECT_EQ(report.protocols.size(), 9u);
}

TEST(ProtocolLintWall, DefaultRunExcludesTheBrokenFixtures) {
  const lint_report report = run_lint(lint_options{});
  for (const std::string& name : report.protocols) {
    EXPECT_EQ(name.rfind("broken-", 0), std::string::npos) << name;
  }
}

TEST(ProtocolLintWall, IncludeHiddenPullsInTheFixturesAndFails) {
  lint_options options;
  options.include_hidden = true;
  const lint_report report = run_lint(options);
  EXPECT_GT(report.protocols.size(), 9u);
  EXPECT_FALSE(report.passed(/*strict=*/false));
}

// Each fixture protocol was built around one defect; the lint must attribute
// it to the matching finding code (and fail the run).
struct fixture_case {
  const char* name;
  finding_code expected;
};

// gtest has no printer for fixture_case, so it lists each case with its raw
// bytes, and CMake's test discovery copies them into the ctest name. The
// first byte shown is the low byte of `name`'s address. A string literal's
// address moves whenever any other string in the test binary changes,
// including the source path every EXPECT bakes in, and that renamed the
// ctest cases. The names therefore live in one 256-byte-aligned block, at
// the offsets they were first registered with, which pins that byte.
struct alignas(256) fixture_name_block {
  char lead[0x3A];
  char closure[15];
  char silence[15];
  char rank[12];
  char rank_range[18];
  char change_flag[19];
  char batch[13];
  char hot_class[17];
  char regressing_rank[23];
  char time_budget[19];
};

constexpr fixture_name_block fixture_names{{},
                                           "broken-closure",
                                           "broken-silence",
                                           "broken-rank",
                                           "broken-rank-range",
                                           "broken-change-flag",
                                           "broken-batch",
                                           "broken-hot-class",
                                           "broken-regressing-rank",
                                           "broken-time-budget"};

class ProtocolLintFixture : public ::testing::TestWithParam<fixture_case> {};

TEST_P(ProtocolLintFixture, FailsWithItsDefectCode) {
  const fixture_case& c = GetParam();
  const lint_report report = lint_one(c.name);
  EXPECT_FALSE(report.passed(/*strict=*/false)) << c.name;
  EXPECT_TRUE(has_error_with(report, c.expected))
      << c.name << " should trip " << code_id(c.expected) << ' '
      << to_string(c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllFixtures, ProtocolLintFixture,
    ::testing::Values(
        fixture_case{fixture_names.closure, finding_code::closure_escape},
        fixture_case{fixture_names.silence,
                     finding_code::non_silent_terminal},
        fixture_case{fixture_names.rank,
                     finding_code::ranking_not_permutation},
        fixture_case{fixture_names.rank_range,
                     finding_code::rank_out_of_range},
        fixture_case{fixture_names.change_flag,
                     finding_code::change_flag_mismatch},
        fixture_case{fixture_names.batch,
                     finding_code::batch_partition_violation},
        fixture_case{fixture_names.hot_class,
                     finding_code::exhaustive_silence},
        fixture_case{fixture_names.regressing_rank,
                     finding_code::exhaustive_stabilization},
        fixture_case{fixture_names.time_budget,
                     finding_code::expected_time_budget}),
    [](const ::testing::TestParamInfo<fixture_case>& param) {
      std::string name = param.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The incorrect-terminal fixture also proves L009: a duplicated-rank
// terminal configuration is by definition not a correct ranking.
TEST(ProtocolLintFixtures, DuplicateRankAlsoBreaksSelfStabilization) {
  const lint_report report = lint_one("broken-rank");
  EXPECT_TRUE(has_error_with(report, finding_code::not_self_stabilizing));
}

TEST(ProtocolLint, UnknownProtocolThrowsWithSuggestion) {
  try {
    lint_one("basline");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("basline"), std::string::npos);
    EXPECT_NE(what.find("did you mean 'baseline'"), std::string::npos);
  }
}

TEST(ProtocolLintFinding, CodeNamesRoundTrip) {
  for (std::size_t i = 0; i < finding_code_count; ++i) {
    const auto code = static_cast<finding_code>(i);
    EXPECT_EQ(parse_finding_code(to_string(code)), code);
    const std::string id{code_id(code)};
    ASSERT_EQ(id.size(), 4u);
    EXPECT_EQ(id[0], 'L');
  }
  EXPECT_THROW(parse_finding_code("no-such-code"), std::invalid_argument);
}

TEST(ProtocolLintFinding, LineFormatIsStable) {
  finding f;
  f.code = finding_code::closure_escape;
  f.sev = severity::error;
  f.protocol = "baseline";
  f.n = 3;
  f.message = "boom";
  EXPECT_EQ(to_line(f), "error[L001 closure-escape] baseline n=3: boom");
}

// The spurious-terminal-class fixture is a note-only defect: it must fail
// nothing, but the model pass has to surface the isolated class.
TEST(ProtocolLintFixtures, IsolatedClassSurfacesAsANote) {
  const lint_report report = lint_one("broken-isolated-class", {2});
  EXPECT_TRUE(report.passed(/*strict=*/true));
  EXPECT_TRUE(std::any_of(
      report.findings.begin(), report.findings.end(), [](const finding& f) {
        return f.code == finding_code::spurious_terminal_class &&
               f.sev == severity::note;
      }));
}

TEST(ProtocolLintReport, JsonSummaryMatchesCounts) {
  const lint_report report = lint_one("broken-closure", {2});
  const obs::json_value doc = to_json(report, /*strict=*/true);
  const std::string text = doc.dump(2);
  EXPECT_NE(text.find("\"schema\": \"ssr.lint\""), std::string::npos);
  EXPECT_NE(text.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"tool\""), std::string::npos);
  EXPECT_NE(text.find("protocol_lint"), std::string::npos);
  EXPECT_NE(text.find("closure-escape"), std::string::npos);
  EXPECT_NE(text.find("\"passed\""), std::string::npos);
  EXPECT_GT(report.errors, 0u);
  EXPECT_EQ(report.violations(/*strict=*/false), report.errors);
  EXPECT_EQ(report.violations(/*strict=*/true),
            report.errors + report.warnings);
}

TEST(ProtocolLintReport, RenderedReportCarriesTheVerdict) {
  const lint_report good = lint_one("baseline", {2, 3});
  EXPECT_NE(render_report(good, true).find("PASS"), std::string::npos);
  const lint_report bad = lint_one("broken-silence", {2});
  const std::string rendered = render_report(bad, true);
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
  EXPECT_NE(rendered.find("L008"), std::string::npos);
}

// Notes (the dead-state audit) never gate, even under --strict.
TEST(ProtocolLintReport, NotesAreNeverViolations) {
  const lint_report report = lint_one("loose");
  EXPECT_GT(report.notes, 0u);  // leaf states only deserialization reaches
  EXPECT_TRUE(report.passed(/*strict=*/true));
}

// The sublinear entries read each history-tree timer as the tree computes
// it from its clock: an adopted edge above T_H is flagged at once, and an
// edge adopted at T_H + 2 is flagged at T_H + 1 after one aging and clean
// after a second.
TEST(ProtocolLintSublinear, TreeTimerAboveTHIsFlaggedThroughTheClock) {
  const sublinear_time_ssr p(8, 1);
  const std::uint32_t t_h = p.params().t_h;
  rng_t rng(3);
  std::vector<sublinear_time_ssr::agent_state> config =
      p.initial_configuration(rng);
  sublinear_time_ssr::agent_state& s = config[0];
  const auto adopt_edge = [&](std::uint32_t timer) {
    tree_node root{s.name, {}};
    tree_edge& edge = root.edges.emplace_back();
    edge.sync = 1;
    edge.timer = timer;
    edge.child.name = config[1].name;
    s.tree = history_tree::adopt(root);
  };
  const std::string over = "timer " + std::to_string(t_h + 1) + " exceeds";

  adopt_edge(t_h + 1);
  std::optional<std::string> violation = sublinear_state_violation(p, s);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find(over), std::string::npos) << *violation;

  adopt_edge(t_h + 2);
  s.tree.age_edges(/*prune_retention=*/-1);
  violation = sublinear_state_violation(p, s);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find(over), std::string::npos) << *violation;
  s.tree.age_edges(/*prune_retention=*/-1);
  EXPECT_EQ(sublinear_state_violation(p, s), std::nullopt);
}

}  // namespace
}  // namespace ssr::lint
