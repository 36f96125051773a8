// Tests for the shared C++ source scanner (lint/source_scan.h) that both
// keddah-detlint and keddah-archlint match against: the literal and comment
// edge cases each linter depends on, and an invariant that must hold for
// every file under src/ and for seeded mutations of them (the scan is total
// over arbitrary bytes and only ever blanks bytes to spaces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/archlint.h"
#include "lint/detlint.h"
#include "lint/source_scan.h"
#include "util/rng.h"

namespace kl = keddah::lint;
namespace ku = keddah::util;

namespace {

kl::ScannedSource scan(const std::string& text) { return kl::scan_source({"demo.cpp", text}); }

/// The scanned text of one 1-based line.
std::string clean_line(const kl::ScannedSource& src, std::size_t line) {
  const std::size_t begin = src.line_starts.at(line - 1);
  const std::size_t end = line < src.line_starts.size() ? src.line_starts[line] - 1
                                                        : src.clean.size();
  return src.clean.substr(begin, end - begin);
}

std::string blank(std::size_t n) { return std::string(n, ' '); }

/// What must hold for any input: same length, newlines exactly where the
/// input has them (and a line map that agrees), only blanking to spaces,
/// every comment filed under the line it starts on, and every comment-only
/// line inside the file.
void expect_invariants(const std::string& text, const std::string& label) {
  kl::ScannedSource src;
  ASSERT_NO_THROW(src = kl::scan_source({label, text})) << label;
  ASSERT_EQ(src.clean.size(), text.size()) << label;
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    ASSERT_EQ(src.clean[i] == '\n', text[i] == '\n') << label << " at offset " << i;
    ASSERT_TRUE(src.clean[i] == text[i] || src.clean[i] == ' ') << label << " at offset " << i;
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  ASSERT_EQ(src.line_starts, starts) << label;
  for (const auto& c : src.comments) {
    ASSERT_GE(c.line, 1u) << label;
    ASSERT_LE(c.line, starts.size()) << label;
    // The comment's first line of text sits on the line it is filed under.
    const std::size_t begin = starts[c.line - 1];
    const std::size_t end = c.line < starts.size() ? starts[c.line] : text.size();
    const std::string first = c.text.substr(0, c.text.find('\n'));
    ASSERT_NE(text.substr(begin, end - begin).find(first), std::string::npos)
        << label << ": comment filed under line " << c.line;
  }
  if (!src.comment_only_lines.empty()) {
    ASSERT_GE(*src.comment_only_lines.begin(), 1u) << label;
    ASSERT_LE(*src.comment_only_lines.rbegin(), starts.size()) << label;
  }
}

}  // namespace

TEST(SourceScan, CommentMarkersInsideStringsAreNotComments) {
  const auto src = scan(
      "const char* a = \"http://x /* y */\"; int b;\n"
      "const char* c = R\"(// not /* a */ comment)\"; int d;\n");
  EXPECT_TRUE(src.comments.empty());
  EXPECT_TRUE(src.comment_only_lines.empty());
  // Quotes stay, contents go, the code after each literal survives.
  EXPECT_EQ(clean_line(src, 1), "const char* a = \"" + blank(16) + "\"; int b;");
  EXPECT_EQ(clean_line(src, 2), "const char* c =  \"" + blank(24) + "\"; int d;");
}

TEST(SourceScan, RawStringEndsOnlyAtItsOwnDelimiter) {
  // `)"` inside the body does not close R"re(...)re"; only `)re"` does.
  const auto src = scan("auto s = R\"re(a)\"b // c)re\" + x; // real\n");
  ASSERT_EQ(src.comments.size(), 1u);
  EXPECT_EQ(src.comments[0].text, " real");
  EXPECT_EQ(clean_line(src, 1), "auto s =  \"" + blank(15) + "\" + x;" + blank(8));
}

TEST(SourceScan, MultiLineRawStringKeepsLinesAndBlanksBody) {
  const auto src = scan("auto s = R\"x(\n// inside\n)x\";\nint y; // after\n");
  ASSERT_EQ(src.comments.size(), 1u);
  EXPECT_EQ(src.comments[0].line, 4u);
  EXPECT_EQ(clean_line(src, 2), blank(9));
  EXPECT_EQ(clean_line(src, 3), blank(2) + "\";");
}

TEST(SourceScan, EscapedQuotesDoNotCloseLiterals) {
  const auto src = scan(
      "s = \"a\\\"b // no\" + c; // yes\n"
      "q = '\\''; // also\n");
  ASSERT_EQ(src.comments.size(), 2u);
  EXPECT_EQ(src.comments[0].text, " yes");
  EXPECT_EQ(src.comments[1].text, " also");
  EXPECT_EQ(clean_line(src, 1), "s = \"" + blank(10) + "\" + c;" + blank(7));
  EXPECT_EQ(clean_line(src, 2), "q = " + blank(4) + ";" + blank(8));
}

TEST(SourceScan, DigitSeparatorsAreNotCharLiterals) {
  // Read as char literals, the quotes would swallow the comment.
  const auto src = scan("int n = 1'000'000; // tail\nint m = 0x1'F;\n");
  ASSERT_EQ(src.comments.size(), 1u);
  EXPECT_EQ(src.comments[0].line, 1u);
  EXPECT_EQ(clean_line(src, 1), "int n = 1'000'000;" + blank(8));
  EXPECT_EQ(clean_line(src, 2), "int m = 0x1'F;");
}

TEST(SourceScan, MultiLineBlockCommentIsOneCommentAtItsFirstLine) {
  const auto src = scan("int a;\n/* first\n   second */ int b;\n/*\n*/\n");
  ASSERT_EQ(src.comments.size(), 2u);
  EXPECT_EQ(src.comments[0].line, 2u);
  EXPECT_EQ(src.comments[0].text, " first\n   second ");
  EXPECT_EQ(src.comments[1].line, 4u);
  EXPECT_EQ(clean_line(src, 3), blank(12) + " int b;");
  // Line 3 closes the comment but also holds code.
  EXPECT_EQ(src.comment_only_lines, (std::set<std::size_t>{2, 4, 5}));
}

TEST(SourceScan, CommentOnlyLinesExcludeLinesWithCode) {
  const auto src = scan("// a\nint x; // b\n\n   /* c */  \nint y;\n");
  EXPECT_EQ(src.comment_only_lines, (std::set<std::size_t>{1, 4}));
  ASSERT_EQ(src.comments.size(), 3u);
  EXPECT_EQ(src.comments[1].line, 2u);
  EXPECT_EQ(src.comments[2].line, 4u);
}

TEST(SourceScan, UnterminatedCommentsAndLiteralsRunToEndOfFile) {
  EXPECT_EQ(scan("x; /* open").comments.size(), 1u);
  EXPECT_EQ(scan("x; // open").comments.at(0).text, " open");
  EXPECT_TRUE(scan("s = \"open // not a comment").comments.empty());
  EXPECT_TRUE(scan("s = R\"d(open // not a comment").comments.empty());
  // Not a raw-string opener (a delimiter has no spaces): an ordinary string.
  const auto stray = scan("s = R\"a b(\"; // c\n");
  ASSERT_EQ(stray.comments.size(), 1u);
  EXPECT_EQ(stray.comments[0].text, " c");
}

// Allow markers spelled inside literals are data, not comments: neither
// linter may harvest them, so the findings they name stay reported.
TEST(SourceScan, AllowMarkerInsideStringIsNotHarvested) {
  const std::string text =
      "auto t = std::chrono::system_clock::now(); "
      "const char* s = \"// detlint:allow(wall-clock)\";\n";
  EXPECT_TRUE(scan(text).comments.empty());
  const kl::DetlintReport wall = kl::detlint_sources({{"demo.cpp", text}});
  ASSERT_EQ(wall.diagnostics.size(), 1u);
  EXPECT_EQ(wall.diagnostics[0].rule, "wall-clock");
  EXPECT_EQ(wall.suppressions_used, 0u);

  const kl::ArchlintReport hot = kl::archlint_sources(
      {{"mod/demo.cpp",
        "// keddah:hot\n"
        "void f() {\n"
        "  const char* s = \"// archlint:allow(hot-std-function): no\"; std::function<void()> g;\n"
        "}\n"}},
      kl::LayerSpec{});
  ASSERT_EQ(hot.hot_regions.size(), 1u);
  ASSERT_EQ(hot.diagnostics.size(), 1u);
  EXPECT_EQ(hot.diagnostics[0].rule, "hot-std-function");
  EXPECT_EQ(hot.suppressions_used, 0u);
}

TEST(SourceScan, LoadSourcesSortsAndDeduplicates) {
  const std::string dir = KEDDAH_SRC_DIR "/lint";
  const auto once = kl::load_sources({dir});
  const auto twice = kl::load_sources({dir + "/source_scan.h", dir, dir});
  ASSERT_EQ(twice.size(), once.size());
  for (std::size_t i = 0; i < once.size(); ++i) EXPECT_EQ(twice[i].path, once[i].path);
  EXPECT_TRUE(std::is_sorted(once.begin(), once.end(),
                             [](const auto& a, const auto& b) { return a.path < b.path; }));
  EXPECT_THROW(kl::load_sources({dir + "/no_such_file.cpp"}), std::runtime_error);
}

// The scan is total: every real source and thousands of seeded byte-level
// corruptions of them keep the invariants, and none throws.
TEST(SourceScan, InvariantsHoldOnRepoSourcesAndMutations) {
  const auto sources = kl::load_sources({KEDDAH_SRC_DIR});
  ASSERT_GT(sources.size(), 50u);
  ku::Rng rng(0x5ca11ed);
  constexpr int kMutationsPerFile = 12;
  for (const auto& file : sources) {
    expect_invariants(file.text, file.path);
    if (file.text.empty()) continue;
    for (int m = 0; m < kMutationsPerFile; ++m) {
      std::string text = file.text;
      const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      };
      switch (m % 3) {
        case 0: {  // flip random bytes and drop in the lexer's own tokens
          static const std::vector<std::string> kTokens = {
              "\"", "'", "//", "/*", "*/", "R\"", "R\"x(", ")x\"", "\\", "\n"};
          for (int k = 0; k < 4; ++k) {
            if (rng.chance(0.5)) {
              text[pick(text.size())] = static_cast<char>(rng.uniform_int(0, 255));
            } else {
              text.insert(pick(text.size() + 1), kTokens[pick(kTokens.size())]);
            }
          }
          break;
        }
        case 1: {  // splice in a slice of another file
          const auto& other = sources[pick(sources.size())].text;
          if (other.empty()) break;
          const std::size_t from = pick(other.size());
          const std::size_t len = std::min<std::size_t>(other.size() - from, 1 + pick(256));
          text.insert(pick(text.size() + 1), other, from, len);
          break;
        }
        case 2:  // truncate mid-file
          text.resize(pick(text.size()));
          break;
      }
      expect_invariants(text, file.path + " mutation " + std::to_string(m));
      if (HasFatalFailure()) return;
    }
  }
}
