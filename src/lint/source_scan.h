// The one lexical scanner behind the C++ source linters (keddah-detlint,
// keddah-archlint). It decides how C++ source is tokenised for linting;
// each linter then applies only its own rules to the result.
//
// A scan blanks comments and literal contents to spaces so rule regexes
// never match inside them, keeping every newline and every byte offset, so
// an offset into `clean` maps to the same line as in the original text.
// The literal policy is fixed: string and raw-string literals keep their
// quote characters and lose everything between them (`"ab" + x` scans as
// `"  " + x`, so a rule can still see a literal), raw-string `R` prefixes,
// delimiters and parentheses are blanked, and char literals are blanked
// whole. A `'` right after an identifier character is a digit separator
// (`1'000`) or literal suffix position, not a char literal.
//
// Comments are not discarded: each is kept with the line it starts on, so
// a linter reads its own markers (`detlint:allow(...)`, `keddah:hot`, ...)
// from real comments only — a marker spelled inside a string literal is
// not a comment and is never harvested.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace keddah::lint {

/// An in-memory source file. `path` names diagnostics and, through its
/// stem, pairs a header with its implementation (foo.h with foo.cpp).
struct SourceFile {
  std::string path;
  std::string text;
};

/// One comment: the 1-based line its opening `//` or `/*` sits on, and the
/// text between its delimiters (a block comment's text keeps its newlines).
struct Comment {
  std::size_t line = 0;
  std::string text;
};

/// A source file after the lexical pass (see the file comment).
struct ScannedSource {
  std::string path;
  std::string stem;   ///< basename without extension, for header/impl pairing
  std::string clean;  ///< same length and newline offsets as the input text
  std::vector<std::size_t> line_starts;    ///< offset of each line's first byte
  std::set<std::size_t> comment_only_lines;  ///< lines holding a comment and no code
  std::vector<Comment> comments;           ///< in source order
};

/// Scans one file. Total over arbitrary bytes: malformed input (an
/// unterminated comment or literal, a stray `R"`) never throws; an open
/// comment or literal simply runs to the end of the file.
ScannedSource scan_source(const SourceFile& file);

/// Loads files and directories (directories recurse into *.h, *.hpp, *.cc,
/// *.cpp). The result is sorted by path and de-duplicated, so the same file
/// reached twice is scanned once and output never depends on directory
/// iteration order. A missing or unreadable path throws std::runtime_error
/// ("cannot read <path>").
std::vector<SourceFile> load_sources(const std::vector<std::string>& paths);

/// Basename without extension ("src/net/network.cpp" -> "network").
std::string path_stem(const std::string& path);

/// 1-based line of a byte offset into the scanned text.
std::size_t line_of(const ScannedSource& src, std::size_t offset);

/// Offset just past the `>` matching the `<` at `open`, or npos.
std::size_t match_angle(const std::string& s, std::size_t open);

/// First offset at or after `i` that is not whitespace (or s.size()).
std::size_t skip_space(const std::string& s, std::size_t i);

}  // namespace keddah::lint
