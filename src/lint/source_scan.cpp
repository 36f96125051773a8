#include "lint/source_scan.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace keddah::lint {

namespace {

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Length of the raw-string delimiter that starts at `from` and runs up to
/// its '(', or npos when the bytes there cannot open a raw string literal
/// (a delimiter is at most 16 chars with no space, parenthesis or
/// backslash). Rejecting those keeps a stray `R"` from swallowing newlines.
std::size_t raw_delimiter_length(const std::string& s, std::size_t from) {
  constexpr std::size_t kMaxDelimiter = 16;
  for (std::size_t j = from; j < s.size() && j - from <= kMaxDelimiter; ++j) {
    const char c = s[j];
    if (c == '(') return j - from;
    if (c == ')' || c == '\\' || std::isspace(static_cast<unsigned char>(c))) break;
  }
  return std::string::npos;
}

}  // namespace

ScannedSource scan_source(const SourceFile& file) {
  ScannedSource out;
  out.path = file.path;
  out.stem = path_stem(file.path);
  out.clean = file.text;
  std::string& s = out.clean;
  out.line_starts.push_back(0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') out.line_starts.push_back(i + 1);
  }
  // Indexed by 1-based line; feeds comment_only_lines.
  std::vector<char> has_comment(out.line_starts.size() + 1, 0);
  std::vector<char> has_code(out.line_starts.size() + 1, 0);

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  Comment comment;        // the comment currently being read
  std::size_t line = 1;

  const auto open_comment = [&](State kind, std::size_t& i) {
    state = kind;
    comment.line = line;
    has_comment[line] = 1;
    s[i] = s[i + 1] = ' ';
    ++i;
  };
  const auto close_comment = [&] {
    out.comments.push_back(std::move(comment));
    comment = Comment{};
    state = State::kCode;
  };

  // No step below moves `i` across a newline, so `line` stays exact.
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) close_comment();
      if (state == State::kBlockComment) comment.text += '\n';
      ++line;
      continue;
    }
    switch (state) {
      case State::kCode: {
        const bool after_ident = i > 0 && ident_char(s[i - 1]);
        const std::size_t delim_len =
            c == 'R' && next == '"' && !after_ident ? raw_delimiter_length(s, i + 2)
                                                    : std::string::npos;
        if (c == '/' && next == '/') {
          open_comment(State::kLineComment, i);
        } else if (c == '/' && next == '*') {
          open_comment(State::kBlockComment, i);
        } else if (delim_len != std::string::npos) {
          // R"delim( -> blank the R, keep the quote, blank delim and '('.
          raw_delim = s.substr(i + 2, delim_len);
          state = State::kRawString;
          has_code[line] = 1;
          s[i] = ' ';
          const std::size_t paren = i + 2 + delim_len;
          for (std::size_t k = i + 2; k <= paren; ++k) s[k] = ' ';
          i = paren;
        } else if (c == '"') {
          state = State::kString;  // the quote itself stays visible
          has_code[line] = 1;
        } else if (c == '\'' && !after_ident) {
          state = State::kChar;
          has_code[line] = 1;
          s[i] = ' ';
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          has_code[line] = 1;
        }
        break;
      }
      case State::kLineComment:
        comment.text += c;
        s[i] = ' ';
        break;
      case State::kBlockComment:
        has_comment[line] = 1;
        if (c == '*' && next == '/') {
          close_comment();
          s[i] = s[i + 1] = ' ';
          ++i;
        } else {
          comment.text += c;
          s[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char close = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          s[i] = ' ';
          if (next != '\n' && i + 1 < s.size()) s[++i] = ' ';
        } else if (c == close) {
          state = State::kCode;
          if (close == '\'') s[i] = ' ';  // char literals blank whole
        } else {
          s[i] = ' ';
        }
        break;
      }
      case State::kRawString: {
        const std::size_t quote = i + 1 + raw_delim.size();
        if (c == ')' && quote < s.size() && s[quote] == '"' &&
            s.compare(i + 1, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = i; k < quote; ++k) s[k] = ' ';
          i = quote;  // the closing quote stays visible
          state = State::kCode;
        } else {
          s[i] = ' ';
        }
        break;
      }
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) close_comment();

  for (std::size_t ln = 1; ln < has_comment.size(); ++ln) {
    if (has_comment[ln] && !has_code[ln]) out.comment_only_lines.insert(ln);
  }
  return out;
}

std::vector<SourceFile> load_sources(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  const auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
  };
  std::vector<std::string> files;
  for (const auto& path : paths) {
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && is_source(entry.path())) {
          files.push_back(entry.path().string());
        }
      }
    } else if (fs::is_regular_file(path)) {
      files.push_back(path);
    } else {
      throw std::runtime_error("cannot read " + path);
    }
  }
  std::sort(files.begin(), files.end());  // directory iteration order is unspecified
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + file);
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back(SourceFile{file, text.str()});
  }
  return sources;
}

std::string path_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

std::size_t line_of(const ScannedSource& src, std::size_t offset) {
  const auto it = std::upper_bound(src.line_starts.begin(), src.line_starts.end(), offset);
  return static_cast<std::size_t>(it - src.line_starts.begin());
}

std::size_t match_angle(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

std::size_t skip_space(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

}  // namespace keddah::lint
