// One validating reader for the typed fields of JSON documents.
//
// Every document schema keddah accepts from outside (scenario files, fault
// plans, Spec API requests, fitted models, model banks) reads its fields
// through this class. A defective field records a key-path Diagnostic and
// yields the caller's fallback instead of throwing, so one pass over a
// document either builds its struct or collects every defect. The parsers
// then throw the first error; keddah-lint and the serve daemon report them
// all. Because both sides run the same reads, "lint accepts" and "the
// parser accepts" are the same verdict, with the same wording.
//
// Field accessors take the parent object, the key path of that object
// (`prefix`, empty at the document root) and the member name. An absent
// member silently yields the fallback; the schema decides which members are
// required.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/diagnostic.h"
#include "util/json.h"

namespace keddah::util {

class FieldReader {
 public:
  /// Appends to `out`; every diagnostic names `file`.
  FieldReader(std::string file, std::vector<Diagnostic>& out);

  /// "prefix.key", or "key" at the root.
  static std::string path(const std::string& prefix, const std::string& key);
  /// A JSON number with a finite value. JSON cannot carry NaN/inf, so the
  /// serializer writes them as null; rejecting nulls surfaces NaN values.
  static bool finite_number(const Json& value);

  void error(std::string key, std::string message, std::string hint = "");
  void warning(std::string key, std::string message, std::string hint = "");

  /// Errors recorded through this reader so far.
  std::size_t errors() const { return errors_; }
  /// The first error recorded through this reader, or nullptr.
  const Diagnostic* first_error() const;
  /// Throws std::invalid_argument carrying first_error()->to_string(), if
  /// an error was recorded.
  void throw_first_error() const;

  /// True when `value` is an object; otherwise records `message` at `key`
  /// ("$" for the document root) and returns false.
  bool object(const Json& value, const std::string& key,
              const char* message = "must be a JSON object");

  /// Warns about each member of `obj` outside `known`: the readers ignore
  /// it, and it is almost always a typo of a real key.
  void unknown_keys(const Json& obj, const std::string& prefix,
                    std::initializer_list<std::string_view> known);

  /// A finite number.
  double number(const Json& obj, const std::string& prefix, const std::string& key,
                double fallback);
  /// A non-negative integer count >= `min`. A value below `min` records
  /// `below_min`; a fraction, or a value too large to be an exact integer,
  /// records "must be a non-negative integer". Never casts a negative or
  /// out-of-range double.
  std::uint64_t count(const Json& obj, const std::string& prefix, const std::string& key,
                      std::uint64_t fallback, std::uint64_t min = 0,
                      const char* below_min = kNotACount);
  /// A byte size: a number of bytes or a string like "128 MB". When
  /// `required`, a missing member and a size of 0 are errors.
  std::uint64_t bytes(const Json& obj, const std::string& prefix, const std::string& key,
                      std::uint64_t fallback, bool required = false);
  /// A byte-size value already known to be present (e.g. an array entry)
  /// at key path `key`; nullopt after recording the defect.
  std::optional<std::uint64_t> byte_size(const Json& value, const std::string& key,
                                         bool positive);
  std::string string(const Json& obj, const std::string& prefix, const std::string& key,
                     const std::string& fallback);
  bool boolean(const Json& obj, const std::string& prefix, const std::string& key,
               bool fallback);

  static constexpr const char* kNotACount = "must be a non-negative integer";

 private:
  std::string file_;
  std::vector<Diagnostic>& out_;
  std::size_t errors_ = 0;
  /// Index into out_ of the first error recorded through this reader.
  std::size_t first_error_ = 0;
};

}  // namespace keddah::util
