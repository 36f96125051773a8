#include "util/field_reader.h"

#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace keddah::util {

namespace {

/// Largest double below which every integer is exact (2^53).
constexpr double kMaxExactInteger = 9007199254740992.0;
/// parse_bytes' ceiling, applied to numeric sizes as well.
constexpr double kMaxBytes = 9.0e18;

}  // namespace

FieldReader::FieldReader(std::string file, std::vector<Diagnostic>& out)
    : file_(std::move(file)), out_(out) {}

std::string FieldReader::path(const std::string& prefix, const std::string& key) {
  return prefix.empty() ? key : prefix + "." + key;
}

bool FieldReader::finite_number(const Json& value) {
  return value.is_number() && std::isfinite(value.as_number());
}

void FieldReader::error(std::string key, std::string message, std::string hint) {
  if (errors_++ == 0) first_error_ = out_.size();
  out_.push_back(
      Diagnostic{Severity::kError, file_, std::move(key), std::move(message), std::move(hint)});
}

void FieldReader::warning(std::string key, std::string message, std::string hint) {
  out_.push_back(
      Diagnostic{Severity::kWarning, file_, std::move(key), std::move(message), std::move(hint)});
}

const Diagnostic* FieldReader::first_error() const {
  return errors_ == 0 ? nullptr : &out_[first_error_];
}

void FieldReader::throw_first_error() const {
  if (const Diagnostic* first = first_error()) throw std::invalid_argument(first->to_string());
}

bool FieldReader::object(const Json& value, const std::string& key, const char* message) {
  if (value.is_object()) return true;
  error(key.empty() ? "$" : key, message);
  return false;
}

void FieldReader::unknown_keys(const Json& obj, const std::string& prefix,
                               std::initializer_list<std::string_view> known) {
  if (!obj.is_object()) return;
  for (const auto& [key, value] : obj.as_object()) {
    bool listed = false;
    for (const std::string_view k : known) listed = listed || k == key;
    if (!listed) {
      warning(path(prefix, key), "unknown key (the parser ignores it)",
              "check the spelling against the schema");
    }
  }
}

double FieldReader::number(const Json& obj, const std::string& prefix, const std::string& key,
                           double fallback) {
  if (!obj.contains(key)) return fallback;
  const Json& value = obj.at(key);
  if (!finite_number(value)) {
    error(path(prefix, key),
          value.is_null() ? "null where a number is expected (NaN/inf serializes as null)"
                          : "must be a finite number",
          "replace with a finite numeric value");
    return fallback;
  }
  return value.as_number();
}

std::uint64_t FieldReader::count(const Json& obj, const std::string& prefix,
                                 const std::string& key, std::uint64_t fallback,
                                 std::uint64_t min, const char* below_min) {
  if (!obj.contains(key)) return fallback;
  const std::size_t before = errors_;
  const double value = number(obj, prefix, key, 0.0);
  if (errors_ != before) return fallback;
  if (value < static_cast<double>(min)) {
    error(path(prefix, key), below_min);
    return fallback;
  }
  if (value != std::floor(value) || value > kMaxExactInteger) {
    error(path(prefix, key), kNotACount);
    return fallback;
  }
  return static_cast<std::uint64_t>(value);
}

std::uint64_t FieldReader::bytes(const Json& obj, const std::string& prefix,
                                 const std::string& key, std::uint64_t fallback,
                                 bool required) {
  if (!obj.contains(key)) {
    if (required) {
      error(path(prefix, key), "missing required key", "add e.g. \"" + key + "\": \"256 MB\"");
    }
    return fallback;
  }
  return byte_size(obj.at(key), path(prefix, key), required).value_or(fallback);
}

std::optional<std::uint64_t> FieldReader::byte_size(const Json& value, const std::string& key,
                                                    bool positive) {
  std::uint64_t bytes = 0;
  if (value.is_number()) {
    const double d = value.as_number();
    if (!std::isfinite(d) || d < 0.0) {
      error(key, "byte size must be finite and >= 0");
      return std::nullopt;
    }
    if (d > kMaxBytes) {
      error(key, "byte size must be at most 9e18");
      return std::nullopt;
    }
    bytes = static_cast<std::uint64_t>(d);
  } else if (!value.is_string() || !parse_bytes(value.as_string(), &bytes)) {
    error(key, "unparseable byte size", "use a number of bytes or a string like \"128 MB\"");
    return std::nullopt;
  }
  if (positive && bytes == 0) {
    error(key, "byte size must be > 0");
    return std::nullopt;
  }
  return bytes;
}

std::string FieldReader::string(const Json& obj, const std::string& prefix,
                                const std::string& key, const std::string& fallback) {
  if (!obj.contains(key)) return fallback;
  const Json& value = obj.at(key);
  if (!value.is_string()) {
    error(path(prefix, key), "must be a string");
    return fallback;
  }
  return value.as_string();
}

bool FieldReader::boolean(const Json& obj, const std::string& prefix, const std::string& key,
                          bool fallback) {
  if (!obj.contains(key)) return fallback;
  const Json& value = obj.at(key);
  if (!value.is_bool()) {
    error(path(prefix, key), "must be a boolean");
    return fallback;
  }
  return value.as_bool();
}

}  // namespace keddah::util
