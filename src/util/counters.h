// Counter sets that list their fields once. A counter struct declares
//
//   template <typename Fn> void visit(Fn&& fn) const {
//     fn("reshares", reshares);
//     fn("solves", solves);
//   }
//
// and every output renders from that list: counters_json() for --json,
// /v1/stats and bench JSON, counters_table() for CLI summaries. Fields are
// unsigned integers, double, bool, const char* or util::Bytes, or a nested
// set (a struct with a visit, or a CounterGroup) rendered as a nested
// object. Counting stays a plain field increment; the list is walked only
// when a snapshot is rendered.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

namespace keddah::util {

template <typename T>
concept CounterSet = requires(const T& set) { set.visit([](const char*, const auto&) {}); };

/// A nested set declared inline in a parent's visit:
///   fn("cache", util::CounterGroup{[&](auto&& group) { group("hits", hits); }});
template <typename Body>
struct CounterGroup {
  Body body;
  template <typename Fn>
  void visit(Fn&& fn) const {
    body(fn);
  }
};

/// The JSON value of a counter set (an object, a key per field) or of one
/// field; byte sizes are plain numbers.
template <typename T>
Json counters_json(const T& value) {
  if constexpr (CounterSet<T>) {
    Json doc = Json::object();
    value.visit([&doc](const char* name, const auto& field) { doc[name] = counters_json(field); });
    return doc;
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return Json(value.value());
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return Json(static_cast<std::uint64_t>(value));
  } else {
    return Json(value);  // double, bool, const char*
  }
}

/// Two columns, `label_header` | "value", a row per field of a flat set;
/// labels and values read as in counters_json().
template <CounterSet T>
TextTable counters_table(const T& set, std::string label_header) {
  TextTable table({std::move(label_header), "value"});
  set.visit([&table](const char* name, const auto& value) {
    table.add_row({name, counters_json(value).dump(-1)});
  });
  return table;
}

}  // namespace keddah::util
