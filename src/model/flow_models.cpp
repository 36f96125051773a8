#include "model/flow_models.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/field_reader.h"
#include "util/strings.h"

namespace keddah::model {

using util::FieldReader;

namespace {

/// Serializes an ECDF as at most `cap` evenly spaced quantiles — enough to
/// reproduce the curve while keeping model files small.
util::Json ecdf_to_json(const stats::Ecdf& ecdf, std::size_t cap = 512) {
  util::Json arr = util::Json::array();
  const auto& values = ecdf.values();
  if (values.size() <= cap) {
    for (const double v : values) arr.push_back(util::Json(v));
  } else {
    for (std::size_t i = 0; i < cap; ++i) {
      const double q = static_cast<double>(i) / static_cast<double>(cap - 1);
      arr.push_back(util::Json(ecdf.quantile(q)));
    }
  }
  return arr;
}

/// An ECDF serialized as its sample values: every entry finite and the
/// sequence non-decreasing (quantile lookups binary-search it).
stats::Ecdf read_ecdf(const util::Json& arr, const std::string& key, FieldReader& reader) {
  if (!arr.is_array()) {
    reader.error(key, "must be an array of sorted sample values");
    return {};
  }
  std::vector<double> values;
  values.reserve(arr.size());
  for (const auto& v : arr.as_array()) {
    if (!FieldReader::finite_number(v)) {
      reader.error(util::format("%s[%zu]", key.c_str(), values.size()),
                   "ECDF sample must be a finite number (NaN/inf serializes as null)");
      return {};
    }
    if (!values.empty() && v.as_number() < values.back()) {
      reader.error(util::format("%s[%zu]", key.c_str(), values.size()),
                   util::format("ECDF is not non-decreasing: %g after %g", v.as_number(),
                                values.back()),
                   "re-sort the samples; quantile lookups binary-search this array");
      return {};
    }
    values.push_back(v.as_number());
  }
  return stats::Ecdf(values);
}

/// The required object member `key` of `doc`, read by `read` at its key
/// path; a missing member is an error.
template <typename Read>
auto read_required(const util::Json& doc, const std::string& prefix, const char* key,
                   FieldReader& reader, Read read) {
  const std::string path = FieldReader::path(prefix, key);
  if (!doc.contains(key)) {
    reader.error(path, "missing required object");
    return decltype(read(doc, path, reader)){};
  }
  return read(doc.at(key), path, reader);
}

}  // namespace

double SizeModel::sample(util::Rng& rng) const {
  double value = 0.0;
  if (kind == SizeModelKind::kParametric && parametric.has_value()) {
    value = parametric->sample(rng);
  } else if (!empirical.empty()) {
    value = empirical.sample(rng);
  }
  return std::max(0.0, value);
}

double SizeModel::mean() const {
  if (kind == SizeModelKind::kParametric && parametric.has_value()) {
    const double m = parametric->mean();
    if (std::isfinite(m)) return std::max(0.0, m);
  }
  if (empirical.empty()) return 0.0;
  double total = 0.0;
  for (const double v : empirical.values()) total += v;
  return total / static_cast<double>(empirical.size());
}

util::Json SizeModel::to_json() const {
  util::Json doc = util::Json::object();
  if (parametric.has_value()) doc["parametric"] = parametric->to_json();
  doc["ks"] = util::Json(ks);
  doc["ks_pvalue"] = util::Json(ks_pvalue);
  doc["kind"] = util::Json(kind == SizeModelKind::kParametric ? "parametric" : "empirical");
  doc["empirical"] = ecdf_to_json(empirical);
  return doc;
}

SizeModel read_size_model(const util::Json& doc, const std::string& prefix,
                          FieldReader& reader) {
  SizeModel m;
  if (!reader.object(doc, prefix, "must be an object")) return m;
  if (doc.contains("parametric")) {
    m.parametric = stats::read_distribution(doc.at("parametric"),
                                            FieldReader::path(prefix, "parametric"), reader);
  }
  m.ks = reader.number(doc, prefix, "ks", 1.0);
  if (m.ks < 0.0 || m.ks > 1.0) {
    reader.error(FieldReader::path(prefix, "ks"), "a KS distance lies in [0, 1]");
  }
  m.ks_pvalue = reader.number(doc, prefix, "ks_pvalue", 0.0);
  if (m.ks_pvalue < 0.0 || m.ks_pvalue > 1.0) {
    reader.error(FieldReader::path(prefix, "ks_pvalue"), "a p-value lies in [0, 1]");
  }
  const std::string kind = reader.string(doc, prefix, "kind", "parametric");
  if (kind == "empirical") {
    m.kind = SizeModelKind::kEmpirical;
  } else if (kind != "parametric") {
    reader.error(FieldReader::path(prefix, "kind"), "unknown size-model kind '" + kind + "'",
                 "one of: parametric, empirical");
  }
  const std::size_t before = reader.errors();
  if (doc.contains("empirical")) {
    m.empirical = read_ecdf(doc.at("empirical"), FieldReader::path(prefix, "empirical"), reader);
  }
  if (kind == "empirical" && !m.trained() && reader.errors() == before) {
    reader.error(FieldReader::path(prefix, "empirical"),
                 "kind is \"empirical\" but the sample array is empty");
  }
  return m;
}

std::size_t CountModel::predict(double x) const {
  const double y = fit.predict(x);
  return y <= 0.0 ? 0 : static_cast<std::size_t>(std::llround(y));
}

util::Json CountModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["fit"] = fit.to_json();
  doc["regressor"] = util::Json(regressor);
  return doc;
}

CountModel read_count_model(const util::Json& doc, const std::string& prefix,
                            FieldReader& reader) {
  CountModel m;
  if (!reader.object(doc, prefix, "must be an object")) return m;
  m.fit = read_required(doc, prefix, "fit", reader, stats::read_linear_fit);
  m.regressor = reader.string(doc, prefix, "regressor", "x");
  return m;
}

double TemporalModel::sample_start(util::Rng& rng, double job_duration_s) const {
  const double start = phase_start_frac * job_duration_s;
  const double span = std::max(0.0, (phase_end_frac - phase_start_frac) * job_duration_s);
  const double offset = normalized_offsets.empty() ? rng.uniform() : normalized_offsets.sample(rng);
  return start + std::clamp(offset, 0.0, 1.0) * span;
}

util::Json TemporalModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["offsets"] = ecdf_to_json(normalized_offsets, 256);
  doc["phase_start_frac"] = util::Json(phase_start_frac);
  doc["phase_end_frac"] = util::Json(phase_end_frac);
  return doc;
}

TemporalModel read_temporal_model(const util::Json& doc, const std::string& prefix,
                                  FieldReader& reader) {
  TemporalModel m;
  if (!reader.object(doc, prefix, "must be an object")) return m;
  if (doc.contains("offsets")) {
    m.normalized_offsets =
        read_ecdf(doc.at("offsets"), FieldReader::path(prefix, "offsets"), reader);
  }
  m.phase_start_frac = reader.number(doc, prefix, "phase_start_frac", 0.0);
  m.phase_end_frac = reader.number(doc, prefix, "phase_end_frac", 1.0);
  for (const auto& [key, frac] : {std::pair{"phase_start_frac", m.phase_start_frac},
                                  std::pair{"phase_end_frac", m.phase_end_frac}}) {
    if (frac < 0.0 || frac > 1.0) {
      reader.error(FieldReader::path(prefix, key), "phase fraction must be in [0, 1]");
    }
  }
  if (m.phase_start_frac > m.phase_end_frac) {
    reader.error(FieldReader::path(prefix, "phase_start_frac"), "phase starts after it ends",
                 "swap phase_start_frac and phase_end_frac");
  }
  return m;
}

util::Json ClassModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["size"] = size.to_json();
  doc["count"] = count.to_json();
  doc["temporal"] = temporal.to_json();
  doc["training_flows"] = util::Json(static_cast<std::uint64_t>(training_flows));
  doc["training_bytes"] = util::Json(training_bytes);
  return doc;
}

ClassModel read_class_model(const util::Json& doc, const std::string& prefix,
                            FieldReader& reader) {
  ClassModel m;
  if (!reader.object(doc, prefix, "must be an object {size, count, temporal, ...}")) return m;
  reader.unknown_keys(doc, prefix,
                      {"size", "count", "temporal", "training_flows", "training_bytes"});
  m.size = read_required(doc, prefix, "size", reader, read_size_model);
  m.count = read_required(doc, prefix, "count", reader, read_count_model);
  m.temporal = read_required(doc, prefix, "temporal", reader, read_temporal_model);
  m.training_flows = reader.count(doc, prefix, "training_flows", 0);
  m.training_bytes = reader.number(doc, prefix, "training_bytes", 0.0);
  if (m.training_bytes < 0.0) {
    reader.error(FieldReader::path(prefix, "training_bytes"), "must be >= 0");
  }
  return m;
}

}  // namespace keddah::model
