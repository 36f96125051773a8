#include "model/keddah_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/field_reader.h"
#include "util/strings.h"

namespace keddah::model {

util::Json TrainingContext::to_json() const {
  util::Json doc = util::Json::object();
  doc["block_size"] = util::Json(static_cast<std::uint64_t>(block_size));
  doc["replication"] = util::Json(static_cast<std::uint64_t>(replication));
  doc["cluster_nodes"] = util::Json(static_cast<std::uint64_t>(cluster_nodes));
  doc["num_runs"] = util::Json(static_cast<std::uint64_t>(num_runs));
  doc["min_input_bytes"] = util::Json(min_input_bytes);
  doc["max_input_bytes"] = util::Json(max_input_bytes);
  return doc;
}

TrainingContext read_training_context(const util::Json& doc, const std::string& prefix,
                                      util::FieldReader& reader) {
  using util::FieldReader;
  TrainingContext ctx;
  if (!reader.object(doc, prefix, "must be an object")) return ctx;
  reader.unknown_keys(doc, prefix,
                      {"block_size", "replication", "cluster_nodes", "num_runs",
                       "min_input_bytes", "max_input_bytes"});
  ctx.block_size = reader.count(doc, prefix, "block_size", 0);
  const std::size_t before = reader.errors();
  const std::uint64_t replication = reader.count(doc, prefix, "replication", 0);
  ctx.cluster_nodes = reader.count(doc, prefix, "cluster_nodes", 0);
  if (reader.errors() == before && ctx.cluster_nodes > 0 && replication > ctx.cluster_nodes) {
    reader.error(FieldReader::path(prefix, "replication"),
                 util::format("replication %g exceeds the training cluster size (%g nodes)",
                              static_cast<double>(replication),
                              static_cast<double>(ctx.cluster_nodes)),
                 "the model was trained under an impossible configuration; retrain");
  } else if (replication > std::numeric_limits<std::uint32_t>::max()) {
    reader.error(FieldReader::path(prefix, "replication"), "must be at most 4294967295");
  }
  ctx.replication = static_cast<std::uint32_t>(replication);
  ctx.num_runs = reader.count(doc, prefix, "num_runs", 0);
  ctx.min_input_bytes = reader.number(doc, prefix, "min_input_bytes", 0.0);
  ctx.max_input_bytes = reader.number(doc, prefix, "max_input_bytes", 0.0);
  if (ctx.min_input_bytes > ctx.max_input_bytes) {
    reader.error(FieldReader::path(prefix, "min_input_bytes"), "training input range is inverted");
  }
  return ctx;
}

std::size_t KeddahModel::class_index(net::FlowKind kind) {
  for (std::size_t i = 0; i < kModelledClasses.size(); ++i) {
    if (kModelledClasses[i] == kind) return i;
  }
  throw std::out_of_range("keddah model: class not modelled");
}

ClassModel& KeddahModel::class_model(net::FlowKind kind) { return classes_[class_index(kind)]; }

const ClassModel& KeddahModel::class_model(net::FlowKind kind) const {
  return classes_[class_index(kind)];
}

stats::LinearFit& KeddahModel::volume_model(net::FlowKind kind) {
  return volume_vs_input_[class_index(kind)];
}

const stats::LinearFit& KeddahModel::volume_model(net::FlowKind kind) const {
  return volume_vs_input_[class_index(kind)];
}

double KeddahModel::predict_duration(double input_bytes) const {
  return std::max(0.0, duration_vs_input_.predict(input_bytes));
}

double KeddahModel::predict_volume(net::FlowKind kind, double input_bytes) const {
  return std::max(0.0, volume_model(kind).predict(input_bytes));
}

util::Json KeddahModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["job_name"] = util::Json(job_name_);
  doc["context"] = context_.to_json();
  doc["duration_vs_input"] = duration_vs_input_.to_json();
  util::Json classes = util::Json::object();
  util::Json volumes = util::Json::object();
  for (std::size_t i = 0; i < kModelledClasses.size(); ++i) {
    const char* key = net::flow_kind_name(kModelledClasses[i]);
    classes[key] = classes_[i].to_json();
    volumes[key] = volume_vs_input_[i].to_json();
  }
  doc["classes"] = classes;
  doc["volume_vs_input"] = volumes;
  return doc;
}

KeddahModel read_model(const util::Json& doc, util::FieldReader& reader,
                       const std::string& prefix) {
  using util::FieldReader;
  KeddahModel m;
  if (!reader.object(doc, prefix, "a model must be a JSON object")) return m;
  reader.unknown_keys(doc, prefix,
                      {"job_name", "context", "duration_vs_input", "classes", "volume_vs_input"});
  const std::string name = doc.get_string("job_name", "");
  if (name.empty()) {
    reader.error(FieldReader::path(prefix, "job_name"), "missing or empty job name",
                 "name the workload the model was trained on");
  }
  m.set_job_name(name);
  if (doc.contains("context")) {
    m.context() = read_training_context(doc.at("context"), FieldReader::path(prefix, "context"),
                                        reader);
  }
  if (doc.contains("duration_vs_input")) {
    m.duration_model() = stats::read_linear_fit(
        doc.at("duration_vs_input"), FieldReader::path(prefix, "duration_vs_input"), reader);
  }
  // Both per-class maps take the modelled class names; other keys are
  // reported and skipped.
  const auto read_classes = [&](const char* field, const char* message, auto read) {
    if (!doc.contains(field)) return;
    const std::string map_path = FieldReader::path(prefix, field);
    if (!reader.object(doc.at(field), map_path, message)) return;
    for (const auto& [key, block] : doc.at(field).as_object()) {
      const auto kind = std::find_if(kModelledClasses.begin(), kModelledClasses.end(),
                                     [&](net::FlowKind k) { return key == net::flow_kind_name(k); });
      if (kind == kModelledClasses.end()) {
        std::vector<std::string> names;
        for (const net::FlowKind k : kModelledClasses) names.emplace_back(net::flow_kind_name(k));
        reader.warning(FieldReader::path(map_path, key),
                       "unknown traffic class (the loader ignores it)",
                       "one of: " + util::join(names, ", "));
        continue;
      }
      read(*kind, block, FieldReader::path(map_path, key));
    }
  };
  read_classes("classes", "must map class names to class models",
               [&](net::FlowKind kind, const util::Json& block, const std::string& path) {
                 m.class_model(kind) = read_class_model(block, path, reader);
               });
  read_classes("volume_vs_input", "must map class names to linear fits",
               [&](net::FlowKind kind, const util::Json& block, const std::string& path) {
                 m.volume_model(kind) = stats::read_linear_fit(block, path, reader);
               });
  return m;
}

KeddahModel KeddahModel::from_json(const util::Json& doc, const std::string& context) {
  std::vector<util::Diagnostic> diagnostics;
  util::FieldReader reader(context, diagnostics);
  KeddahModel model = read_model(doc, reader);
  reader.throw_first_error();
  return model;
}

void KeddahModel::save(const std::string& path) const { to_json().save_file(path); }

KeddahModel KeddahModel::load(const std::string& path) {
  return from_json(util::Json::load_file(path), path);
}

}  // namespace keddah::model
