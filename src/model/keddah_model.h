// KeddahModel: the trained traffic model of one MapReduce job family under
// one cluster configuration — Keddah's primary artefact. It bundles the
// four per-class component models with job-level scaling laws, and can be
// persisted to JSON for use by separate replay/what-if tools. read_model is
// the one rule set for model documents: the loaders, keddah-lint and the
// serve daemon all read through it.
#pragma once

#include <array>
#include <string>

#include "model/flow_models.h"
#include "net/flow.h"
#include "stats/regression.h"
#include "util/json.h"

namespace keddah::util {
class FieldReader;
}

namespace keddah::model {

/// Traffic classes Keddah models (control is modelled, "other" is not).
inline constexpr std::array<net::FlowKind, 4> kModelledClasses = {
    net::FlowKind::kHdfsRead, net::FlowKind::kShuffle, net::FlowKind::kHdfsWrite,
    net::FlowKind::kControl};

/// Summary of the configuration the model was trained under; generation for
/// materially different configurations is extrapolation and is reported as
/// such. A zero block size, replication or node count means "unknown".
struct TrainingContext {
  std::uint64_t block_size = 0;
  std::uint32_t replication = 0;
  std::size_t cluster_nodes = 0;
  std::size_t num_runs = 0;
  double min_input_bytes = 0.0;
  double max_input_bytes = 0.0;

  util::Json to_json() const;
};

/// The full per-job-type traffic model.
class KeddahModel {
 public:
  KeddahModel() = default;

  const std::string& job_name() const { return job_name_; }
  void set_job_name(std::string name) { job_name_ = std::move(name); }

  TrainingContext& context() { return context_; }
  const TrainingContext& context() const { return context_; }

  /// Per-class component model access; throws std::out_of_range for
  /// classes outside kModelledClasses.
  ClassModel& class_model(net::FlowKind kind);
  const ClassModel& class_model(net::FlowKind kind) const;

  /// Job wall-clock seconds as a function of input bytes.
  stats::LinearFit& duration_model() { return duration_vs_input_; }
  const stats::LinearFit& duration_model() const { return duration_vs_input_; }

  /// Per-class network bytes as a function of input bytes (through origin).
  stats::LinearFit& volume_model(net::FlowKind kind);
  const stats::LinearFit& volume_model(net::FlowKind kind) const;

  /// Predicted job duration for an input size (clamped positive).
  double predict_duration(double input_bytes) const;

  /// Predicted per-class traffic volume for an input size.
  double predict_volume(net::FlowKind kind, double input_bytes) const;

  util::Json to_json() const;
  /// read_model that throws std::invalid_argument with the first error,
  /// "<context>: <key path>: <message> (<hint>)".
  static KeddahModel from_json(const util::Json& doc, const std::string& context = "model");
  void save(const std::string& path) const;
  /// Loads and reads a model file; errors name the file.
  static KeddahModel load(const std::string& path);

 private:
  static std::size_t class_index(net::FlowKind kind);

  std::string job_name_;
  TrainingContext context_;
  std::array<ClassModel, kModelledClasses.size()> classes_;
  std::array<stats::LinearFit, kModelledClasses.size()> volume_vs_input_;
  stats::LinearFit duration_vs_input_;
};

/// {block_size, replication, cluster_nodes, num_runs, min_input_bytes,
/// max_input_bytes}: counts are non-negative integers, replication fits
/// the known cluster, and the input range is ordered.
TrainingContext read_training_context(const util::Json& doc, const std::string& prefix,
                                      util::FieldReader& reader);

/// Reads a model document, recording every defect in `reader` under key
/// paths rooted at `prefix` ("models[2]" for a bank entry). A model needs a
/// job name; class blocks outside kModelledClasses draw a warning and are
/// ignored. The result is meaningful only when no error was recorded.
KeddahModel read_model(const util::Json& doc, util::FieldReader& reader,
                       const std::string& prefix = "");

}  // namespace keddah::model
