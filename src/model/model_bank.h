// ModelBank: a registry of trained KeddahModels across job families and
// cluster configurations. The paper's models are per-(job, configuration);
// downstream users hold a bank of them and pick the closest match for the
// scenario they want to generate — this class implements that selection
// plus one-file persistence.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/keddah_model.h"

namespace keddah::model {

/// An owning collection of models with nearest-configuration lookup.
class ModelBank {
 public:
  ModelBank() = default;

  /// Adds a model (job name + training context identify it).
  void add(KeddahModel model);

  std::size_t size() const { return models_.size(); }
  /// The i-th model, in insertion (document) order.
  const KeddahModel& at(std::size_t i) const { return *models_.at(i); }
  bool empty() const { return models_.empty(); }

  /// Distinct job names present, sorted.
  std::vector<std::string> job_names() const;

  /// All models for a job family.
  std::vector<const KeddahModel*> models_for(const std::string& job_name) const;

  /// Exact configuration match (block size, replication, cluster nodes);
  /// nullptr when absent.
  const KeddahModel* find_exact(const std::string& job_name, std::uint64_t block_size,
                                std::uint32_t replication, std::size_t cluster_nodes) const;

  /// Closest-configuration model of the given job family, by a log-scaled
  /// distance over (block size, replication, cluster size). Returns
  /// nullptr when no model of that family exists.
  const KeddahModel* select(const std::string& job_name, std::uint64_t block_size,
                            std::uint32_t replication, std::size_t cluster_nodes) const;

  /// Configuration distance used by select() (exposed for tests): sum of
  /// |log2| ratios of block size and cluster nodes plus the replication
  /// difference.
  static double config_distance(const TrainingContext& a, std::uint64_t block_size,
                                std::uint32_t replication, std::size_t cluster_nodes);

  util::Json to_json() const;
  /// read_model_bank that throws std::invalid_argument with the first
  /// error.
  static ModelBank from_json(const util::Json& doc, const std::string& context = "model bank");
  void save(const std::string& path) const;
  static ModelBank load(const std::string& path);

 private:
  // unique_ptr keeps pointers returned by select()/find_exact() stable
  // across add() calls.
  std::vector<std::unique_ptr<KeddahModel>> models_;
};

/// Reads {"models": [model, ...]}: each entry through read_model under the
/// key path "models[i]".
ModelBank read_model_bank(const util::Json& doc, util::FieldReader& reader);

}  // namespace keddah::model
