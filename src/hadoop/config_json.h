// JSON ⇄ ClusterConfig: the one "cluster" object schema shared by scenario
// files (src/keddah/scenario.h), the versioned Spec API (src/api/specs.h),
// and the serve daemon's request bodies. read_cluster_config holds the
// cluster rules keddah-lint and the parsers share; each defect names the
// source document and the JSON key path of the offending field.
#pragma once

#include <string>

#include "hadoop/config.h"
#include "hadoop/faults.h"
#include "util/field_reader.h"
#include "util/json.h"

namespace keddah::hadoop {

/// Stable topology-kind name ("star", "racktree", "fattree").
const char* topology_kind_name(TopologyKind kind);

/// Inverse of topology_kind_name; throws std::invalid_argument on unknown
/// names.
TopologyKind topology_kind_from_name(const std::string& name);

/// The defaults a scenario-style document assumes when the "cluster" object
/// (or one of its fields) is absent: the paper-era testbed with 4
/// containers/node and a 2 s delay-scheduling hold-out.
ClusterConfig default_scenario_cluster();

/// Reads a scenario-style "cluster" object at key path `key` on top of
/// default_scenario_cluster(), recording every defect in `reader`: field
/// types, link rates, slowstart and straggler fractions in [0, 1], an even
/// fat-tree arity, a positive block size, and a replication factor no
/// larger than the cluster.
ClusterConfig read_cluster_config(const util::Json& cluster, const std::string& key,
                                  util::FieldReader& reader);

/// read_cluster_config that throws std::invalid_argument with the first
/// error, "<context>: <key>.<field>: <message> (<hint>)".
ClusterConfig parse_cluster_config(const util::Json& cluster, const std::string& context,
                                   const std::string& key = "cluster");

/// Serializes the scenario-schema fields of a config. Round-trips through
/// parse_cluster_config.
util::Json cluster_config_to_json(const ClusterConfig& cfg);

/// Serializes a fault plan as the scenario-schema "faults" array; inverse of
/// parse_fault_plan.
util::Json fault_plan_to_json(const FaultPlan& plan);

}  // namespace keddah::hadoop
