// HDFS model: NameNode metadata, rack-aware block placement, replication
// pipeline writes, and locality-aware block reads.
//
// Fidelity notes (what matters for traffic): block placement determines
// which reads are node-local (invisible to capture) vs remote (HDFS-read
// flows), and the replication pipeline determines HDFS-write traffic
// (replication-1 off-node copies per block).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hadoop/config.h"
#include "hadoop/faults.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/units.h"

namespace keddah::hadoop {

/// File identity, branded so a FileId can never silently travel where a
/// NodeId (or any other integer id) is expected.
using FileId = util::TaggedId<struct FileIdTag, std::uint64_t>;

/// One HDFS block: size and replica locations (DataNode ids).
struct BlockInfo {
  std::uint64_t bytes = 0;
  std::vector<net::NodeId> replicas;
};

/// File metadata held by the NameNode.
struct FileInfo {
  FileId id{0};
  std::string name;
  std::uint64_t bytes = 0;
  std::vector<BlockInfo> blocks;
};

/// The HDFS layer of the emulated cluster.
///
/// Ownership: borrows the Network (must outlive); owns all file metadata.
class HdfsCluster {
 public:
  /// `datanodes` are the hosts running DataNodes (normally all workers).
  /// Recovery work is counted in place in `faults` (must outlive).
  HdfsCluster(net::Network& network, std::vector<net::NodeId> datanodes,
              const ClusterConfig& config, util::Rng rng, FaultStats& faults);

  /// Registers a pre-existing file: places blocks with the standard policy
  /// but generates NO traffic (job input is loaded before capture starts,
  /// exactly as in the paper's experiments).
  FileId ingest_file(const std::string& name, std::uint64_t bytes);

  /// Writes a new file from `writer`: places blocks and generates the
  /// replication-pipeline flows. `on_complete` fires when every block of
  /// every replica is durable. Returns the file id immediately.
  FileId write_file(const std::string& name, std::uint64_t bytes, net::NodeId writer,
                    std::uint32_t job_id, std::function<void()> on_complete);

  /// Reads one block to `reader`. Chooses the closest *alive* replica
  /// (node-local, then rack-local, then remote). Node-local reads are
  /// loopback (invisible to capture). `on_complete` fires when the block is
  /// at the reader. A read whose source DataNode dies mid-transfer retries
  /// against another replica after `hdfs_read_retry_s`; a read whose reader
  /// is down is dropped (its task attempt died with the node).
  void read_block(FileId file, std::size_t block_index, net::NodeId reader, std::uint32_t job_id,
                  std::function<void()> on_complete);

  const FileInfo& file(FileId id) const;

  /// Looks up by name; throws std::out_of_range when absent.
  const FileInfo& file_by_name(const std::string& name) const;
  bool has_file(const std::string& name) const;

  std::size_t num_files() const { return files_.size(); }
  const std::vector<net::NodeId>& datanodes() const { return datanodes_; }

  /// True if `node` holds a replica of the given block.
  bool is_local(FileId file, std::size_t block_index, net::NodeId node) const;

  /// Handles a DataNode failure: drops the node from service, removes its
  /// replicas from every block, and starts one re-replication transfer per
  /// under-replicated block (surviving replica -> fresh node, HDFS-write
  /// flows with job_id 0). Returns the number of transfers started.
  /// Blocks whose last replica died are counted in lost_blocks().
  std::size_t handle_datanode_failure(net::NodeId node);

  /// Blocks with zero surviving replicas (data loss) since construction.
  std::size_t lost_blocks() const { return lost_blocks_; }

  /// Write pipelines of one job rebuilt with a replacement DataNode after
  /// losing an endpoint mid-block (the total is FaultStats::pipeline_rebuilds).
  std::uint64_t pipeline_rebuilds(std::uint32_t job_id) const;

  /// Stored bytes per DataNode (sum of replica sizes it holds). Ordered
  /// so callers that iterate (balancer, reports) see a stable order.
  std::map<net::NodeId, std::uint64_t> datanode_usage() const;

  /// Storage imbalance: max DataNode usage / mean usage (1.0 = balanced).
  double storage_imbalance() const;

  /// Runs one pass of the HDFS balancer: while some DataNode stores more
  /// than (1 + threshold) x mean and another less than (1 - threshold) x
  /// mean, move a block replica from the most- to the least-utilized node
  /// (generating an HDFS-write transfer, job_id 0), up to `max_moves`
  /// transfers. Returns the number of transfers started. Metadata moves
  /// immediately; bytes flow through the network asynchronously.
  std::size_t run_balancer(double threshold = 0.10, std::size_t max_moves = 64);

  /// Splits a byte count into block-size chunks (last one short).
  std::vector<std::uint64_t> split_blocks(std::uint64_t bytes) const;

 private:
  /// In-flight write_file() bookkeeping shared by its pipeline callbacks.
  struct WriteState {
    FileInfo* file = nullptr;
    net::NodeId writer = net::kInvalidNode;
    std::uint32_t job_id = 0;
    std::function<void()> on_complete;
    std::size_t stages_left = 0;
  };

  /// Launches the replication pipeline for one block; chains to the next
  /// block when all stages of this one drain.
  void start_block_pipeline(const std::shared_ptr<WriteState>& state, std::size_t block_index);

  /// One pipeline stage transfer (from -> to) for the given block.
  void start_pipeline_stage(const std::shared_ptr<WriteState>& state, std::size_t block_index,
                            net::NodeId from, net::NodeId to);

  /// Stage completion: either counts the stage done or, on an aborted flow,
  /// rebuilds the pipeline with a replacement DataNode and resends.
  void on_pipeline_stage_done(const std::shared_ptr<WriteState>& state, std::size_t block_index,
                              net::NodeId to, const net::Flow& flow);

  /// Marks one stage drained; chains to the next block / fires on_complete.
  void finish_pipeline_stage(const std::shared_ptr<WriteState>& state, std::size_t block_index);

  /// An alive DataNode not yet holding the block; kInvalidNode when none.
  net::NodeId pick_replacement(const BlockInfo& block);

  /// Starts (or restarts, after an aborted transfer) one background
  /// re-replication of `block` onto an alive non-holder.
  void start_rereplication(BlockInfo* block);

  /// Standard placement: first replica on the writer (when it is a
  /// DataNode), second on a different rack, third on the second's rack.
  /// Down nodes are never chosen.
  std::vector<net::NodeId> place_replicas(net::NodeId writer);

  /// File ids in ascending order — the deterministic iteration order for
  /// every files_ walk whose side effects are order-visible (re-replication
  /// scheduling, balancer block picks).
  std::vector<FileId> sorted_file_ids() const;

  net::Network& network_;
  std::vector<net::NodeId> datanodes_;
  ClusterConfig config_;
  util::Rng rng_;
  std::unordered_map<FileId, FileInfo> files_;
  std::unordered_map<std::string, FileId> by_name_;
  FileId next_file_id_{1};
  std::size_t lost_blocks_ = 0;
  FaultStats& faults_;
  std::unordered_map<std::uint32_t, std::uint64_t> pipeline_rebuilds_by_job_;
  /// Blocks with an active write pipeline: their recovery belongs to the
  /// pipeline rebuild path, so handle_datanode_failure leaves them alone.
  /// Pointers are stable (block vectors never resize after creation).
  std::unordered_set<const BlockInfo*> blocks_in_flight_;
};

}  // namespace keddah::hadoop
