#include "hadoop/hdfs.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "util/log.h"

namespace keddah::hadoop {

net::Topology ClusterConfig::build_topology() const {
  switch (topology) {
    case TopologyKind::kStar:
      return net::make_star(racks * hosts_per_rack, access_bps, latency_s);
    case TopologyKind::kRackTree:
      return net::make_rack_tree(racks, hosts_per_rack, access_bps, core_bps, latency_s);
    case TopologyKind::kFatTree:
      return net::make_fat_tree(fat_tree_k, access_bps, latency_s);
  }
  throw std::logic_error("hadoop: unknown topology kind");
}

HdfsCluster::HdfsCluster(net::Network& network, std::vector<net::NodeId> datanodes,
                         const ClusterConfig& config, util::Rng rng, FaultStats& faults)
    : network_(network),
      datanodes_(std::move(datanodes)),
      config_(config),
      rng_(rng),
      faults_(faults) {
  if (datanodes_.empty()) throw std::invalid_argument("hdfs: need at least one datanode");
}

std::vector<std::uint64_t> HdfsCluster::split_blocks(std::uint64_t bytes) const {
  std::vector<std::uint64_t> out;
  if (bytes == 0) return out;
  const std::uint64_t bs = config_.block_size;
  for (std::uint64_t off = 0; off < bytes; off += bs) out.push_back(std::min(bs, bytes - off));
  return out;
}

std::vector<net::NodeId> HdfsCluster::place_replicas(net::NodeId writer) {
  const auto& topo = network_.topology();
  const std::size_t want = std::min<std::size_t>(config_.replication, datanodes_.size());
  std::vector<net::NodeId> replicas;
  replicas.reserve(want);

  auto contains = [&](net::NodeId n) {
    return std::find(replicas.begin(), replicas.end(), n) != replicas.end();
  };
  auto pick_where = [&](auto&& pred) -> net::NodeId {
    std::vector<net::NodeId> candidates;
    for (const auto dn : datanodes_) {
      if (!contains(dn) && network_.node_up(dn) && pred(dn)) candidates.push_back(dn);
    }
    if (candidates.empty()) return net::kInvalidNode;
    return candidates[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  };

  // First replica: the writer itself when it runs a DataNode.
  const bool writer_is_dn =
      std::find(datanodes_.begin(), datanodes_.end(), writer) != datanodes_.end();
  replicas.push_back(writer_is_dn ? writer
                                  : pick_where([](net::NodeId) { return true; }));

  // Second replica: a different rack when the cluster has one.
  if (replicas.size() < want) {
    net::NodeId second =
        pick_where([&](net::NodeId n) { return !topo.same_rack(n, replicas[0]); });
    if (second == net::kInvalidNode) second = pick_where([](net::NodeId) { return true; });
    if (second != net::kInvalidNode) replicas.push_back(second);
  }

  // Third replica: same rack as the second, different node.
  if (replicas.size() < want) {
    net::NodeId third =
        pick_where([&](net::NodeId n) { return topo.same_rack(n, replicas[1]); });
    if (third == net::kInvalidNode) third = pick_where([](net::NodeId) { return true; });
    if (third != net::kInvalidNode) replicas.push_back(third);
  }

  // Any further replicas: random distinct DataNodes.
  while (replicas.size() < want) {
    const net::NodeId extra = pick_where([](net::NodeId) { return true; });
    if (extra == net::kInvalidNode) break;
    replicas.push_back(extra);
  }
  // A fully-down cluster can leave no pickable first replica.
  replicas.erase(std::remove(replicas.begin(), replicas.end(), net::kInvalidNode),
                 replicas.end());
  return replicas;
}

FileId HdfsCluster::ingest_file(const std::string& name, std::uint64_t bytes) {
  if (by_name_.count(name) != 0) throw std::invalid_argument("hdfs: file exists: " + name);
  FileInfo info;
  info.id = next_file_id_++;
  info.name = name;
  info.bytes = bytes;
  for (const std::uint64_t block_bytes : split_blocks(bytes)) {
    BlockInfo block;
    block.bytes = block_bytes;
    // Ingested data was written by an external client: first replica lands
    // on a random DataNode, so blocks spread across the cluster.
    const auto writer = datanodes_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(datanodes_.size()) - 1))];
    block.replicas = place_replicas(writer);
    info.blocks.push_back(std::move(block));
  }
  const FileId id = info.id;
  by_name_[name] = id;
  files_.emplace(id, std::move(info));
  return id;
}

FileId HdfsCluster::write_file(const std::string& name, std::uint64_t bytes, net::NodeId writer,
                               std::uint32_t job_id, std::function<void()> on_complete) {
  if (by_name_.count(name) != 0) throw std::invalid_argument("hdfs: file exists: " + name);
  FileInfo info;
  info.id = next_file_id_++;
  info.name = name;
  info.bytes = bytes;
  for (const std::uint64_t block_bytes : split_blocks(bytes)) {
    BlockInfo block;
    block.bytes = block_bytes;
    block.replicas = place_replicas(writer);
    info.blocks.push_back(std::move(block));
  }
  const FileId id = info.id;
  by_name_[name] = id;
  auto [it, inserted] = files_.emplace(id, std::move(info));
  assert(inserted);
  FileInfo& stored = it->second;

  if (stored.blocks.empty()) {
    // Empty file: complete on the next tick to keep callback asynchrony.
    network_.simulator().schedule_in(0.0, [cb = std::move(on_complete)] {
      if (cb) cb();
    });
    return id;
  }

  // Blocks are written sequentially (HDFS semantics); within a block the
  // pipeline stages writer->r1->r2->r3 run concurrently, and the block is
  // durable when its slowest stage drains. State lives in a shared context
  // (no lambda self-capture, so no reference cycle). All blocks of the file
  // are claimed up front: until the pipeline finishes them, failure repair
  // belongs to pipeline recovery, not the NameNode re-replicator.
  auto state = std::make_shared<WriteState>();
  state->file = &stored;
  state->writer = writer;
  state->job_id = job_id;
  state->on_complete = std::move(on_complete);
  for (const auto& block : stored.blocks) blocks_in_flight_.insert(&block);
  start_block_pipeline(state, 0);
  return id;
}

void HdfsCluster::start_block_pipeline(const std::shared_ptr<WriteState>& state,
                                       std::size_t block_index) {
  BlockInfo& block = state->file->blocks[block_index];
  if (block.replicas.empty()) {
    // Every placed replica died before the pipeline reached this block:
    // re-place on whatever is alive now.
    block.replicas = place_replicas(state->writer);
  }
  if (block.replicas.empty()) {
    // Nowhere to write (cluster-wide outage): skip the block so the write
    // state machine cannot stall; durability is the casualty.
    state->stages_left = 1;
    network_.simulator().schedule_in(
        0.0, [this, state, block_index] { finish_pipeline_stage(state, block_index); });
    return;
  }
  state->stages_left = block.replicas.size();
  net::NodeId from = state->writer;
  for (const net::NodeId to : block.replicas) {
    start_pipeline_stage(state, block_index, from, to);
    from = to;
  }
}

void HdfsCluster::start_pipeline_stage(const std::shared_ptr<WriteState>& state,
                                       std::size_t block_index, net::NodeId from, net::NodeId to) {
  const BlockInfo& block = state->file->blocks[block_index];
  net::FlowMeta meta;
  meta.src_port = net::ports::kEphemeralBase;
  meta.dst_port = net::ports::kDataNodeXfer;
  meta.job_id = state->job_id;
  meta.kind = net::FlowKind::kHdfsWrite;
  network_.start_flow(from, to, util::Bytes::of(block.bytes), meta,
                      [this, state, block_index, to](const net::Flow& flow) {
                        on_pipeline_stage_done(state, block_index, to, flow);
                      },
                      util::Rate::bps(config_.disk_write_bps));
}

net::NodeId HdfsCluster::pick_replacement(const BlockInfo& block) {
  std::vector<net::NodeId> candidates;
  for (const auto dn : datanodes_) {
    if (!network_.node_up(dn)) continue;
    if (std::find(block.replicas.begin(), block.replicas.end(), dn) != block.replicas.end()) {
      continue;
    }
    candidates.push_back(dn);
  }
  if (candidates.empty()) return net::kInvalidNode;
  return candidates[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

void HdfsCluster::on_pipeline_stage_done(const std::shared_ptr<WriteState>& state,
                                         std::size_t block_index, net::NodeId to,
                                         const net::Flow& flow) {
  if (!flow.aborted) {
    finish_pipeline_stage(state, block_index);
    return;
  }
  // A pipeline endpoint died mid-block. DFSClient-style recovery: when the
  // target DataNode is the casualty, swap it for a fresh node; then resend
  // the whole block from an alive holder.
  BlockInfo& block = state->file->blocks[block_index];
  net::NodeId target = to;
  if (!network_.node_up(to)) {
    const auto it = std::find(block.replicas.begin(), block.replicas.end(), to);
    if (it != block.replicas.end()) block.replicas.erase(it);
    target = pick_replacement(block);
    if (target == net::kInvalidNode) {
      // No replacement DataNode available: accept reduced durability for
      // this block rather than stalling the writer forever.
      finish_pipeline_stage(state, block_index);
      return;
    }
    block.replicas.push_back(target);
  }
  net::NodeId source = net::kInvalidNode;
  if (network_.node_up(state->writer)) {
    source = state->writer;
  } else {
    for (const auto r : block.replicas) {
      if (r != target && network_.node_up(r)) {
        source = r;
        break;
      }
    }
  }
  if (source == net::kInvalidNode) {
    // Writer and every upstream holder are gone: the client is dead and the
    // job layer reruns the task; don't stall the write state machine.
    finish_pipeline_stage(state, block_index);
    return;
  }
  ++faults_.pipeline_rebuilds;
  ++pipeline_rebuilds_by_job_[state->job_id];
  start_pipeline_stage(state, block_index, source, target);
}

void HdfsCluster::finish_pipeline_stage(const std::shared_ptr<WriteState>& state,
                                        std::size_t block_index) {
  if (--state->stages_left > 0) return;
  blocks_in_flight_.erase(&state->file->blocks[block_index]);
  if (block_index + 1 < state->file->blocks.size()) {
    start_block_pipeline(state, block_index + 1);
  } else if (state->on_complete) {
    state->on_complete();
  }
}

void HdfsCluster::read_block(FileId file, std::size_t block_index, net::NodeId reader,
                             std::uint32_t job_id, std::function<void()> on_complete) {
  const FileInfo& info = this->file(file);
  if (block_index >= info.blocks.size()) throw std::out_of_range("hdfs: bad block index");
  const BlockInfo& block = info.blocks[block_index];
  if (block.replicas.empty()) throw std::logic_error("hdfs: block with no replicas");
  if (!network_.node_up(reader)) return;  // the reading attempt died with its node

  // Only alive replicas can serve; when every holder is down (transient
  // outage) the client waits out the retry window and tries again.
  std::vector<net::NodeId> alive;
  for (const auto r : block.replicas) {
    if (network_.node_up(r)) alive.push_back(r);
  }
  if (alive.empty()) {
    ++faults_.hdfs_read_retries;
    network_.simulator().schedule_in(
        config_.hdfs_read_retry_s,
        [this, file, block_index, reader, job_id, cb = std::move(on_complete)]() mutable {
          read_block(file, block_index, reader, job_id, std::move(cb));
        });
    return;
  }

  // Closest alive replica: node-local, then rack-local, then any.
  const auto& topo = network_.topology();
  net::NodeId source = net::kInvalidNode;
  for (const auto r : alive) {
    if (r == reader) {
      source = r;
      break;
    }
  }
  if (source == net::kInvalidNode) {
    std::vector<net::NodeId> rack_local;
    for (const auto r : alive) {
      if (topo.same_rack(r, reader)) rack_local.push_back(r);
    }
    if (!rack_local.empty()) {
      source = rack_local[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(rack_local.size()) - 1))];
    } else {
      source = alive[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1))];
    }
  }

  net::FlowMeta meta;
  meta.src_port = net::ports::kDataNodeXfer;  // DataNode serves the data
  meta.dst_port = net::ports::kEphemeralBase;
  meta.job_id = job_id;
  meta.kind = net::FlowKind::kHdfsRead;
  network_.start_flow(source, reader, util::Bytes::of(block.bytes), meta,
                      [this, file, block_index, reader, job_id,
                       cb = std::move(on_complete)](const net::Flow& flow) mutable {
                        if (flow.aborted) {
                          // Source died mid-transfer: retry against another
                          // replica after the client retry window. (The
                          // partial bytes stay on the wire, as captured.)
                          if (!network_.node_up(reader)) return;
                          ++faults_.hdfs_read_retries;
                          network_.simulator().schedule_in(
                              config_.hdfs_read_retry_s,
                              [this, file, block_index, reader, job_id,
                               cb = std::move(cb)]() mutable {
                                read_block(file, block_index, reader, job_id, std::move(cb));
                              });
                          return;
                        }
                        if (cb) cb();
                      },
                      util::Rate::bps(config_.disk_read_bps));
}

std::size_t HdfsCluster::handle_datanode_failure(net::NodeId node) {
  // Take the node out of service for future placements and reads.
  datanodes_.erase(std::remove(datanodes_.begin(), datanodes_.end(), node), datanodes_.end());
  if (datanodes_.empty()) throw std::logic_error("hdfs: last datanode failed");

  std::size_t transfers = 0;
  // Sorted file order: each re-replication below starts a network transfer,
  // so iteration order is scheduling order and must be platform-independent.
  for (const FileId id : sorted_file_ids()) {
    FileInfo& info = files_.at(id);
    for (auto& block : info.blocks) {
      const auto it = std::find(block.replicas.begin(), block.replicas.end(), node);
      if (it == block.replicas.end()) continue;
      block.replicas.erase(it);
      // A block with an active write pipeline is repaired by pipeline
      // recovery, not the NameNode re-replicator (and its later blocks may
      // not even exist yet).
      if (blocks_in_flight_.count(&block) != 0) continue;
      if (block.replicas.empty()) {
        ++lost_blocks_;
        continue;
      }
      const std::uint64_t before = faults_.rereplications;
      start_rereplication(&block);
      if (faults_.rereplications > before) ++transfers;
    }
  }
  return transfers;
}

void HdfsCluster::start_rereplication(BlockInfo* block) {
  // Re-replicate from an alive surviving replica onto an alive node not yet
  // holding the block (standard NameNode under-replication repair).
  std::vector<net::NodeId> sources;
  for (const auto r : block->replicas) {
    if (network_.node_up(r)) sources.push_back(r);
  }
  const net::NodeId target = pick_replacement(*block);
  if (sources.empty() || target == net::kInvalidNode) return;
  const auto source = sources[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
  net::FlowMeta meta;
  meta.src_port = net::ports::kEphemeralBase;
  meta.dst_port = net::ports::kDataNodeXfer;
  meta.job_id = 0;  // background repair, not attributable to a job
  meta.kind = net::FlowKind::kHdfsWrite;
  network_.start_flow(source, target, util::Bytes::of(block->bytes), meta,
                      [this, block, target](const net::Flow& flow) {
                        if (flow.aborted) {
                          // Repair itself hit a failure; try again after the
                          // retry window with fresh endpoints.
                          network_.simulator().schedule_in(
                              config_.hdfs_read_retry_s,
                              [this, block] { start_rereplication(block); });
                          return;
                        }
                        block->replicas.push_back(target);
                      },
                      util::Rate::bps(config_.disk_write_bps));
  ++faults_.rereplications;
}

std::uint64_t HdfsCluster::pipeline_rebuilds(std::uint32_t job_id) const {
  const auto it = pipeline_rebuilds_by_job_.find(job_id);
  return it == pipeline_rebuilds_by_job_.end() ? 0 : it->second;
}

std::vector<FileId> HdfsCluster::sorted_file_ids() const {
  std::vector<FileId> ids;
  ids.reserve(files_.size());
  // Key collection is order-insensitive; the sort below restores a stable
  // order for the callers. detlint:allow(unordered-iter)
  for (const auto& [id, info] : files_) {
    (void)info;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::map<net::NodeId, std::uint64_t> HdfsCluster::datanode_usage() const {
  std::map<net::NodeId, std::uint64_t> usage;
  for (const auto dn : datanodes_) usage[dn] = 0;
  // Pure commutative accumulation into an ordered map; the files_ walk
  // order cannot reach the result. detlint:allow(unordered-iter)
  for (const auto& [id, info] : files_) {
    (void)id;
    for (const auto& block : info.blocks) {
      for (const auto replica : block.replicas) usage[replica] += block.bytes;
    }
  }
  return usage;
}

double HdfsCluster::storage_imbalance() const {
  const auto usage = datanode_usage();
  if (usage.empty()) return 0.0;
  std::uint64_t max_bytes = 0;
  std::uint64_t total = 0;
  for (const auto& [node, bytes] : usage) {
    (void)node;
    max_bytes = std::max(max_bytes, bytes);
    total += bytes;
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(usage.size());
  return static_cast<double>(max_bytes) / mean;
}

std::size_t HdfsCluster::run_balancer(double threshold, std::size_t max_moves) {
  std::size_t moves = 0;
  while (moves < max_moves) {
    const auto usage = datanode_usage();
    if (usage.size() < 2) break;
    std::uint64_t total = 0;
    for (const auto& [node, bytes] : usage) {
      (void)node;
      total += bytes;
    }
    const double mean = static_cast<double>(total) / static_cast<double>(usage.size());
    net::NodeId over = net::kInvalidNode;
    net::NodeId under = net::kInvalidNode;
    std::uint64_t over_bytes = 0;
    std::uint64_t under_bytes = ~0ull;
    for (const auto& [node, bytes] : usage) {
      if (bytes > over_bytes) {
        over = node;
        over_bytes = bytes;
      }
      if (bytes < under_bytes) {
        under = node;
        under_bytes = bytes;
      }
    }
    if (over == net::kInvalidNode || under == net::kInvalidNode || over == under) break;
    if (static_cast<double>(over_bytes) <= (1.0 + threshold) * mean ||
        static_cast<double>(under_bytes) >= (1.0 - threshold) * mean) {
      break;  // within balance band
    }
    // Pick a block on `over` whose replica set does not already include
    // `under`, preferring the largest movable block (fastest convergence).
    BlockInfo* candidate = nullptr;
    // Sorted file order: ties between equal-sized movable blocks fall to
    // the first file visited, which must not depend on bucket order.
    for (const FileId id : sorted_file_ids()) {
      FileInfo& info = files_.at(id);
      for (auto& block : info.blocks) {
        const bool on_over = std::find(block.replicas.begin(), block.replicas.end(), over) !=
                             block.replicas.end();
        const bool on_under = std::find(block.replicas.begin(), block.replicas.end(), under) !=
                              block.replicas.end();
        if (on_over && !on_under && (candidate == nullptr || block.bytes > candidate->bytes)) {
          candidate = &block;
        }
      }
    }
    if (candidate == nullptr) break;
    // Metadata move now; bytes move asynchronously over the wire.
    candidate->replicas.erase(
        std::find(candidate->replicas.begin(), candidate->replicas.end(), over));
    candidate->replicas.push_back(under);
    net::FlowMeta meta;
    meta.src_port = net::ports::kEphemeralBase;
    meta.dst_port = net::ports::kDataNodeXfer;
    meta.job_id = 0;  // background, like re-replication
    meta.kind = net::FlowKind::kHdfsWrite;
    network_.start_flow(over, under, util::Bytes::of(candidate->bytes), meta, nullptr,
                        util::Rate::bps(config_.disk_write_bps));
    ++moves;
  }
  return moves;
}

const FileInfo& HdfsCluster::file(FileId id) const {
  const auto it = files_.find(id);
  if (it == files_.end()) throw std::out_of_range("hdfs: unknown file id");
  return it->second;
}

const FileInfo& HdfsCluster::file_by_name(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) throw std::out_of_range("hdfs: unknown file: " + name);
  return file(it->second);
}

bool HdfsCluster::has_file(const std::string& name) const { return by_name_.count(name) != 0; }

bool HdfsCluster::is_local(FileId file_id, std::size_t block_index, net::NodeId node) const {
  const auto& block = file(file_id).blocks.at(block_index);
  return std::find(block.replicas.begin(), block.replicas.end(), node) != block.replicas.end();
}

}  // namespace keddah::hadoop
