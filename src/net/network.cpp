#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "util/check.h"
#include "util/log.h"

namespace keddah::net {

namespace {
/// Residual payload below this many bits counts as drained. A popped flow's
/// post-materialization residue is floating-point noise (a few ulps of the
/// payload), never real payload — on_completion_event audits that.
constexpr double kDrainEpsilonBits = 1e-2;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bundle key of a path given as `len` arc indices, never 0 (FlatIndex's
/// empty key). Collisions are harmless — every hit is checked arc by arc.
template <typename IndexAt>
std::uint64_t path_hash(std::size_t len, IndexAt index_at) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ len;
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ index_at(i)) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h == 0 ? 1 : h;
}

/// Inverse of Arc::index() (link * 2 + dir).
Arc arc_at(std::uint32_t index) { return Arc{index / 2, static_cast<std::uint8_t>(index % 2)}; }
}  // namespace

const char* flow_kind_name(FlowKind kind) {
  switch (kind) {
    case FlowKind::kHdfsRead:
      return "hdfs_read";
    case FlowKind::kShuffle:
      return "shuffle";
    case FlowKind::kHdfsWrite:
      return "hdfs_write";
    case FlowKind::kControl:
      return "control";
    case FlowKind::kOther:
      return "other";
  }
  return "unknown";
}

Network::Network(sim::Simulator& sim, Topology topology, NetworkOptions options)
    : sim_(sim), topology_(std::move(topology)), options_(options) {
  const std::size_t n_arcs = topology_.num_arcs();
  arcs_.resize(n_arcs);
  for (LinkId l = 0; l < topology_.num_links(); ++l) {
    const double cap = topology_.link(l).capacity.bps();
    arcs_[Arc{l, 0}.index()].capacity_bps = cap;
    arcs_[Arc{l, 1}.index()].capacity_bps = cap;
  }
  arc_visit_.assign(n_arcs, 0);
  arc_bits_.assign(n_arcs, 0.0);
  // Arc-bounded solver scratch is pre-sized once here; the bundle-bounded
  // scratch buffers grow on first use and then retain capacity, so a
  // steady-state solve allocates nothing.
  scratch_arc_stack_.reserve(n_arcs);
  scratch_local_arcs_.reserve(n_arcs);
  scratch_residual_.assign(n_arcs, 0.0);
  scratch_unfrozen_.assign(n_arcs, 0);
  node_down_.assign(topology_.num_nodes(), false);
  reference_mode_ = options_.reference_scheduler;
  const char* env = std::getenv("KEDDAH_REFERENCE_SCHEDULER");
  if (env != nullptr && *env != '\0' && std::string_view(env) != "0") reference_mode_ = true;
}

void Network::set_node_down(NodeId node) {
  if (node >= node_down_.size()) throw std::out_of_range("network: bad node id");
  node_down_[node] = true;
}

void Network::set_node_up(NodeId node) {
  if (node >= node_down_.size()) throw std::out_of_range("network: bad node id");
  node_down_[node] = false;
}

bool Network::node_up(NodeId node) const {
  return node < node_down_.size() ? !node_down_[node] : true;
}

void Network::set_link_capacity(LinkId link, util::Rate capacity) {
  if (topology_.set_link_capacity(link, capacity)) {
    for (std::uint8_t dir = 0; dir < 2; ++dir) {
      const std::uint32_t ai = Arc{link, dir}.index();
      arcs_[ai].capacity_bps = capacity.bps();
      mark_dirty(ai);
    }
  }
  // A no-op rewrite leaves the dirty set empty: reshare() re-arms and
  // changes no rate (the property tests pin this down).
  reshare();
}

void Network::account_offered(const Flow& flow) {
  offered_bytes_ += flow.bytes;
  class_totals_[static_cast<std::size_t>(flow.meta.kind)].offered += flow.bytes;
  limbo(flow) += flow.bytes;  // in setup/loopback transit until activation
}

void Network::account_delivered(const Flow& flow) {
  delivered_bytes_ += flow.bytes;
  class_totals_[static_cast<std::size_t>(flow.meta.kind)].delivered += flow.bytes;
}

void Network::account_aborted(const Flow& flow, util::Bytes shortfall) {
  ++aborted_flows_;
  aborted_bytes_ += shortfall;
  class_totals_[static_cast<std::size_t>(flow.meta.kind)].aborted += shortfall;
}

void Network::audit_conservation() const {
  // In-flight payload of flows currently holding capacity, per class.
  std::array<double, kNumFlowKinds> active_bytes{};
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (!slot_in_use_[slot]) continue;
    active_bytes[static_cast<std::size_t>(slot_meta_[slot].kind)] += slot_bytes_[slot].value();
  }
  double offered = 0.0, resolved = 0.0;
  for (std::size_t k = 0; k < kNumFlowKinds; ++k) {
    const ClassTotals& t = class_totals_[k];
    const double lhs = t.offered.value();
    const double rhs =
        t.delivered.value() + t.aborted.value() + limbo_[k].value() + active_bytes[k];
    const double tol = 1e-6 * std::max(1.0, lhs) + 1e-3;
    if (std::fabs(lhs - rhs) > tol) {
      throw util::AuditError(std::string("network conservation breach in class ") +
                             flow_kind_name(static_cast<FlowKind>(k)) + ": offered " +
                             std::to_string(lhs) + " B != delivered+aborted+in-flight " +
                             std::to_string(rhs) + " B");
    }
    offered += lhs;
    resolved += rhs;
  }
  const double tol = 1e-6 * std::max(1.0, offered) + 1e-3;
  if (std::fabs(offered - resolved) > tol) {
    throw util::AuditError("network conservation breach in aggregate ledger");
  }
  KEDDAH_AUDIT(std::fabs(offered_bytes_.value() - offered) <= tol,
               "aggregate offered counter out of sync with per-class ledger");
}

void Network::audit_scheduler() const {
  const auto fail = [](const std::string& what) {
    throw util::AuditError("network scheduler: " + what);
  };

  std::size_t in_use = 0;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (!slot_in_use_[slot]) continue;
    ++in_use;
    const std::uint32_t* found = slot_index_.find(slot_id_[slot]);
    if (found == nullptr || *found != slot) fail("slot index missing an active flow");
    if (slot_heap_pos_[slot] == kNotInHeap ||
        static_cast<std::size_t>(slot_heap_pos_[slot]) >= finish_heap_.size() ||
        finish_heap_[slot_heap_pos_[slot]] != slot) {
      fail("heap_pos out of sync");
    }
  }
  if (in_use != slot_index_.size()) fail("slot index size != live arena slots");
  if (in_use != arena_.live) fail("live-slot counter != live arena slots");
  if (finish_heap_.size() != in_use) fail("completion heap size != live arena slots");
  for (std::size_t pos = 1; pos < finish_heap_.size(); ++pos) {
    if (finishes_before(finish_heap_[pos], finish_heap_[(pos - 1) / 2])) {
      fail("completion heap order violated");
    }
  }
  const std::size_t n_bundles = bundle_refs_.size();
  std::size_t dirty_flags = 0;
  for (std::uint32_t ai = 0; ai < arcs_.size(); ++ai) {
    if (arcs_[ai].dirty) ++dirty_flags;
    for (std::uint32_t pos = 0; pos < arcs_[ai].members.size(); ++pos) {
      const auto [b, pi] = arcs_[ai].members[pos];
      if (b >= n_bundles || bundle_refs_[b] == 0) fail("member list holds a dead bundle");
      if (pi >= bundle_arcs_[b].size() || bundle_arcs_[b][pi] != std::make_pair(ai, pos)) {
        fail("member list entry inconsistent with its bundle's path");
      }
    }
  }
  std::size_t frontier = 0;
  for (const std::uint32_t ai : dirty_arcs_) {
    if (!arcs_[ai].dirty) fail("dirty frontier holds a clean arc");
    ++frontier;
  }
  if (frontier != dirty_flags) fail("dirty flags out of sync with frontier");

  // Path bundles: each live bundle's member list holds exactly its refcount
  // of live slots mapped to it (so every live slot sits on one list once),
  // each arc entry's stored position points back at it, capped bundles stay
  // unindexed singletons, and the index holds exactly the live uncapped
  // bundles.
  const auto same_arcs = [this](std::uint32_t a, std::uint32_t b) {
    return std::equal(bundle_arcs_[a].begin(), bundle_arcs_[a].end(), bundle_arcs_[b].begin(),
                      bundle_arcs_[b].end(),
                      [](const auto& x, const auto& y) { return x.first == y.first; });
  };
  std::vector<std::uint32_t> listed(slot_id_.size(), 0);
  std::size_t free_bundles = 0, indexed = 0;
  for (std::uint32_t b = 0; b < n_bundles; ++b) {
    if (bundle_refs_[b] == 0) {
      ++free_bundles;
      if (bundle_first_[b] != kNoSlot) fail("freed bundle still lists a slot");
      continue;
    }
    std::uint32_t count = 0, prev = kNoSlot;
    for (std::uint32_t slot = bundle_first_[b]; slot != kNoSlot; slot = slot_next_[slot]) {
      if (slot >= slot_id_.size() || !slot_in_use_[slot]) fail("bundle lists a dead slot");
      if (slot_bundle_[slot] != b) fail("bundle lists a slot mapped elsewhere");
      if (slot_prev_[slot] != prev) fail("bundle member list back-link broken");
      if (++listed[slot] > 1 || ++count > bundle_refs_[b]) fail("bundle lists a slot twice");
      prev = slot;
    }
    if (count != bundle_refs_[b]) fail("bundle refcount != its member list's length");
    const auto& column = bundle_arcs_[b];
    for (std::uint32_t i = 0; i < column.size(); ++i) {
      const auto [ai, pos] = column[i];
      if (ai >= arcs_.size() || pos >= arcs_[ai].members.size() ||
          arcs_[ai].members[pos] != std::make_pair(b, i)) {
        fail("bundle arc position out of sync with the arc's member list");
      }
    }
    const bool capped = bundle_capped_slot_[b] != kNoSlot;
    if (capped && bundle_refs_[b] > 1) fail("capped bundle with multiplicity > 1");
    if (capped && bundle_hash_[b] != 0) fail("capped bundle indexed");
    if (capped) continue;
    const std::uint64_t hash =
        path_hash(column.size(), [&column](std::size_t i) { return column[i].first; });
    const std::uint32_t* found = bundle_index_.find(hash);
    if (bundle_hash_[b] != 0) {
      ++indexed;
      if (bundle_hash_[b] != hash || found == nullptr || *found != b) {
        fail("uncapped bundle missing from the path index");
      }
    } else if (found == nullptr || *found == b || same_arcs(*found, b)) {
      fail("unindexed uncapped bundle without a colliding path");  // collision fallback only
    }
  }
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (!slot_in_use_[slot]) continue;
    if (listed[slot] != 1) fail("live slot missing from its bundle's member list");
    const std::uint32_t b = slot_bundle_[slot];
    const bool capped = std::isfinite(slot_rate_cap_[slot]);
    if (capped != (bundle_capped_slot_[b] != kNoSlot) ||
        (capped && bundle_capped_slot_[b] != slot)) {
      fail("capped flow not in its own singleton bundle");
    }
  }
  if (indexed != bundle_index_.size()) fail("path index holds a dead or capped bundle");
  if (free_bundles != free_bundles_.size()) fail("free bundle list != bundles with no members");
}

double Network::arc_bytes(Arc arc) const {
  // Materialize lazy progress so the counter reflects now(), not each
  // flow's last rate-change time.
  const_cast<Network*>(this)->sync_progress();
  return arc_bits_.at(arc.index()) / 8.0;
}

double Network::link_bytes(LinkId link) const {
  return arc_bytes(Arc{link, 0}) + arc_bytes(Arc{link, 1});
}

double Network::arc_utilization(Arc arc) const {
  const double elapsed = sim_.now();
  if (elapsed <= 0.0) return 0.0;
  const_cast<Network*>(this)->sync_progress();
  return arc_bits_.at(arc.index()) / (topology_.link(arc.link).capacity.bps() * elapsed);
}

void Network::add_completion_tap(Tap tap) { completion_taps_.push_back(std::move(tap)); }

void Network::add_start_tap(Tap tap) { start_taps_.push_back(std::move(tap)); }

const Flow& Network::fill_view(std::uint32_t slot) const {
  view_flow_.id = slot_id_[slot];
  view_flow_.src = slot_src_[slot];
  view_flow_.dst = slot_dst_[slot];
  view_flow_.bytes = slot_bytes_[slot];
  view_flow_.meta = slot_meta_[slot];
  view_flow_.submit_time = slot_submit_[slot];
  view_flow_.start_time = slot_start_[slot];
  view_flow_.end_time = 0.0;
  view_flow_.rate_bps = slot_rate_[slot];
  view_flow_.rate_cap_bps = slot_rate_cap_[slot];
  view_flow_.remaining = slot_remaining_[slot];
  view_flow_.path.clear();
  for (const auto& entry : bundle_arcs_[slot_bundle_[slot]]) {
    view_flow_.path.push_back(arc_at(entry.first));
  }
  view_flow_.done = false;
  view_flow_.aborted = false;
  return view_flow_;
}

const Flow* Network::find_flow(FlowId id) const {
  const std::uint32_t* slot = slot_index_.find(id);
  return slot == nullptr ? nullptr : &fill_view(*slot);
}

void Network::visit_active_flows(const std::function<void(const Flow&)>& fn) const {
  std::vector<std::uint32_t> slots;
  slots.reserve(slot_index_.size());
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot]) slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slot_id_[a] < slot_id_[b];
  });
  for (const std::uint32_t slot : slots) fn(fill_view(slot));
}

double Network::aggregate_rate_bps() const {
  double total = 0.0;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot]) total += slot_rate_[slot];
  }
  return total;
}

// keddah:hot(start-flow)
FlowId Network::start_flow(NodeId src, NodeId dst, util::Bytes bytes, FlowMeta meta,
                           CompletionCallback on_complete, util::Rate rate_cap) {
  if (bytes.value() < 0.0) throw std::invalid_argument("network: negative flow size");
  const FlowId id = next_flow_id_++;

  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.bytes = bytes;
  flow.meta = meta;
  flow.submit_time = sim_.now();
  flow.remaining = bytes;
  // A non-positive cap means "uncapped": callers that compute a cap of 0.0
  // (e.g. a disabled throttle) must not end up with a 1 bps near-deadlock.
  flow.rate_cap_bps =
      rate_cap.bps() > 0.0 ? rate_cap.bps() : std::numeric_limits<double>::infinity();
  account_offered(flow);

  if (flow.loopback()) {
    // Local transfer: never touches the fabric; drain at the loopback rate.
    flow.start_time = sim_.now();
    const double duration = flow.remaining.bits() / options_.loopback.bps();
    flow.rate_bps = options_.loopback.bps();
    for (const auto& tap : start_taps_) tap(flow);
    sim_.schedule_in(duration, [this, flow, cb = std::move(on_complete)]() mutable {
      flow.end_time = sim_.now();
      flow.remaining = util::Bytes(0.0);
      flow.done = true;
      limbo(flow) -= flow.bytes;
      account_delivered(flow);
      for (const auto& tap : completion_taps_) tap(flow);
      if (cb) cb(flow);
      if constexpr (util::kAuditEnabled) audit_conservation();
    });
    return id;
  }

  flow.path = topology_.route(src, dst, id);
  // Routed once: the latency sum is kept with the slot for the delivery tail.
  const double latency = options_.model_latency ? topology_.path_latency(flow.path).value() : 0.0;
  double ramp = 0.0;
  if (options_.model_slow_start && latency > 0.0) {
    // Slow-start approximation: the window doubles each RTT until the
    // payload is covered. The ramp rounds are modelled as transfer time at
    // ~zero rate before the flow enters fair sharing, so they appear in the
    // flow's duration (first byte leaves on time, last byte is late).
    const double rounds = std::ceil(
        std::log2(1.0 + bytes.value() / std::max(options_.initial_window.value(), 1.0)));
    ramp = 2.0 * latency * std::min(rounds, 10.0);
  }

  // Connection establishment: first byte moves one path latency after submit.
  sim_.schedule_in(latency + ramp,
                   [this, flow = std::move(flow), latency, ramp,
                    cb = std::move(on_complete)]() mutable {
                     flow.start_time = sim_.now() - ramp;
                     if (!node_up(flow.src) || !node_up(flow.dst)) {
                       // Endpoint died during connection setup: the connect
                       // fails and no payload ever moves.
                       limbo(flow) -= flow.bytes;
                       account_aborted(flow, flow.bytes);
                       flow.bytes = util::Bytes(0.0);
                       flow.remaining = util::Bytes(0.0);
                       flow.done = true;
                       flow.aborted = true;
                       flow.end_time = sim_.now();
                       for (const auto& tap : completion_taps_) tap(flow);
                       if (cb) cb(flow);
                       if constexpr (util::kAuditEnabled) audit_conservation();
                       return;
                     }
                     for (const auto& tap : start_taps_) tap(flow);
                     limbo(flow) -= flow.bytes;  // now held in the active set
                     const std::uint32_t slot = allocate_slot();
                     slot_id_[slot] = flow.id;
                     slot_src_[slot] = flow.src;
                     slot_dst_[slot] = flow.dst;
                     slot_bytes_[slot] = flow.bytes;
                     slot_remaining_[slot] = flow.remaining;
                     // Rate sentinel: solved rates are never negative, so the
                     // first assign_rate after insertion always fires (even a
                     // solved rate of 0.0 must install a projected finish).
                     slot_rate_[slot] = -1.0;
                     slot_rate_cap_[slot] = flow.rate_cap_bps;
                     slot_submit_[slot] = flow.submit_time;
                     slot_start_[slot] = flow.start_time;
                     slot_latency_[slot] = latency;
                     slot_last_update_[slot] = sim_.now();
                     slot_finish_[slot] = kInf;
                     slot_meta_[slot] = flow.meta;
                     slot_heap_pos_[slot] = kNotInHeap;
                     slot_callback_[slot] = std::move(cb);
                     slot_in_use_[slot] = 1;
                     ++arena_.live;
                     arena_.peak_live = std::max(arena_.peak_live, arena_.live);
                     slot_index_.insert(flow.id, slot);
                     attach_bundle(slot, flow.path);
                     heap_insert(slot);
                     reshare();
                   });
  return id;
}

// --- lazy progress ---------------------------------------------------------

// keddah:hot(materialize)
void Network::materialize(std::uint32_t slot) {
  const sim::Time now = sim_.now();
  const double dt = now - slot_last_update_[slot];
  if (dt > 0.0 && slot_rate_[slot] > 0.0) {
    const util::Bytes moved = std::min(
        slot_remaining_[slot], util::Rate::bps(slot_rate_[slot]) * util::Seconds(dt));
    slot_remaining_[slot] -= moved;  // audited against NaN/negative under KEDDAH_CHECK
    for (const auto& entry : bundle_arcs_[slot_bundle_[slot]]) {
      arc_bits_[entry.first] += moved.bits();
    }
  }
  slot_last_update_[slot] = now;
}

void Network::sync_progress() {
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot]) materialize(slot);
  }
}

// --- membership / dirty frontier -------------------------------------------

void Network::mark_dirty(std::uint32_t arc_index) {
  if (!arcs_[arc_index].dirty) {
    arcs_[arc_index].dirty = true;
    dirty_arcs_.push_back(arc_index);
  }
}

std::uint32_t Network::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ++arena_.slot_reuses;
    return slot;
  }
  // Grow every column in lockstep; the arena height only ever increases.
  const std::uint32_t slot = static_cast<std::uint32_t>(slot_id_.size());
  slot_id_.push_back(kInvalidFlow);
  slot_src_.push_back(NodeId{0});
  slot_dst_.push_back(NodeId{0});
  slot_bytes_.emplace_back();
  slot_remaining_.emplace_back();
  slot_rate_.push_back(0.0);
  slot_rate_cap_.push_back(kInf);
  slot_submit_.push_back(0.0);
  slot_start_.push_back(0.0);
  slot_latency_.push_back(0.0);
  slot_last_update_.push_back(0.0);
  slot_finish_.push_back(kInf);
  slot_meta_.emplace_back();
  slot_heap_pos_.push_back(kNotInHeap);
  slot_in_use_.push_back(0);
  slot_callback_.emplace_back();
  slot_bundle_.push_back(0);
  slot_next_.push_back(kNoSlot);
  slot_prev_.push_back(kNoSlot);
  return slot;
}

std::uint32_t Network::allocate_bundle() {
  if (!free_bundles_.empty()) {
    const std::uint32_t b = free_bundles_.back();
    free_bundles_.pop_back();
    return b;
  }
  // Grow every bundle column in lockstep; the table height only ever
  // increases, and the free list never outgrows it.
  const std::uint32_t b = static_cast<std::uint32_t>(bundle_refs_.size());
  bundle_refs_.push_back(0);
  bundle_arcs_.emplace_back();
  bundle_first_.push_back(kNoSlot);
  bundle_hash_.push_back(0);
  bundle_capped_slot_.push_back(kNoSlot);
  bundle_visit_.push_back(0);
  bundle_virtual_.push_back(0);
  free_bundles_.reserve(bundle_refs_.capacity());
  return b;
}

// keddah:hot(bundle-membership)
void Network::attach_bundle(std::uint32_t slot, const std::vector<Arc>& path) {
  const std::uint32_t len = static_cast<std::uint32_t>(path.size());
  const bool capped = std::isfinite(slot_rate_cap_[slot]);
  std::uint64_t hash = 0;
  const std::uint32_t* live = nullptr;  // the live bundle with this path
  if (!capped) {
    hash = path_hash(len, [&path](std::size_t i) { return path[i].index(); });
    live = bundle_index_.find(hash);
    if (live != nullptr &&
        !std::equal(bundle_arcs_[*live].begin(), bundle_arcs_[*live].end(), path.begin(),
                    path.end(),
                    [](const auto& entry, const Arc& arc) { return entry.first == arc.index(); })) {
      live = nullptr;
      hash = 0;  // a different path under the same hash: bundle it alone
    }
  }
  const std::uint32_t b = live != nullptr ? *live : allocate_bundle();
  if (live == nullptr) {
    // Founding is the only time a flow's arrival touches the arc lists.
    bundle_hash_[b] = hash;
    bundle_capped_slot_[b] = capped ? slot : kNoSlot;
    auto& column = bundle_arcs_[b];
    column.resize(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      auto& members = arcs_[path[i].index()].members;
      column[i] = {path[i].index(), static_cast<std::uint32_t>(members.size())};
      // archlint:allow(hot-push-back): founding only; lists keep their capacity
      members.emplace_back(b, i);
    }
    if (hash != 0) bundle_index_.insert(hash, b);
  }
  ++bundle_refs_[b];
  slot_bundle_[slot] = b;
  slot_prev_[slot] = kNoSlot;
  slot_next_[slot] = bundle_first_[b];
  if (bundle_first_[b] != kNoSlot) slot_prev_[bundle_first_[b]] = slot;
  bundle_first_[b] = slot;
  // A new member changes every arc's load, whether or not it founded.
  for (const Arc& arc : path) mark_dirty(arc.index());
}

// keddah:hot(bundle-membership)
void Network::release_bundle(std::uint32_t slot) {
  const std::uint32_t b = slot_bundle_[slot];
  const std::uint32_t prev = slot_prev_[slot];
  const std::uint32_t next = slot_next_[slot];
  (prev != kNoSlot ? slot_next_[prev] : bundle_first_[b]) = next;
  if (next != kNoSlot) slot_prev_[next] = prev;
  for (const auto& entry : bundle_arcs_[b]) mark_dirty(entry.first);
  if (--bundle_refs_[b] > 0) return;
  // Free the bundle: swap-remove it from each arc's member list and point
  // the entry moved into its place at its new position.
  for (const auto& [ai, pos] : bundle_arcs_[b]) {
    auto& members = arcs_[ai].members;
    const auto moved = members.back();
    members[pos] = moved;
    members.pop_back();
    bundle_arcs_[moved.first][moved.second].second = pos;
  }
  if (bundle_hash_[b] != 0) bundle_index_.erase(bundle_hash_[b]);
  free_bundles_.push_back(b);
}

std::pair<Flow, Network::CompletionCallback> Network::detach(std::uint32_t slot) {
  release_bundle(slot);
  heap_erase(slot);
  slot_index_.erase(slot_id_[slot]);
  slot_in_use_[slot] = 0;
  --arena_.live;
  Flow flow;
  flow.id = slot_id_[slot];
  flow.src = slot_src_[slot];
  flow.dst = slot_dst_[slot];
  flow.bytes = slot_bytes_[slot];
  flow.meta = slot_meta_[slot];
  flow.submit_time = slot_submit_[slot];
  flow.start_time = slot_start_[slot];
  flow.rate_bps = slot_rate_[slot];
  flow.rate_cap_bps = slot_rate_cap_[slot];
  flow.remaining = slot_remaining_[slot];
  // flow.path stays empty: nothing downstream of detach reads it, and
  // copying it out of the bundle would be the hot path's only allocation.
  CompletionCallback cb = std::move(slot_callback_[slot]);
  slot_callback_[slot] = nullptr;
  free_slots_.push_back(slot);
  return {std::move(flow), std::move(cb)};
}

// --- fair sharing ----------------------------------------------------------

// keddah:hot(reshare)
void Network::reshare() {
  ++sched_stats_.reshares;
  if (reference_mode_) compute_max_min_rates_reference();
  if (dirty_arcs_.empty()) {
    ++sched_stats_.empty_reshares;
  } else {
    solve_dirty();
  }
  rearm_completion();
}

void Network::compute_max_min_rates_reference() {
  for (std::uint32_t ai = 0; ai < arcs_.size(); ++ai) {
    if (!arcs_[ai].members.empty()) mark_dirty(ai);
  }
}

void Network::assign_rate(std::uint32_t slot, double rate_bps) {
  // Bit-identical rate: nothing moved, the projected finish is still exact.
  // This skip is what keeps the reference scheduler's full sweeps from
  // perturbing flows whose allocation did not change.
  if (slot_rate_[slot] == rate_bps) return;
  materialize(slot);
  slot_rate_[slot] = rate_bps;
  slot_finish_[slot] = sim_.now() + slot_remaining_[slot].bits() / std::max(rate_bps, 1e-9);
  heap_update(slot);
  ++sched_stats_.flows_rerated;
}

// keddah:hot(solve)
void Network::solve_dirty() {
  ++sched_stats_.solves;
  ++visit_epoch_;
  const std::uint64_t epoch = visit_epoch_;

  scratch_arc_stack_.clear();
  scratch_local_arcs_.clear();
  scratch_bundles_.clear();
  scratch_capped_.clear();
  // A component holds at most every bundle id: with this reserve the
  // pushes below never reallocate mid-solve.
  scratch_bundles_.reserve(bundle_refs_.size());
  scratch_capped_.reserve(bundle_refs_.size());

  // Seed the flood fill with the populated dirty arcs; arcs whose last
  // member departed (or that were never populated) just get their flag
  // cleared — no flow's rate can depend on them.
  for (const std::uint32_t ai : dirty_arcs_) {
    arcs_[ai].dirty = false;
    if (!arcs_[ai].members.empty() && arc_visit_[ai] != epoch) {
      arc_visit_[ai] = epoch;
      scratch_arc_stack_.push_back(ai);
    }
  }
  dirty_arcs_.clear();

  // Flood fill the connected component(s) of the bundle/arc sharing graph
  // that contain a dirty arc. Rates of flows outside these components are
  // unaffected by whatever changed (max-min decomposes exactly over
  // components), so their cached values stand. The per-arc member lists
  // name bundles; a bundle's path is walked the first time it turns up.
  std::size_t n_flows = 0;
  std::size_t n_bundle_arcs = 0;
  while (!scratch_arc_stack_.empty()) {
    const std::uint32_t ai = scratch_arc_stack_.back();
    scratch_arc_stack_.pop_back();
    scratch_local_arcs_.push_back(ai);
    for (const auto& [b, pi] : arcs_[ai].members) {
      if (bundle_visit_[b] == epoch) continue;
      bundle_visit_[b] = epoch;
      scratch_bundles_.push_back(b);
      if (bundle_capped_slot_[b] != kNoSlot) scratch_capped_.push_back(b);
      n_flows += bundle_refs_[b];
      n_bundle_arcs += bundle_arcs_[b].size();
      for (const auto& [aj, pos] : bundle_arcs_[b]) {
        if (arc_visit_[aj] != epoch) {
          arc_visit_[aj] = epoch;
          scratch_arc_stack_.push_back(aj);
        }
      }
    }
  }

  sched_stats_.links_touched += scratch_local_arcs_.size();
  {
    // Histogram bucket i holds solves that touched [4^i, 4^(i+1)) arcs.
    std::size_t n = scratch_local_arcs_.size();
    std::size_t bucket = 0;
    while (n >= 4 && bucket + 1 < sched_stats_.solve_size_hist.size()) {
      n >>= 2;
      ++bucket;
    }
    ++sched_stats_.solve_size_hist[bucket];
  }
  if (scratch_bundles_.empty()) return;
  sched_stats_.flows_visited += n_flows;
  sched_stats_.bundles_visited += scratch_bundles_.size();

  // Canonical order: real arcs by global arc index, then virtual cap arcs
  // by flow id; no flow sort. Heap ties break on this key, so the solve is
  // a pure function of (membership, capacities) — independent of how the
  // component was discovered — which is what makes incremental and
  // reference allocations bit-identical. Only the capped bundles (each a
  // single flow) need sorting to number their virtual arcs.
  std::sort(scratch_capped_.begin(), scratch_capped_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slot_id_[bundle_capped_slot_[a]] < slot_id_[bundle_capped_slot_[b]];
  });
  const std::uint32_t n_global = static_cast<std::uint32_t>(arcs_.size());
  const std::size_t n_keys = n_global + scratch_capped_.size();
  auto& residual = scratch_residual_;
  auto& unfrozen = scratch_unfrozen_;
  if (residual.size() < n_keys) {
    residual.resize(n_keys, 0.0);
    unfrozen.resize(n_keys, 0);
  }
  for (const std::uint32_t ai : scratch_local_arcs_) {
    residual[ai] = arcs_[ai].capacity_bps;
    unfrozen[ai] = 0;
  }
  for (const std::uint32_t b : scratch_bundles_) {
    for (const auto& entry : bundle_arcs_[b]) unfrozen[entry.first] += bundle_refs_[b];
  }
  for (std::size_t rank = 0; rank < scratch_capped_.size(); ++rank) {
    const std::uint32_t b = scratch_capped_[rank];
    const std::uint32_t v = n_global + static_cast<std::uint32_t>(rank);
    bundle_virtual_[b] = v;
    residual[v] = slot_rate_cap_[bundle_capped_slot_[b]];
    unfrozen[v] = 1;
  }

  // Progressive filling, one bottleneck arc per round, driven by a lazy
  // min-heap of (share, arc key). Exact comparisons throughout: ties break
  // on the key, i.e. the canonical order above. Every share change pushes a
  // fresh entry, so each arc's current share always has a live entry and
  // stale ones are skipped.
  const auto arc_share = [&](std::uint32_t key) {
    return std::max(0.0, residual[key]) / static_cast<double>(unfrozen[key]);
  };
  using ShareEntry = std::pair<double, std::uint32_t>;
  const auto later = [](const ShareEntry& a, const ShareEntry& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  };
  auto& share_heap = scratch_share_heap_;
  share_heap.clear();
  // One entry per arc up front plus at most one per (bundle, path arc)
  // freeze: the heap never outgrows this reserve.
  share_heap.reserve(scratch_local_arcs_.size() + scratch_capped_.size() + n_bundle_arcs);
  for (const std::uint32_t ai : scratch_local_arcs_) share_heap.emplace_back(arc_share(ai), ai);
  for (std::uint32_t v = n_global; v < n_keys; ++v) share_heap.emplace_back(arc_share(v), v);
  std::make_heap(share_heap.begin(), share_heap.end(), later);

  std::size_t remaining_bundles = scratch_bundles_.size();
  while (remaining_bundles > 0) {
    assert(!share_heap.empty());
    std::pop_heap(share_heap.begin(), share_heap.end(), later);
    const auto [share, key] = share_heap.back();
    share_heap.pop_back();
    if (unfrozen[key] == 0 || share != arc_share(key)) continue;

    // Freezing a bundle of k flows is freezing its flows one by one: the
    // same share comes off each arc's residual k times, in a scalar loop
    // (k * share would round differently). One fresh entry per arc
    // replaces the k intermediate ones; only the last was ever live.
    const auto freeze = [&](std::uint32_t b) {
      bundle_visit_[b] = 0;  // frozen: out of this solve's unfrozen set
      --remaining_bundles;
      const std::uint32_t k = bundle_refs_[b];
      for (const auto& [aj, pos] : bundle_arcs_[b]) {
        double r = residual[aj];
        for (std::uint32_t j = 0; j < k; ++j) r -= share;
        residual[aj] = r;
        unfrozen[aj] -= k;
        if (aj != key && unfrozen[aj] > 0) {
          share_heap.emplace_back(arc_share(aj), aj);
          std::push_heap(share_heap.begin(), share_heap.end(), later);
        }
      }
      // A capped singleton's virtual arc has no other member.
      if (bundle_capped_slot_[b] != kNoSlot) unfrozen[bundle_virtual_[b]] = 0;
    };
    if (key < n_global) {
      // Every unfrozen bundle on the bottleneck freezes this round, in
      // member order; its flows are rated together (bundle-major), which
      // fixes the completion heap's sift order.
      for (const auto& [b, pi] : arcs_[key].members) {
        if (bundle_visit_[b] != epoch) continue;
        freeze(b);
        for (std::uint32_t slot = bundle_first_[b]; slot != kNoSlot; slot = slot_next_[slot]) {
          assign_rate(slot, share);
        }
      }
    } else {
      const std::uint32_t b = scratch_capped_[key - n_global];
      freeze(b);
      assign_rate(bundle_capped_slot_[b], share);
    }
  }
}

// --- completion heap -------------------------------------------------------

bool Network::finishes_before(std::uint32_t a, std::uint32_t b) const {
  if (slot_finish_[a] != slot_finish_[b]) return slot_finish_[a] < slot_finish_[b];
  return slot_id_[a] < slot_id_[b];
}

void Network::heap_place(std::size_t pos, std::uint32_t slot) {
  finish_heap_[pos] = slot;
  slot_heap_pos_[slot] = static_cast<std::int32_t>(pos);
}

void Network::heap_sift_up(std::size_t pos) {
  const std::uint32_t slot = finish_heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!finishes_before(slot, finish_heap_[parent])) break;
    heap_place(pos, finish_heap_[parent]);
    ++sched_stats_.heap_ops;
    pos = parent;
  }
  heap_place(pos, slot);
}

void Network::heap_sift_down(std::size_t pos) {
  const std::uint32_t slot = finish_heap_[pos];
  const std::size_t n = finish_heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && finishes_before(finish_heap_[child + 1], finish_heap_[child])) ++child;
    if (!finishes_before(finish_heap_[child], slot)) break;
    heap_place(pos, finish_heap_[child]);
    ++sched_stats_.heap_ops;
    pos = child;
  }
  heap_place(pos, slot);
}

void Network::heap_insert(std::uint32_t slot) {
  finish_heap_.push_back(slot);
  slot_heap_pos_[slot] = static_cast<std::int32_t>(finish_heap_.size() - 1);
  heap_sift_up(finish_heap_.size() - 1);
}

void Network::heap_erase(std::uint32_t slot) {
  const std::int32_t pos = slot_heap_pos_[slot];
  if (pos == kNotInHeap) return;
  slot_heap_pos_[slot] = kNotInHeap;
  const std::size_t last = finish_heap_.size() - 1;
  if (static_cast<std::size_t>(pos) != last) {
    const std::uint32_t moved = finish_heap_[last];
    finish_heap_.pop_back();
    heap_place(static_cast<std::size_t>(pos), moved);
    heap_sift_down(static_cast<std::size_t>(pos));
    heap_sift_up(static_cast<std::size_t>(slot_heap_pos_[moved]));
  } else {
    finish_heap_.pop_back();
  }
}

void Network::heap_update(std::uint32_t slot) {
  assert(slot_heap_pos_[slot] != kNotInHeap);
  heap_sift_up(static_cast<std::size_t>(slot_heap_pos_[slot]));
  heap_sift_down(static_cast<std::size_t>(slot_heap_pos_[slot]));
}

void Network::rearm_completion() {
  if (finish_heap_.empty() || !std::isfinite(slot_finish_[finish_heap_.front()])) {
    if (completion_event_ != sim::kInvalidEvent) {
      sim_.cancel(completion_event_);
      completion_event_ = sim::kInvalidEvent;
    }
    armed_time_ = kInf;
    return;
  }
  const double target = std::max(slot_finish_[finish_heap_.front()], sim_.now());
  if (completion_event_ != sim::kInvalidEvent) {
    if (target == armed_time_) return;  // already armed at the right time
    completion_event_ = sim_.reschedule(completion_event_, target);
  } else {
    completion_event_ = sim_.schedule_at(target, [this] { on_completion_event(); });
  }
  armed_time_ = target;
}

// keddah:hot(completion)
void Network::on_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  armed_time_ = kInf;
  const sim::Time now = sim_.now();
  // Every flow whose projected finish has arrived is mathematically drained:
  // a projected finish goes stale only when the rate changes, and a rate
  // change recomputes it. Any residue after materialization is
  // floating-point noise at the payload's ulp scale. The drained batch is
  // member scratch (hoisted local): completion events fire per flow, and a
  // fresh vector here was a per-event allocation. Callbacks run after the
  // heap drain and never re-enter this handler, so reuse is safe.
  scratch_drained_.clear();
  while (!finish_heap_.empty() && slot_finish_[finish_heap_.front()] <= now) {
    const std::uint32_t slot = finish_heap_.front();
    materialize(slot);
    KEDDAH_AUDIT(slot_remaining_[slot].bits() <=
                     kDrainEpsilonBits + 1e-9 * slot_bytes_[slot].bits(),
                 "completed flow left real payload behind");
    slot_remaining_[slot] = util::Bytes(0.0);
    const double latency = slot_latency_[slot];
    auto [flow, cb] = detach(slot);
    // archlint:allow(hot-push-back): flow-bounded scratch; capacity
    // persists across completion events.
    scratch_drained_.emplace_back(std::move(flow), std::move(cb), latency);
  }
  // Heap pop order is (finish, id): simultaneous completions resolve in
  // flow-id order, keeping downstream callbacks deterministic.
  for (auto& [flow, cb, latency] : scratch_drained_) {
    resolve_finished(std::move(flow), std::move(cb), latency);
  }
  reshare();
  if constexpr (util::kAuditEnabled) audit_conservation();
}

bool Network::abort_flow(FlowId id) {
  const std::uint32_t* found = slot_index_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  materialize(slot);
  auto [flow, cb] = detach(slot);
  resolve_aborted(std::move(flow), std::move(cb));
  reshare();
  if constexpr (util::kAuditEnabled) audit_conservation();
  return true;
}

std::size_t Network::abort_flows_touching(NodeId node) {
  std::vector<FlowId> victims;
  for (std::uint32_t slot = 0; slot < slot_id_.size(); ++slot) {
    if (slot_in_use_[slot] && (slot_src_[slot] == node || slot_dst_[slot] == node)) {
      victims.push_back(slot_id_[slot]);
    }
  }
  if (victims.empty()) return 0;
  // Id order keeps abort callbacks deterministic regardless of arena layout.
  std::sort(victims.begin(), victims.end());
  std::size_t aborted = 0;
  for (const FlowId id : victims) {
    const std::uint32_t* found = slot_index_.find(id);
    if (found == nullptr) continue;  // removed by a nested callback
    const std::uint32_t slot = *found;
    materialize(slot);
    auto [flow, cb] = detach(slot);
    resolve_aborted(std::move(flow), std::move(cb));
    ++aborted;
  }
  reshare();
  if constexpr (util::kAuditEnabled) audit_conservation();
  return aborted;
}

void Network::resolve_finished(Flow flow, CompletionCallback cb, double tail_latency) {
  flow.done = true;
  if (tail_latency > 0.0) {
    limbo(flow) += flow.bytes;  // drained but not yet delivered (tail latency)
    sim_.schedule_in(tail_latency, [this, flow = std::move(flow), cb = std::move(cb)]() mutable {
      flow.end_time = sim_.now();
      limbo(flow) -= flow.bytes;
      account_delivered(flow);
      for (const auto& tap : completion_taps_) tap(flow);
      if (cb) cb(flow);
      if constexpr (util::kAuditEnabled) audit_conservation();
    });
  } else {
    flow.end_time = sim_.now();
    account_delivered(flow);
    for (const auto& tap : completion_taps_) tap(flow);
    if (cb) cb(flow);
  }
}

void Network::resolve_aborted(Flow flow, CompletionCallback cb) {
  const double delivered = std::max(0.0, flow.bytes.value() - flow.remaining.value());
  account_aborted(flow, util::Bytes(flow.bytes.value() - delivered));
  flow.bytes = util::Bytes(delivered);
  flow.remaining = util::Bytes(0.0);
  flow.done = true;
  flow.aborted = true;
  flow.end_time = sim_.now();
  account_delivered(flow);  // the partial payload did arrive
  for (const auto& tap : completion_taps_) tap(flow);
  if (cb) cb(flow);
}

}  // namespace keddah::net
