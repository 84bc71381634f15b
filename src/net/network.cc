#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace vfps::net {

std::string NodeName(NodeId id) {
  if (id == kAggregationServer) return "agg-server";
  if (id == kKeyServer) return "key-server";
  if (id == 0) return "leader";
  return StrFormat("participant-%d", id);
}

SimNetwork::SimNetwork() = default;
SimNetwork::~SimNetwork() = default;
SimNetwork::SimNetwork(SimNetwork&&) noexcept = default;
SimNetwork& SimNetwork::operator=(SimNetwork&&) noexcept = default;

void SimNetwork::set_metrics(obs::MetricsRegistry* registry, size_t parties) {
  obs_registry_ = registry;
  party_counters_.clear();
  if (registry == nullptr) {
    tracer_ = nullptr;
    c_messages_ = c_bytes_ = nullptr;
    c_dropped_ = c_duplicated_ = c_corrupted_ = nullptr;
    c_delayed_ = c_delay_ns_ = c_swallowed_dead_ = nullptr;
    return;
  }
  // Cached so Send can stamp envelopes without touching the registry.
  // EnableTracing() must therefore precede set_metrics (the CLI does this).
  tracer_ = registry->tracer();
  c_messages_ = registry->GetCounter("net.messages");
  c_bytes_ = registry->GetCounter("net.bytes_sent");
  c_dropped_ = registry->GetCounter("net.faults.dropped");
  c_duplicated_ = registry->GetCounter("net.faults.duplicated");
  c_corrupted_ = registry->GetCounter("net.faults.corrupted");
  c_delayed_ = registry->GetCounter("net.faults.delayed");
  c_delay_ns_ = registry->GetCounter("net.faults.delay_ns");
  c_swallowed_dead_ = registry->GetCounter("net.faults.swallowed_dead");
  for (size_t party = 0; party < parties; ++party) {
    PartyCounters(static_cast<NodeId>(party));
  }
}

void SimNetwork::ShareMetricsOf(const SimNetwork& other) {
  obs_registry_ = other.obs_registry_;
  tracer_ = obs_registry_ != nullptr ? obs_registry_->tracer() : nullptr;
  c_messages_ = other.c_messages_;
  c_bytes_ = other.c_bytes_;
  c_dropped_ = other.c_dropped_;
  c_duplicated_ = other.c_duplicated_;
  c_corrupted_ = other.c_corrupted_;
  c_delayed_ = other.c_delayed_;
  c_delay_ns_ = other.c_delay_ns_;
  c_swallowed_dead_ = other.c_swallowed_dead_;
  party_counters_ = other.party_counters_;
}

void SimNetwork::Meter(const LinkKey& key, Link& link, size_t bytes) {
  link.stats.messages += 1;
  link.stats.bytes += bytes;
  total_.messages += 1;
  total_.bytes += bytes;
  if (c_messages_ != nullptr) {
    c_messages_->Add(1);
    c_bytes_->Add(bytes);
    MeterParty(key, bytes);
  }
}

void SimNetwork::MeterParty(const LinkKey& key, size_t bytes) {
  // Attribute each link to its participant endpoint; server<->server links
  // (none exist today) would attribute to the leader, party 0.
  const NodeId party =
      key.first >= 1 ? key.first : (key.second >= 1 ? key.second : 0);
  const auto [messages, sent] = PartyCounters(party);
  messages->Add(1);
  sent->Add(bytes);
}

std::pair<obs::Counter*, obs::Counter*> SimNetwork::PartyCounters(
    NodeId party) {
  auto it = party_counters_.find(party);
  if (it == party_counters_.end()) {
    const obs::MetricLabels labels{{"party", StrFormat("%d", party)}};
    it = party_counters_
             .emplace(party,
                      std::make_pair(obs_registry_->GetLabeledCounter(
                                         "net.party.messages", labels),
                                     obs_registry_->GetLabeledCounter(
                                         "net.party.bytes", labels)))
             .first;
  }
  return it->second;
}

void SimNetwork::FaultInstant(const char* name, const LinkKey& key) {
  if (tracer_ == nullptr) return;
  tracer_->Instant(name, {{"from", NodeName(key.first)},
                          {"to", NodeName(key.second)}});
}

Status SimNetwork::Send(NodeId from, NodeId to, std::vector<uint8_t> payload) {
  if (from == to) {
    return Status::InvalidArgument("SimNetwork: self-send is not a message");
  }
  const LinkKey key{from, to};
  // Side-band causal metadata: the sender's open span, if any. Never metered.
  const obs::TraceContext ctx =
      tracer_ != nullptr ? obs::Tracer::Current() : obs::TraceContext{};
  Link& link = links_[key];
  if (injector_ == nullptr) {
    Meter(key, link, payload.size());
    link.queue.push_back(Envelope{std::move(payload), ctx});
    return Status::OK();
  }

  const FaultInjector::Delivery fate = injector_->OnSend(from, to);
  if (fate.sender_dead) {
    // A crashed node emits nothing: no bytes on the wire, nothing metered.
    fault_stats_.swallowed_dead += 1;
    if (c_swallowed_dead_ != nullptr) c_swallowed_dead_->Add(1);
    FaultInstant("net.fault.sender_dead", key);
    return Status::OK();
  }
  // The payload left the sender; it is metered even if it is then lost.
  Meter(key, link, payload.size());
  if (fate.extra_delay > 0.0) {
    fault_stats_.delayed += 1;
    fault_stats_.delay_seconds += fate.extra_delay;
    fault_clock_->Advance(CostCategory::kNetwork, fate.extra_delay);
    if (c_delayed_ != nullptr) {
      c_delayed_->Add(1);
      c_delay_ns_->Add(static_cast<uint64_t>(std::llround(fate.extra_delay * 1e9)));
    }
    FaultInstant("net.fault.delayed", key);
  }
  if (injector_->NodeDead(to) || injector_->NodeAbsent(to)) {
    // Connection refused: the sender pays for the transmission but the dead
    // (or not-yet-joined) receiver consumes nothing.
    fault_stats_.swallowed_dead += 1;
    if (c_swallowed_dead_ != nullptr) c_swallowed_dead_->Add(1);
    FaultInstant("net.fault.receiver_dead", key);
    return Status::OK();
  }
  if (fate.dropped) {
    fault_stats_.dropped += 1;
    if (c_dropped_ != nullptr) c_dropped_->Add(1);
    FaultInstant("net.fault.dropped", key);
    return Status::OK();
  }
  if (fate.corrupt && !payload.empty()) {
    const uint64_t bit = fate.corrupt_bit % (payload.size() * 8);
    payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    fault_stats_.corrupted += 1;
    if (c_corrupted_ != nullptr) c_corrupted_->Add(1);
    FaultInstant("net.fault.corrupted", key);
  }
  if (fate.duplicate) {
    fault_stats_.duplicated += 1;
    if (c_duplicated_ != nullptr) c_duplicated_->Add(1);
    FaultInstant("net.fault.duplicated", key);
    Meter(key, link, payload.size());  // the duplicate also crossed the wire
    link.queue.push_back(Envelope{payload, ctx});
  }
  link.queue.push_back(Envelope{std::move(payload), ctx});
  return Status::OK();
}

Result<std::vector<uint8_t>> SimNetwork::Recv(NodeId from, NodeId to) {
  const LinkKey key{from, to};
  auto it = links_.find(key);
  if (it == links_.end() || it->second.head == it->second.queue.size()) {
    const uint64_t ever_sent =
        it == links_.end() ? 0 : it->second.stats.messages;
    return Status::ProtocolError(StrFormat(
        "SimNetwork: no pending message on link %s -> %s "
        "(%llu messages ever sent on this link, %zu pending network-wide)",
        NodeName(from).c_str(), NodeName(to).c_str(),
        static_cast<unsigned long long>(ever_sent), PendingCount()));
  }
  Link& link = it->second;
  Envelope env = std::move(link.queue[link.head++]);
  if (link.head == link.queue.size()) {
    link.queue.clear();
    link.head = 0;
  }
  last_recv_context_ = env.ctx;
  return std::move(env.payload);
}

size_t SimNetwork::PendingCount() const {
  size_t n = 0;
  for (const auto& [key, link] : links_) n += link.queue.size() - link.head;
  return n;
}

TrafficStats SimNetwork::SentBy(NodeId node) const {
  TrafficStats out;
  for (const auto& [key, link] : links_) {
    if (key.first == node) out.Merge(link.stats);
  }
  return out;
}

TrafficStats SimNetwork::ReceivedBy(NodeId node) const {
  TrafficStats out;
  for (const auto& [key, link] : links_) {
    if (key.second == node) out.Merge(link.stats);
  }
  return out;
}

TrafficStats SimNetwork::LinkStats(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? TrafficStats{} : it->second.stats;
}

void SimNetwork::MergeStatsFrom(const SimNetwork& other) {
  for (const auto& [key, link] : other.links_) {
    links_[key].stats.Merge(link.stats);
  }
  total_.Merge(other.total_);
  fault_stats_.Merge(other.fault_stats_);
}

void SimNetwork::ResetStats() {
  for (auto& [key, link] : links_) link.stats = TrafficStats{};
  total_ = TrafficStats{};
  fault_stats_ = FaultStats{};
}

void SimNetwork::EnableFaults(const FaultSpec& spec, uint64_t seed,
                              SimClock* clock) {
  injector_ = std::make_unique<FaultInjector>(spec, seed);
  fault_clock_ = clock;
  fault_seed_ = seed;
}

const FaultSpec* SimNetwork::fault_spec() const {
  return injector_ == nullptr ? nullptr : &injector_->spec();
}

bool SimNetwork::NodeDead(NodeId node) const {
  if (std::binary_search(suspects_.begin(), suspects_.end(), node)) return true;
  return injector_ != nullptr && injector_->NodeDead(node);
}

std::vector<NodeId> SimNetwork::DeadNodes() const {
  std::vector<NodeId> dead =
      injector_ == nullptr ? std::vector<NodeId>{} : injector_->DeadNodes();
  dead.insert(dead.end(), suspects_.begin(), suspects_.end());
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  return dead;
}

std::vector<NodeId> SimNetwork::DepartedNodes() const {
  return injector_ == nullptr ? std::vector<NodeId>{}
                              : injector_->DepartedNodes();
}

std::vector<NodeId> SimNetwork::JoinedNodes() const {
  return injector_ == nullptr ? std::vector<NodeId>{}
                              : injector_->JoinedNodes();
}

std::vector<NodeId> SimNetwork::HealedNodes() const {
  return injector_ == nullptr ? std::vector<NodeId>{}
                              : injector_->HealedNodes();
}

bool SimNetwork::NodeAbsent(NodeId node) const {
  return injector_ != nullptr && injector_->NodeAbsent(node);
}

void SimNetwork::SuspectDead(NodeId node) {
  auto it = std::lower_bound(suspects_.begin(), suspects_.end(), node);
  if (it == suspects_.end() || *it != node) suspects_.insert(it, node);
}

void SimNetwork::MarkHealed(NodeId node) {
  if (injector_ != nullptr) injector_->MarkHealed(node);
  // A healed suspect is no longer a suspect.
  auto it = std::lower_bound(suspects_.begin(), suspects_.end(), node);
  if (it != suspects_.end() && *it == node) suspects_.erase(it);
}

void SimNetwork::MarkJoined(NodeId node) {
  if (injector_ != nullptr) injector_->MarkJoined(node);
}

}  // namespace vfps::net
