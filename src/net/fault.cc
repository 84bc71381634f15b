#include "net/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"

namespace vfps::net {

Status FaultSpec::Validate() const {
  for (double p : {drop_prob, duplicate_prob, corrupt_prob, delay_prob}) {
    if (!(p >= 0.0 && p <= 1.0)) {  // written so that NaN fails too
      return Status::InvalidArgument(
          StrFormat("fault-spec: probability %g outside [0, 1]", p));
    }
  }
  if (!(delay_seconds >= 0.0) || std::isinf(delay_seconds)) {
    return Status::InvalidArgument(StrFormat(
        "fault-spec: delay seconds %g is not a finite value >= 0",
        delay_seconds));
  }
  if (delay_prob > 0.0 && delay_seconds == 0.0) {
    return Status::InvalidArgument(
        "fault-spec: delay probability set but delay seconds is 0 "
        "(use delay=PROB:SECONDS)");
  }
  // Churn rules name participants only: the leader (node 0) and the servers
  // (negative ids) are structural — their departure is not repairable.
  for (const LeaveRule& rule : leaves) {
    if (rule.node < 1) {
      return Status::InvalidArgument(StrFormat(
          "fault-spec: leave= names node %lld; only participants (>= 1) "
          "can churn", static_cast<long long>(rule.node)));
    }
  }
  for (const JoinRule& rule : joins) {
    if (rule.node < 1) {
      return Status::InvalidArgument(StrFormat(
          "fault-spec: join= names node %lld; only participants (>= 1) "
          "can churn", static_cast<long long>(rule.node)));
    }
  }
  for (const HealRule& rule : heals) {
    if (rule.node < 1) {
      return Status::InvalidArgument(StrFormat(
          "fault-spec: heal= names node %lld; only participants (>= 1) "
          "can churn", static_cast<long long>(rule.node)));
    }
  }
  for (const PartitionRule& rule : partitions) {
    if (rule.node < 1) {
      return Status::InvalidArgument(StrFormat(
          "fault-spec: part= names node %lld; only participants (>= 1) "
          "can be partitioned", static_cast<long long>(rule.node)));
    }
    if (rule.drop_count < 1) {
      return Status::InvalidArgument("fault-spec: part COUNT must be >= 1");
    }
  }
  return Status::OK();
}

Status FaultSpec::CheckNodes(size_t participants) const {
  const auto check = [participants](const char* key, NodeId node) {
    if (node == kAggregationServer || node == kKeyServer) return Status::OK();
    if (node < 0) {
      return Status::InvalidArgument(StrFormat(
          "fault-spec: %s= names node %d; the only negative ids are the "
          "servers %d and %d", key, node, kAggregationServer, kKeyServer));
    }
    if (static_cast<size_t>(node) >= participants) {
      return Status::InvalidArgument(StrFormat(
          "fault-spec: %s= names participant %d, but the run has %zu "
          "participants (ids 0..%zu)", key, node, participants,
          participants - 1));
    }
    return Status::OK();
  };
  for (const CrashRule& rule : crashes) {
    VFPS_RETURN_NOT_OK(check("crash", rule.node));
  }
  for (const StallRule& rule : stalls) {
    VFPS_RETURN_NOT_OK(check("stall", rule.node));
  }
  for (const LeaveRule& rule : leaves) {
    VFPS_RETURN_NOT_OK(check("leave", rule.node));
  }
  for (const JoinRule& rule : joins) VFPS_RETURN_NOT_OK(check("join", rule.node));
  for (const HealRule& rule : heals) VFPS_RETURN_NOT_OK(check("heal", rule.node));
  for (const PartitionRule& rule : partitions) {
    VFPS_RETURN_NOT_OK(check("part", rule.node));
  }
  return Status::OK();
}

std::vector<NodeId> FaultSpec::InitialAbsentees() const {
  std::vector<NodeId> absent;
  for (const JoinRule& rule : joins) absent.push_back(rule.node);
  std::sort(absent.begin(), absent.end());
  absent.erase(std::unique(absent.begin(), absent.end()), absent.end());
  return absent;
}

namespace {
Result<double> ParseProb(std::string_view value, const char* key) {
  VFPS_ASSIGN_OR_RETURN(double p, ParseDouble(value));
  if (!(p >= 0.0 && p <= 1.0)) {  // written so that NaN fails too
    return Status::InvalidArgument(
        StrFormat("fault-spec: %s=%g outside [0, 1]", key, p));
  }
  return p;
}

// "NODE@AFTER" -> (node, after); shared by crash= and the stall= prefix.
Status ParseNodeAt(std::string_view value, NodeId* node, uint64_t* after) {
  const auto at = value.find('@');
  if (at == std::string_view::npos) {
    return Status::InvalidArgument(
        "fault-spec: expected NODE@AFTER_SENDS, e.g. crash=2@40");
  }
  const std::string_view node_text = value.substr(0, at);
  VFPS_ASSIGN_OR_RETURN(int64_t id, ParseInt64(node_text));
  // Checked before the narrowing cast, which would wrap the id onto
  // another node.
  if (id < std::numeric_limits<NodeId>::min() ||
      id > std::numeric_limits<NodeId>::max()) {
    return Status::InvalidArgument(StrFormat(
        "fault-spec: node '%.*s' is outside the node id range [%d, %d]",
        static_cast<int>(node_text.size()), node_text.data(),
        std::numeric_limits<NodeId>::min(),
        std::numeric_limits<NodeId>::max()));
  }
  VFPS_ASSIGN_OR_RETURN(int64_t n, ParseInt64(value.substr(at + 1)));
  if (n < 1) {
    return Status::InvalidArgument("fault-spec: AFTER_SENDS must be >= 1");
  }
  *node = static_cast<NodeId>(id);
  *after = static_cast<uint64_t>(n);
  return Status::OK();
}
}  // namespace

Result<FaultSpec> ParseFaultSpec(const std::string& text) {
  FaultSpec spec;
  if (TrimString(text).empty()) return spec;
  for (const std::string& term : SplitString(text, ',')) {
    const std::string_view trimmed = TrimString(term);
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("fault-spec: term '%.*s' is not key=value",
                    static_cast<int>(trimmed.size()), trimmed.data()));
    }
    const std::string_view key = trimmed.substr(0, eq);
    const std::string_view value = trimmed.substr(eq + 1);
    if (key == "drop") {
      VFPS_ASSIGN_OR_RETURN(spec.drop_prob, ParseProb(value, "drop"));
    } else if (key == "dup") {
      VFPS_ASSIGN_OR_RETURN(spec.duplicate_prob, ParseProb(value, "dup"));
    } else if (key == "corrupt") {
      VFPS_ASSIGN_OR_RETURN(spec.corrupt_prob, ParseProb(value, "corrupt"));
    } else if (key == "delay") {
      const auto colon = value.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument(
            "fault-spec: delay needs PROB:SECONDS, e.g. delay=0.1:0.05");
      }
      VFPS_ASSIGN_OR_RETURN(spec.delay_prob,
                            ParseProb(value.substr(0, colon), "delay"));
      VFPS_ASSIGN_OR_RETURN(spec.delay_seconds,
                            ParseDouble(value.substr(colon + 1)));
    } else if (key == "crash") {
      CrashRule rule;
      VFPS_RETURN_NOT_OK(ParseNodeAt(value, &rule.node, &rule.after_sends));
      spec.crashes.push_back(rule);
    } else if (key == "stall") {
      const auto plus = value.find('+');
      if (plus == std::string_view::npos) {
        return Status::InvalidArgument(
            "fault-spec: stall needs NODE@AFTER+COUNT, e.g. stall=3@10+5");
      }
      StallRule rule;
      VFPS_RETURN_NOT_OK(
          ParseNodeAt(value.substr(0, plus), &rule.node, &rule.after_sends));
      VFPS_ASSIGN_OR_RETURN(int64_t count, ParseInt64(value.substr(plus + 1)));
      if (count < 1) {
        return Status::InvalidArgument("fault-spec: stall COUNT must be >= 1");
      }
      rule.drop_count = static_cast<uint64_t>(count);
      spec.stalls.push_back(rule);
    } else if (key == "leave") {
      LeaveRule rule;
      VFPS_RETURN_NOT_OK(ParseNodeAt(value, &rule.node, &rule.after_sends));
      spec.leaves.push_back(rule);
    } else if (key == "join") {
      JoinRule rule;
      VFPS_RETURN_NOT_OK(ParseNodeAt(value, &rule.node, &rule.after_sends));
      spec.joins.push_back(rule);
    } else if (key == "heal") {
      HealRule rule;
      VFPS_RETURN_NOT_OK(ParseNodeAt(value, &rule.node, &rule.after_sends));
      spec.heals.push_back(rule);
    } else if (key == "part") {
      const auto plus = value.find('+');
      if (plus == std::string_view::npos) {
        return Status::InvalidArgument(
            "fault-spec: part needs NODE@AFTER+COUNT, e.g. part=3@10+20");
      }
      PartitionRule rule;
      VFPS_RETURN_NOT_OK(
          ParseNodeAt(value.substr(0, plus), &rule.node, &rule.after_sends));
      VFPS_ASSIGN_OR_RETURN(int64_t count, ParseInt64(value.substr(plus + 1)));
      if (count < 1) {
        return Status::InvalidArgument("fault-spec: part COUNT must be >= 1");
      }
      rule.drop_count = static_cast<uint64_t>(count);
      spec.partitions.push_back(rule);
    } else {
      return Status::InvalidArgument(
          StrFormat("fault-spec: unknown key '%.*s'",
                    static_cast<int>(key.size()), key.data()));
    }
  }
  VFPS_RETURN_NOT_OK(spec.Validate());
  return spec;
}

FaultInjector::Delivery FaultInjector::OnSend(NodeId from, NodeId to) {
  // The stream-total is the stream's clock: it ticks on every send attempt,
  // even swallowed ones, so join/heal/partition windows keep advancing while
  // a node is down. The Bernoulli stream below is untouched by this counter.
  ++total_sends_;
  Delivery d;
  if (NodeDead(from) || NodeAbsent(from)) {
    d.sender_dead = true;
    return d;  // dead nodes emit nothing; the Bernoulli stream does not advance
  }
  const uint64_t send_index = ++sends_by_node_[from];  // 1-based

  // A stalled sender's message is metered (it left the NIC) but lost.
  for (const StallRule& rule : spec_.stalls) {
    if (rule.node == from && send_index >= rule.after_sends &&
        send_index < rule.after_sends + rule.drop_count) {
      d.dropped = true;
    }
  }
  // A partitioned node's traffic is metered but lost in both directions
  // while the stream-total is inside the window (1-based, so the send that
  // moved the total to `after_sends` is the first one lost).
  for (const PartitionRule& rule : spec_.partitions) {
    if ((rule.node == from || rule.node == to) &&
        total_sends_ >= rule.after_sends &&
        total_sends_ < rule.after_sends + rule.drop_count) {
      d.dropped = true;
    }
  }
  // Bernoulli rules, drawn in fixed order so the fault stream is a pure
  // function of the send sequence.
  if (spec_.drop_prob > 0.0 && rng_.Bernoulli(spec_.drop_prob)) {
    d.dropped = true;
  }
  if (spec_.duplicate_prob > 0.0 && rng_.Bernoulli(spec_.duplicate_prob)) {
    d.duplicate = true;
  }
  if (spec_.corrupt_prob > 0.0 && rng_.Bernoulli(spec_.corrupt_prob)) {
    d.corrupt = true;
    d.corrupt_bit = rng_.Next();
  }
  if (spec_.delay_prob > 0.0 && rng_.Bernoulli(spec_.delay_prob)) {
    d.extra_delay = spec_.delay_seconds;
  }
  return d;
}

bool FaultInjector::NodeHealed(NodeId node) const {
  if (pre_healed_.count(node) != 0) return true;
  for (const HealRule& rule : spec_.heals) {
    if (rule.node == node && total_sends_ >= rule.after_sends) return true;
  }
  return false;
}

bool FaultInjector::NodeDead(NodeId node) const {
  auto it = sends_by_node_.find(node);
  const uint64_t sent = it == sends_by_node_.end() ? 0 : it->second;
  bool down = false;
  for (const CrashRule& rule : spec_.crashes) {
    if (rule.node == node && sent >= rule.after_sends) down = true;
  }
  for (const LeaveRule& rule : spec_.leaves) {
    if (rule.node == node && sent >= rule.after_sends) down = true;
  }
  return down && !NodeHealed(node);
}

bool FaultInjector::NodeAbsent(NodeId node) const {
  if (pre_joined_.count(node) != 0) return false;
  bool has_join = false;
  for (const JoinRule& rule : spec_.joins) {
    if (rule.node != node) continue;
    has_join = true;
    if (total_sends_ >= rule.after_sends) return false;  // joined
  }
  return has_join;
}

namespace {
void SortUnique(std::vector<NodeId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}
}  // namespace

std::vector<NodeId> FaultInjector::DeadNodes() const {
  std::vector<NodeId> dead;
  for (const CrashRule& rule : spec_.crashes) {
    if (NodeDead(rule.node)) dead.push_back(rule.node);
  }
  for (const LeaveRule& rule : spec_.leaves) {
    if (NodeDead(rule.node)) dead.push_back(rule.node);
  }
  SortUnique(&dead);
  return dead;
}

std::vector<NodeId> FaultInjector::DepartedNodes() const {
  std::vector<NodeId> departed;
  for (const LeaveRule& rule : spec_.leaves) {
    if (NodeHealed(rule.node)) continue;
    auto it = sends_by_node_.find(rule.node);
    const uint64_t sent = it == sends_by_node_.end() ? 0 : it->second;
    if (sent >= rule.after_sends) departed.push_back(rule.node);
  }
  SortUnique(&departed);
  return departed;
}

std::vector<NodeId> FaultInjector::JoinedNodes() const {
  std::vector<NodeId> joined;
  for (const JoinRule& rule : spec_.joins) {
    if (!NodeAbsent(rule.node)) joined.push_back(rule.node);
  }
  SortUnique(&joined);
  return joined;
}

std::vector<NodeId> FaultInjector::HealedNodes() const {
  std::vector<NodeId> healed;
  for (const HealRule& rule : spec_.heals) {
    if (total_sends_ >= rule.after_sends) healed.push_back(rule.node);
  }
  SortUnique(&healed);
  return healed;
}

}  // namespace vfps::net
