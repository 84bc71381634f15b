// Trace-context propagation under fire: the contracts that make one
// selection run come out as ONE causally connected tree even when the
// simulated network is dropping, duplicating, corrupting, and retrying.
//
//   1. SimNetwork stamps the sender's TraceContext on every envelope as
//      side-band metadata; the receiver reads it via last_recv_context().
//      Duplicated deliveries carry the SAME context as the original — a
//      retransmission is the same causal act, not a new one.
//   2. ReliableChannel's ARQ events (retries, discards, exhaustion) surface
//      as net.chan.* instants parented under the receiver's open span, so
//      recovery work stays attached to the query that paid for it.
//   3. No fault fate may orphan a span (nonzero parent that resolves to no
//      recorded event) or double-link one (duplicate span ids).
//   4. End-to-end: a faulted VFPS-SM selection at 1 and 4 threads produces
//      per-query knn.query spans that all share one parent, a fully
//      resolvable parent graph, and labeled counter totals that are
//      bit-identical across thread counts.
//   5. The oracle's span tree in every mode: the phase spans each knn.shard
//      holds, in order and on their nodes, one knn.party.compute per party
//      that computes, and each query's leader merge and d_T exchange last.
//
// Zero-fault and metrics-layer trace units live in test_obs.cc; fault
// *semantics* (what drops when) live in test_chaos.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vfl/fed_knn.h"
#include "vfl/selection_cache.h"

namespace vfps {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return b; }

// Every recorded parent_span_id must be 0 or the id of another recorded
// event, and span ids must be unique. Returns the id set for further checks.
std::set<uint64_t> CheckWellFormed(const std::vector<obs::TraceEvent>& events) {
  std::set<uint64_t> ids;
  for (const auto& e : events) {
    EXPECT_NE(e.span_id, 0u) << e.name;
    EXPECT_TRUE(ids.insert(e.span_id).second)
        << "duplicate span id on " << e.name;
    EXPECT_NE(e.trace_id, 0u) << e.name;
  }
  for (const auto& e : events) {
    if (e.parent_span_id != 0) {
      EXPECT_TRUE(ids.count(e.parent_span_id))
          << e.name << " is orphaned: parent " << e.parent_span_id
          << " was never recorded";
    }
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Raw SimNetwork envelope stamping

TEST(EnvelopePropagationTest, SendStampsSenderContext) {
  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork network;
  network.set_metrics(&reg);  // after EnableTracing, so the tracer is cached

  obs::TraceContext sender_ctx;
  {
    obs::Span span(reg.tracer(), "send.side");
    sender_ctx = span.context();
    ASSERT_TRUE(network.Send(0, 1, Bytes({1, 2, 3})).ok());
  }
  // The span is closed by the time the receiver runs — exactly the async
  // shape the context must survive.
  auto payload = network.Recv(0, 1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(network.last_recv_context().span_id, sender_ctx.span_id);
  EXPECT_EQ(network.last_recv_context().trace_id, sender_ctx.trace_id);
}

TEST(EnvelopePropagationTest, NoTracerMeansZeroContext) {
  obs::MetricsRegistry reg;  // tracing NOT enabled
  net::SimNetwork network;
  network.set_metrics(&reg);
  ASSERT_TRUE(network.Send(0, 1, Bytes({9})).ok());
  ASSERT_TRUE(network.Recv(0, 1).ok());
  EXPECT_FALSE(network.last_recv_context().valid());

  net::SimNetwork bare;  // no registry at all
  ASSERT_TRUE(bare.Send(0, 1, Bytes({9})).ok());
  ASSERT_TRUE(bare.Recv(0, 1).ok());
  EXPECT_FALSE(bare.last_recv_context().valid());
}

TEST(EnvelopePropagationTest, SendOutsideAnySpanStampsZero) {
  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork network;
  network.set_metrics(&reg);
  ASSERT_TRUE(network.Send(2, 3, Bytes({7})).ok());
  ASSERT_TRUE(network.Recv(2, 3).ok());
  EXPECT_FALSE(network.last_recv_context().valid());
}

TEST(EnvelopePropagationTest, DuplicateDeliveriesCarryTheSameContext) {
  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork network;
  network.set_metrics(&reg);
  net::FaultSpec spec;
  spec.duplicate_prob = 1.0;
  SimClock clock;
  network.EnableFaults(spec, 42, &clock);

  obs::TraceContext sender_ctx;
  {
    obs::Span span(reg.tracer(), "dup.send");
    sender_ctx = span.context();
    ASSERT_TRUE(network.Send(0, 1, Bytes({4, 5})).ok());
  }
  ASSERT_EQ(network.PendingCount(), 2u) << "dup=1.0 must enqueue two copies";
  for (int copy = 0; copy < 2; ++copy) {
    ASSERT_TRUE(network.Recv(0, 1).ok());
    EXPECT_EQ(network.last_recv_context().span_id, sender_ctx.span_id)
        << "copy " << copy << " must carry the original causal identity";
  }
}

TEST(EnvelopePropagationTest, ContextIsNotMetered) {
  // The trace context rides side-band: traced and untraced runs must meter
  // byte-identical traffic, or tracing would change the simulated cost model.
  net::SimNetwork plain;
  ASSERT_TRUE(plain.Send(0, 1, Bytes({1, 2, 3, 4})).ok());

  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork traced;
  traced.set_metrics(&reg);
  obs::Span span(reg.tracer(), "metered.send");
  ASSERT_TRUE(traced.Send(0, 1, Bytes({1, 2, 3, 4})).ok());
  span.End();

  EXPECT_EQ(traced.total().bytes, plain.total().bytes);
  EXPECT_EQ(traced.total().messages, plain.total().messages);
}

// ---------------------------------------------------------------------------
// Fault instants parent under the sender's open span

TEST(FaultInstantTest, DroppedSendRecordsInstantUnderSenderSpan) {
  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork network;
  network.set_metrics(&reg);
  net::FaultSpec spec;
  spec.drop_prob = 1.0;
  SimClock clock;
  network.EnableFaults(spec, 7, &clock);

  uint64_t send_span = 0;
  {
    obs::Span span(reg.tracer(), "doomed.send");
    send_span = span.context().span_id;
    ASSERT_TRUE(network.Send(0, 1, Bytes({1})).ok());
  }
  auto events = reg.tracer()->Snapshot();
  const obs::TraceEvent* dropped = nullptr;
  for (const auto& e : events) {
    if (e.name == "net.fault.dropped") dropped = &e;
  }
  ASSERT_NE(dropped, nullptr) << "the drop fate must leave a trace instant";
  EXPECT_TRUE(dropped->instant);
  EXPECT_EQ(dropped->parent_span_id, send_span);
  std::map<std::string, std::string> notes(dropped->annotations.begin(),
                                           dropped->annotations.end());
  EXPECT_EQ(notes.count("from"), 1u);
  EXPECT_EQ(notes.count("to"), 1u);
  CheckWellFormed(events);
}

// ---------------------------------------------------------------------------
// ReliableChannel ARQ events under fire

TEST(ChannelPropagationTest, RetriesAndDiscardsParentUnderReceiverSpan) {
  // A hostile but absorbable link: every fate the ARQ can recover from.
  net::FaultSpec spec;
  spec.drop_prob = 0.3;
  spec.duplicate_prob = 0.2;
  spec.corrupt_prob = 0.2;

  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork network;
  network.set_metrics(&reg);
  SimClock clock;
  network.EnableFaults(spec, 913, &clock);
  net::RetryPolicy policy;
  policy.max_attempts = 16;  // ample budget: every fate must be absorbable
  net::ReliableChannel chan(&network, &clock, policy);

  uint64_t recv_span = 0;
  constexpr int kExchanges = 40;
  {
    obs::Span span(reg.tracer(), "protocol.recv");
    recv_span = span.context().span_id;
    for (int i = 0; i < kExchanges; ++i) {
      ASSERT_TRUE(
          chan.Send(0, 1, Bytes({static_cast<uint8_t>(i), 0xAB})).ok());
      auto got = chan.Recv(0, 1);
      ASSERT_TRUE(got.ok()) << "exchange " << i << ": "
                            << got.status().ToString();
      EXPECT_EQ((*got)[0], static_cast<uint8_t>(i))
          << "ARQ must deliver in order through faults";
    }
  }

  auto events = reg.tracer()->Snapshot();
  CheckWellFormed(events);
  size_t chan_instants = 0;
  for (const auto& e : events) {
    if (e.name.rfind("net.chan.", 0) == 0) {
      ++chan_instants;
      EXPECT_TRUE(e.instant);
      EXPECT_EQ(e.parent_span_id, recv_span)
          << e.name << " must attach to the receive loop that paid for it";
    }
  }
  EXPECT_GT(chan_instants, 0u)
      << "with drop/dup/corrupt at these rates the ARQ must have worked";
  EXPECT_GT(reg.CounterValue("net.chan.retries") +
                reg.CounterValue("net.chan.discards"),
            0u);
}

TEST(ChannelPropagationTest, ExhaustionRecordsInstantAndNeverOrphans) {
  net::FaultSpec spec;
  spec.drop_prob = 1.0;  // nothing ever arrives
  obs::MetricsRegistry reg;
  reg.EnableTracing();
  net::SimNetwork network;
  network.set_metrics(&reg);
  SimClock clock;
  network.EnableFaults(spec, 3, &clock);
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  net::ReliableChannel chan(&network, &clock, policy);

  uint64_t recv_span = 0;
  {
    obs::Span span(reg.tracer(), "doomed.recv");
    recv_span = span.context().span_id;
    ASSERT_TRUE(chan.Send(0, 1, Bytes({1})).ok());
    auto got = chan.Recv(0, 1);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsPeerDead());
  }

  auto events = reg.tracer()->Snapshot();
  CheckWellFormed(events);
  const obs::TraceEvent* exhausted = nullptr;
  for (const auto& e : events) {
    if (e.name == "net.chan.exhausted") exhausted = &e;
  }
  ASSERT_NE(exhausted, nullptr);
  EXPECT_EQ(exhausted->parent_span_id, recv_span);
}

// ---------------------------------------------------------------------------
// End-to-end: a faulted selection is one well-formed forest per thread count

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Deployment Make() {
    Deployment d;
    data::SyntheticConfig config;
    config.num_samples = 400;
    config.num_features = 12;
    config.num_informative = 6;
    config.num_redundant = 3;
    config.seed = 31;
    auto generated = data::GenerateClassification(config);
    d.split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
    data::StandardizeSplit(&d.split).Abort("standardize");
    d.partition =
        data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
    d.backend = he::CreatePlainBackend();
    return d;
  }
};

Result<core::SelectionOutcome> RunTracedSelection(const net::FaultSpec* spec,
                                                  size_t threads,
                                                  obs::MetricsRegistry* obs) {
  Deployment d = Deployment::Make();
  if (spec != nullptr) d.network.EnableFaults(*spec, 1234, &d.clock);
  d.network.set_metrics(obs);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  core::SelectionContext ctx;
  ctx.split = &d.split;
  ctx.partition = &d.partition;
  ctx.backend = d.backend.get();
  ctx.network = &d.network;
  ctx.cost = &d.cost;
  ctx.clock = &d.clock;
  ctx.pool = pool.get();
  ctx.obs = obs;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 16;
  ctx.seed = 11;
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  return selector.Select(ctx, 2);
}

TEST(EndToEndPropagationTest, FaultedSelectionYieldsOneTreePerQuery) {
  auto spec = net::ParseFaultSpec(
      "drop=0.05,dup=0.02,corrupt=0.03,delay=0.1:0.01");
  ASSERT_TRUE(spec.ok());

  std::vector<std::pair<std::string, uint64_t>> baseline_counters;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    obs::MetricsRegistry reg;
    reg.EnableTracing();
    auto outcome = RunTracedSelection(&*spec, threads, &reg);
    ASSERT_TRUE(outcome.ok())
        << "threads=" << threads << ": " << outcome.status().ToString();

    const auto events = reg.tracer()->Snapshot();
    CheckWellFormed(events);

    // Every per-query root shares ONE parent (the selection-phase span that
    // fanned them out), regardless of which worker thread ran the query.
    std::set<uint64_t> query_parents;
    std::set<uint64_t> query_traces;
    size_t query_spans = 0;
    for (const auto& e : events) {
      if (e.name != "knn.query") continue;
      ++query_spans;
      EXPECT_NE(e.parent_span_id, 0u) << "a knn.query span must never be "
                                         "an orphan root";
      query_parents.insert(e.parent_span_id);
      query_traces.insert(e.trace_id);
    }
    EXPECT_GT(query_spans, 0u) << "threads=" << threads;
    EXPECT_EQ(query_parents.size(), 1u)
        << "threads=" << threads
        << ": all queries must hang off the same fan-out span";
    EXPECT_EQ(query_traces.size(), 1u)
        << "threads=" << threads << ": one selection run, one trace";

    // Labeled and plain counter totals are thread-count invariant even with
    // tracing on and faults firing. (Gauges and wall-time histograms are
    // deliberately outside this comparison.)
    auto counters = reg.CounterEntries();
    if (baseline_counters.empty()) {
      baseline_counters = std::move(counters);
      EXPECT_GT(reg.CounterValue("knn.queries.by_algo", {{"algo", "fagin"}}),
                0u);
    } else {
      EXPECT_EQ(counters, baseline_counters)
          << "threads=" << threads
          << ": counter totals must not depend on thread count";
    }
  }
}

// ---------------------------------------------------------------------------
// The oracle's span tree, which perfbench's layer metrics and
// docs/OBSERVABILITY.md both read

using SpanKey = std::pair<std::string, std::string>;  // (name, node)

// Each recorded span's children, ordered by span id: ids are handed out when
// a span opens, and the oracle runs serially here, so that is program order.
std::map<uint64_t, std::vector<const obs::TraceEvent*>> ChildrenBySpan(
    const std::vector<obs::TraceEvent>& events) {
  std::map<uint64_t, std::vector<const obs::TraceEvent*>> children;
  for (const auto& e : events) children[e.parent_span_id].push_back(&e);
  for (auto& [parent, list] : children) {
    std::sort(list.begin(), list.end(),
              [](const obs::TraceEvent* x, const obs::TraceEvent* y) {
                return x->span_id < y->span_id;
              });
  }
  return children;
}

std::vector<SpanKey> Keys(const std::vector<const obs::TraceEvent*>& spans) {
  std::vector<SpanKey> keys;
  for (const obs::TraceEvent* e : spans) keys.emplace_back(e->name, e->node);
  return keys;
}

struct OracleTreeCase {
  const char* name;
  vfl::KnnOracleMode mode;
  size_t shards;
  size_t query_group;
};

// Runs the case traced, with a SelectionCache attached, and checks the span
// tree; then reruns it with participant 2 quarantined, where every survivor
// hits the cache, and checks the tree again.
void CheckOracleSpanTree(const OracleTreeCase& c) {
  Deployment d = Deployment::Make();
  vfl::FedKnnConfig config;
  config.mode = c.mode;
  config.k = 6;
  config.num_queries = 12;
  config.seed = 11;
  config.shards = c.shards;
  config.query_group = c.query_group;
  const size_t units = config.num_queries / c.query_group;

  std::vector<SpanKey> shard_phases = {{"knn.partial_distance", "parties"}};
  if (c.mode != vfl::KnnOracleMode::kBase) {
    shard_phases.insert(shard_phases.end(),
                        {{"knn.rank", "parties"},
                         {"knn.topk_merge", "agg-server"},
                         {"knn.stream_rankings", "parties"}});
  }
  shard_phases.insert(shard_phases.end(), {{"he.encrypt", "parties"},
                                           {"knn.aggregate", "agg-server"},
                                           {"knn.decrypt_rank", "leader"}});
  std::vector<SpanKey> query_children(c.shards, {"knn.shard", "parties"});
  for (size_t qi = 0; qi < c.query_group; ++qi) {
    query_children.insert(query_children.end(),
                          {{"knn.topk_merge", "leader"},
                           {"knn.dt_exchange", "leader"}});
  }

  vfl::SelectionCache cache;
  for (const bool repair : {false, true}) {
    SCOPED_TRACE(std::string(c.name) + (repair ? " repair" : " cold"));
    obs::MetricsRegistry reg;
    reg.EnableTracing();
    net::SimNetwork network;
    SimClock clock;
    vfl::FederatedKnnOracle oracle(&d.split.train, &d.partition,
                                   d.backend.get(), &network, &d.cost, &clock,
                                   nullptr, &reg);
    oracle.set_cache(&cache);
    config.quarantined.clear();
    if (repair) config.quarantined = {2};
    auto run = oracle.Run(config, nullptr);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    // The parties that compute: all of them on the cold run, none on the
    // repair, whose survivors reuse their cached contributions.
    std::vector<SpanKey> computes;
    if (!repair) {
      for (int party = 0; party < 4; ++party) {
        computes.emplace_back("knn.party.compute", net::NodeName(party));
      }
    }

    const auto events = reg.tracer()->Snapshot();
    CheckWellFormed(events);
    const auto children = ChildrenBySpan(events);
    const auto kids = [&](const obs::TraceEvent* e) {
      const auto it = children.find(e->span_id);
      return it == children.end() ? std::vector<const obs::TraceEvent*>{}
                                  : it->second;
    };
    size_t queries = 0;
    for (const auto& e : events) {
      if (e.name != "knn.query") continue;
      ++queries;
      const auto unit = kids(&e);
      ASSERT_EQ(Keys(unit), query_children);
      for (const obs::TraceEvent* child : unit) {
        if (child->name != "knn.shard") {
          EXPECT_TRUE(kids(child).empty()) << child->name;
          continue;
        }
        const auto phases = kids(child);
        ASSERT_EQ(Keys(phases), shard_phases);
        for (const obs::TraceEvent* phase : phases) {
          const auto inner = kids(phase);
          if (phase->name == "knn.partial_distance") {
            EXPECT_EQ(Keys(inner), computes);
          } else {
            EXPECT_TRUE(inner.empty()) << phase->name;
          }
        }
      }
    }
    EXPECT_EQ(queries, units);
  }
}

TEST(OracleSpanTreeTest, ShardsHoldEachModesPhasesInOrder) {
  const OracleTreeCase kCases[] = {
      {"base-shards2-group3", vfl::KnnOracleMode::kBase, 2, 3},
      {"fagin-shards2", vfl::KnnOracleMode::kFagin, 2, 1},
      {"threshold", vfl::KnnOracleMode::kThreshold, 1, 1},
  };
  for (const OracleTreeCase& c : kCases) CheckOracleSpanTree(c);
}

}  // namespace
}  // namespace vfps
