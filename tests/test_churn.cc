// Churn suite: membership change under mid-run join/leave, incremental
// repair, and checkpoint/resume.
//
// The contracts proven here:
//   1. The churn mini-language (leave= / join= / heal= / part=) parses and
//      validates: only participants (node >= 1) may churn.
//   2. FaultInjector tracks churn deterministically: leaves are reported
//      separately from crashes, joins/heals fire against the stream-total
//      clock, and MarkHealed/MarkJoined suppress rules on later streams.
//   3. The retry layer converts a silently-eaten link into a typed PeerDead
//      with the straggler as a suspect; quarantining down to fewer than 3
//      survivors yields a typed Unavailable instead of a degenerate result.
//   4. Differential repair: for seeded leave/crash/partition/join/heal
//      schedules, the churn-tolerant selection equals a from-scratch run with
//      the final membership preset — bit-identical on the plain backend, at
//      1, 2, and 8 threads. VFPS_CHURN_SEEDS widens the seed sweep (CI runs
//      16).
//   5. Checkpoints round-trip bit-exactly (to a pinned digest), reject
//      corruption, crafted counts, participant ids outside P, mismatched run
//      shapes and a different training set or partition, and a resumed
//      selection (same, larger, or truncated target) matches the
//      uninterrupted run. Seeded mutations of a valid body never crash the
//      decoder or the resume.
//   6. The lazy-greedy scan resumes from a GreedyCheckpoint with the exact
//      picks and gains of an uninterrupted scan; a prefix naming a position
//      outside the ground set, or one twice, falls back to a cold start.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/greedy.h"
#include "core/submodular.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "topk/ranked_list.h"
#include "vfl/fed_knn.h"
#include "vfl/selection_cache.h"

namespace vfps {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Mini-language: churn rules

TEST(ChurnSpecTest, ParsesChurnRules) {
  auto spec = net::ParseFaultSpec(
      "leave=2@40,join=3@25,heal=2@60,part=3@10+20");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->leaves.size(), 1u);
  EXPECT_EQ(spec->leaves[0].node, 2);
  EXPECT_EQ(spec->leaves[0].after_sends, 40u);
  ASSERT_EQ(spec->joins.size(), 1u);
  EXPECT_EQ(spec->joins[0].node, 3);
  EXPECT_EQ(spec->joins[0].after_sends, 25u);
  ASSERT_EQ(spec->heals.size(), 1u);
  EXPECT_EQ(spec->heals[0].node, 2);
  EXPECT_EQ(spec->heals[0].after_sends, 60u);
  ASSERT_EQ(spec->partitions.size(), 1u);
  EXPECT_EQ(spec->partitions[0].node, 3);
  EXPECT_EQ(spec->partitions[0].after_sends, 10u);
  EXPECT_EQ(spec->partitions[0].drop_count, 20u);
  EXPECT_TRUE(spec->any());
}

TEST(ChurnSpecTest, OnlyParticipantsMayChurn) {
  // The leader (0) and the servers (negative ids) are structural; their
  // departure is not repairable, so the spec rejects them up front.
  for (const char* term : {"leave=0@5", "join=0@5", "heal=0@5", "part=0@5+2",
                           "leave=-1@5", "join=-2@5"}) {
    auto spec = net::ParseFaultSpec(term);
    ASSERT_FALSE(spec.ok()) << term;
    EXPECT_TRUE(spec.status().IsInvalidArgument()) << term;
  }
}

TEST(ChurnSpecTest, RejectsMalformedChurnRules) {
  EXPECT_FALSE(net::ParseFaultSpec("leave=2").ok());      // missing @
  EXPECT_FALSE(net::ParseFaultSpec("join=2@0").ok());     // after < 1
  EXPECT_FALSE(net::ParseFaultSpec("part=2@5").ok());     // missing +count
  EXPECT_FALSE(net::ParseFaultSpec("part=2@5+0").ok());   // count < 1
}

TEST(ChurnSpecTest, InitialAbsenteesAreJoinRuleNodes) {
  auto spec = net::ParseFaultSpec("join=3@25,join=2@10,join=3@40,leave=1@5");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->InitialAbsentees(), (std::vector<net::NodeId>{2, 3}));
  net::FaultSpec zero;
  EXPECT_TRUE(zero.InitialAbsentees().empty());
}

// ---------------------------------------------------------------------------
// FaultInjector churn bookkeeping

TEST(ChurnInjectorTest, LeaveIsReportedAsDeparture) {
  net::FaultSpec spec;
  spec.leaves.push_back({/*node=*/2, /*after_sends=*/3});
  net::FaultInjector injector(spec, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(injector.OnSend(2, 0).sender_dead);
  }
  EXPECT_TRUE(injector.NodeDead(2));
  EXPECT_TRUE(injector.OnSend(2, 0).sender_dead);
  // Dead like a crash at the transport level, but attributed as a departure.
  EXPECT_EQ(injector.DeadNodes(), std::vector<net::NodeId>{2});
  EXPECT_EQ(injector.DepartedNodes(), std::vector<net::NodeId>{2});
}

TEST(ChurnInjectorTest, CrashIsNotADeparture) {
  net::FaultSpec spec;
  spec.crashes.push_back({/*node=*/2, /*after_sends=*/1});
  net::FaultInjector injector(spec, 1);
  injector.OnSend(2, 0);
  EXPECT_EQ(injector.DeadNodes(), std::vector<net::NodeId>{2});
  EXPECT_TRUE(injector.DepartedNodes().empty());
}

TEST(ChurnInjectorTest, JoinFiresAgainstTheStreamTotal) {
  net::FaultSpec spec;
  spec.joins.push_back({/*node=*/3, /*after_sends=*/4});
  net::FaultInjector injector(spec, 1);
  EXPECT_TRUE(injector.NodeAbsent(3));
  EXPECT_TRUE(injector.JoinedNodes().empty());
  // An absent node's own sends are swallowed but still tick the stream total.
  EXPECT_TRUE(injector.OnSend(3, 0).sender_dead);
  // Other nodes' traffic advances the same clock.
  injector.OnSend(0, 1);
  injector.OnSend(1, 0);
  EXPECT_TRUE(injector.NodeAbsent(3));
  injector.OnSend(0, 1);  // stream total reaches 4
  EXPECT_FALSE(injector.NodeAbsent(3));
  EXPECT_EQ(injector.JoinedNodes(), std::vector<net::NodeId>{3});
}

TEST(ChurnInjectorTest, HealRevivesACrashedNode) {
  net::FaultSpec spec;
  spec.crashes.push_back({/*node=*/2, /*after_sends=*/1});
  spec.heals.push_back({/*node=*/2, /*after_sends=*/5});
  net::FaultInjector injector(spec, 1);
  injector.OnSend(2, 0);  // send 1 kills node 2 (stream total 1)
  EXPECT_TRUE(injector.NodeDead(2));
  EXPECT_TRUE(injector.HealedNodes().empty());
  // Swallowed retransmissions keep the stream clock ticking toward the heal.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(injector.OnSend(2, 0).sender_dead);
  EXPECT_TRUE(injector.NodeDead(2));
  injector.OnSend(2, 0);  // stream total reaches 5
  EXPECT_FALSE(injector.NodeDead(2));
  EXPECT_EQ(injector.HealedNodes(), std::vector<net::NodeId>{2});
  EXPECT_FALSE(injector.OnSend(2, 0).sender_dead);
  EXPECT_TRUE(injector.DepartedNodes().empty());
}

TEST(ChurnInjectorTest, PartitionDropsBothDirectionsInsideItsWindow) {
  net::FaultSpec spec;
  spec.partitions.push_back({/*node=*/2, /*after_sends=*/2, /*drop_count=*/3});
  net::FaultInjector injector(spec, 1);
  EXPECT_FALSE(injector.OnSend(2, 0).dropped);  // total 1: before the window
  EXPECT_TRUE(injector.OnSend(2, 0).dropped);   // total 2: outbound lost
  EXPECT_TRUE(injector.OnSend(0, 2).dropped);   // total 3: inbound lost
  EXPECT_FALSE(injector.OnSend(0, 1).dropped);  // total 4: other links fine
  EXPECT_FALSE(injector.OnSend(2, 0).dropped);  // total 5: window over
  // A partition is not a death: the node was never dead.
  EXPECT_TRUE(injector.DeadNodes().empty());
}

TEST(ChurnInjectorTest, MarkHealedSuppressesRulesOnLaterStreams) {
  // A healed node's crash/leave rules must not re-fire on a later fault
  // stream whose counters restart from zero — that would oscillate the node
  // in and out of quarantine forever.
  net::FaultSpec spec;
  spec.leaves.push_back({/*node=*/2, /*after_sends=*/1});
  net::FaultInjector later(spec, 7);
  later.MarkHealed(2);
  later.OnSend(2, 0);
  EXPECT_FALSE(later.NodeDead(2));
  EXPECT_TRUE(later.DepartedNodes().empty());
  EXPECT_FALSE(later.OnSend(2, 0).sender_dead);
}

TEST(ChurnInjectorTest, MarkJoinedSuppressesAbsenceOnLaterStreams) {
  net::FaultSpec spec;
  spec.joins.push_back({/*node=*/3, /*after_sends=*/1000});
  net::FaultInjector later(spec, 7);
  later.MarkJoined(3);
  EXPECT_FALSE(later.NodeAbsent(3));
  EXPECT_FALSE(later.OnSend(3, 0).sender_dead);
  EXPECT_EQ(later.JoinedNodes(), std::vector<net::NodeId>{3});
}

// ---------------------------------------------------------------------------
// Retry exhaustion -> suspect -> typed degradation

TEST(ChurnChannelTest, ExhaustionSuspectsTheStragglerNotTheLeader) {
  // A partition long enough to outlive any retry budget: the exhausted
  // channel must suspect the partitioned participant, never the leader.
  net::FaultSpec spec;
  spec.partitions.push_back(
      {/*node=*/1, /*after_sends=*/1, /*drop_count=*/100000});
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 3, &clock);
  net::ReliableChannel chan(&network, &clock);
  ASSERT_TRUE(chan.Send(1, 0, {42}).ok());
  auto got = chan.Recv(1, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsPeerDead()) << got.status().ToString();
  EXPECT_TRUE(network.NodeDead(1));
  EXPECT_FALSE(network.NodeDead(0));
}

TEST(ChurnChannelTest, RaisedBudgetOutlastsAPartitionWindow) {
  // The same outage, but short enough for a raised budget to bridge: the
  // exchange completes and nobody is suspected.
  net::FaultSpec spec;
  spec.partitions.push_back({/*node=*/1, /*after_sends=*/1, /*drop_count=*/8});
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 3, &clock);
  net::RetryPolicy policy;
  policy.max_attempts = 12;
  net::ReliableChannel chan(&network, &clock, policy);
  const std::vector<uint8_t> payload = {42, 7};
  ASSERT_TRUE(chan.Send(1, 0, payload).ok());
  auto got = chan.Recv(1, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(network.NodeDead(1));
}

// ---------------------------------------------------------------------------
// Shared deployment harness (mirrors test_chaos.cc)

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static Deployment Make(bool stratified = false) {
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
        stratified
            ? data::QualityStratifiedPartition(generated->kinds, 4, 9)
                  .MoveValueUnsafe()
            : data::RandomVerticalPartition(config.num_features, 4, 9)
                  .MoveValueUnsafe();
    d.backend = he::CreatePlainBackend();
    return d;
  }
};

TEST(ChurnOracleTest, QuarantineBelowThreeSurvivorsIsUnavailable) {
  // Quarantining every non-leader but one leaves a degenerate 2-party run —
  // the similarity matrix carries no signal, so the oracle refuses with a
  // typed Unavailable naming the survivor count.
  Deployment d = Deployment::Make();
  vfl::FederatedKnnOracle oracle(&d.split.train, &d.partition, d.backend.get(),
                                 &d.network, &d.cost, &d.clock,
                                 /*pool=*/nullptr, /*obs=*/nullptr);
  vfl::FedKnnConfig config;
  config.k = 6;
  config.num_queries = 4;
  config.seed = 11;
  config.quarantined = {2, 3};
  auto run = oracle.Run(config, nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsUnavailable()) << run.status().ToString();
  EXPECT_NE(run.status().ToString().find("2 active participant(s)"),
            std::string::npos)
      << run.status().ToString();
  EXPECT_NE(run.status().ToString().find(">= 3 survivors"), std::string::npos)
      << run.status().ToString();
}

// ---------------------------------------------------------------------------
// Differential: churn repair == from-scratch run over the final membership

struct ChurnOutcome {
  core::SelectionOutcome selection;
};

// Runs VFPS-SM selection. `spec` attaches a fault plan; `preset` primes the
// oracle config (used to replay a churned run's final membership on a
// fault-free network).
Result<ChurnOutcome> RunSelection(
    const net::FaultSpec* spec, uint64_t fault_seed, size_t threads,
    const vfl::FedKnnConfig* preset = nullptr,
    obs::MetricsRegistry* obs = nullptr,
    vfl::KnnOracleMode mode = vfl::KnnOracleMode::kFagin) {
  Deployment d = Deployment::Make();
  if (spec != nullptr) d.network.EnableFaults(*spec, fault_seed, &d.clock);
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
  if (preset != nullptr) ctx.knn = *preset;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 16;
  ctx.seed = 11;
  core::VfpsSmSelector selector(mode);
  auto outcome = selector.Select(ctx, 2);
  if (!outcome.ok()) return outcome.status();
  return ChurnOutcome{outcome.MoveValueUnsafe()};
}

size_t ChurnSeedCount() {
  const char* env = std::getenv("VFPS_CHURN_SEEDS");
  if (env == nullptr) return 4;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : 4;
}

// Each schedule mixes one churn event with light absorbable noise (the noise
// is what the seed sweep varies; the churn thresholds are deterministic). For
// every (schedule, seed, threads) cell the repaired selection must equal a
// from-scratch fault-free run with the same final membership preset —
// bit-identical on the plain backend. `layout` sets the oracle's row shards
// and pre-filter; the repair cache then holds one entry per shard.
void ExpectRepairEqualsRerun(const vfl::FedKnnConfig& layout) {
  struct Case {
    const char* schedule;
    std::vector<size_t> quarantined;  // expected final exclusions
  };
  const Case kCases[] = {
      {"leave=3@2,drop=0.02,corrupt=0.01", {3}},
      {"crash=2@3,drop=0.02,corrupt=0.01", {2}},
      {"part=3@6+2000,drop=0.02,corrupt=0.01", {3}},
      {"join=3@8,drop=0.02,corrupt=0.01", {}},  // newcomer spliced in
      // The heal threshold is never reached, so the crash sticks. (A heal
      // that does fire is proven bit-identical in test_chaos.)
      {"crash=2@3,heal=2@100000,drop=0.02,corrupt=0.01", {2}},
  };
  const size_t seeds = ChurnSeedCount();

  for (const Case& c : kCases) {
    auto spec = net::ParseFaultSpec(c.schedule);
    ASSERT_TRUE(spec.ok()) << c.schedule << ": " << spec.status().ToString();
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      // Baseline at one thread; the thread loop checks both the differential
      // and thread invariance against it.
      auto churned1 = RunSelection(&*spec, seed, 1, &layout);
      ASSERT_TRUE(churned1.ok()) << c.schedule << " seed=" << seed << ": "
                                 << churned1.status().ToString();
      EXPECT_EQ(churned1->selection.quarantined, c.quarantined)
          << c.schedule << " seed=" << seed;

      // From-scratch reference: fault-free network, final membership preset.
      vfl::FedKnnConfig preset = layout;
      preset.quarantined = churned1->selection.quarantined;
      preset.absent = churned1->selection.absent;
      auto reference = RunSelection(nullptr, 0, 1, &preset);
      ASSERT_TRUE(reference.ok()) << c.schedule << " seed=" << seed << ": "
                                  << reference.status().ToString();
      EXPECT_EQ(churned1->selection.selected, reference->selection.selected)
          << c.schedule << " seed=" << seed;
      EXPECT_EQ(churned1->selection.scores, reference->selection.scores)
          << c.schedule << " seed=" << seed;

      for (size_t threads : kThreadCounts) {
        if (threads == 1) continue;  // the baseline above
        auto churned = RunSelection(&*spec, seed, threads, &layout);
        ASSERT_TRUE(churned.ok()) << c.schedule << " seed=" << seed
                                  << " threads=" << threads << ": "
                                  << churned.status().ToString();
        EXPECT_EQ(churned->selection.selected, churned1->selection.selected)
            << c.schedule << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(churned->selection.scores, churned1->selection.scores)
            << c.schedule << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(churned->selection.quarantined,
                  churned1->selection.quarantined)
            << c.schedule << " seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(ChurnDifferentialTest, RepairEqualsRerunOverFinalMembership) {
  ExpectRepairEqualsRerun(vfl::FedKnnConfig{});
}

TEST(ChurnDifferentialTest, ShardedRepairEqualsRerunOverFinalMembership) {
  vfl::FedKnnConfig layout;
  layout.shards = 3;
  ExpectRepairEqualsRerun(layout);
}

TEST(ChurnDifferentialTest, PrefilterRepairEqualsRerunOverFinalMembership) {
  // The pre-filter's nominations are a union over the active parties, so a
  // leave or join changes the candidate rows of a repaired unit; cached
  // entries must only be reused when they cover exactly the new rows.
  vfl::FedKnnConfig layout;
  layout.shards = 2;
  layout.prefilter_clusters = 8;
  ExpectRepairEqualsRerun(layout);
}

TEST(ChurnDifferentialTest, JoinSpliceReportsTheNewcomer) {
  auto spec = net::ParseFaultSpec("join=3@8");
  ASSERT_TRUE(spec.ok());
  // The repair cache holds one entry per (unit, shard, party), so a sharded
  // run splices incrementally too, for BASE as for Fagin.
  struct Case {
    size_t shards;
    vfl::KnnOracleMode mode;
  };
  for (const Case& c : {Case{1, vfl::KnnOracleMode::kFagin},
                        Case{3, vfl::KnnOracleMode::kFagin},
                        Case{3, vfl::KnnOracleMode::kBase}}) {
    vfl::FedKnnConfig layout;
    layout.shards = c.shards;
    obs::MetricsRegistry obs;
    auto churned = RunSelection(&*spec, 1, 1, &layout, &obs, c.mode);
    ASSERT_TRUE(churned.ok()) << churned.status().ToString();
    const std::string label = StrFormat(
        "shards=%zu mode=%s", c.shards, vfl::KnnOracleModeName(c.mode));
    // The newcomer joined: nobody is left absent and the splice was counted.
    EXPECT_TRUE(churned->selection.absent.empty()) << label;
    EXPECT_TRUE(churned->selection.quarantined.empty()) << label;
    EXPECT_EQ(obs.GetCounter("select.repair.joins")->Value(), 1u) << label;
    EXPECT_GE(obs.GetCounter("select.repair.rounds")->Value(), 1u) << label;
    // Incremental repair actually reused the first pass's contributions.
    EXPECT_GT(obs.GetCounter("select.repair.reused_contributions")->Value(),
              0u)
        << label;
  }
}

TEST(ChurnOracleTest, PrefilterCacheNeverSplicesOtherCandidateRows) {
  // Swapping one participant for another keeps the survivor count, so a
  // unit's pre-filter nominations can keep their size per shard while their
  // rows change (a pure leave cannot: it only shrinks the union). A cache
  // run over {0,1,2} followed by a run over {0,1,3} must still equal a cold
  // run over {0,1,3}, exactly. Wide nominations (k = 40 over four clusters)
  // make such equal-size, different-row shard slices common.
  for (vfl::KnnOracleMode mode :
       {vfl::KnnOracleMode::kBase, vfl::KnnOracleMode::kFagin}) {
    vfl::FedKnnConfig config;
    config.mode = mode;
    config.k = 40;
    config.num_queries = 16;
    config.seed = 11;
    config.shards = 2;
    config.prefilter_clusters = 4;

    Deployment warm = Deployment::Make();
    vfl::FederatedKnnOracle oracle(&warm.split.train, &warm.partition,
                                   warm.backend.get(), &warm.network,
                                   &warm.cost, &warm.clock);
    vfl::SelectionCache cache;
    oracle.set_cache(&cache);
    config.quarantined = {3};
    ASSERT_TRUE(oracle.Run(config, nullptr).ok());
    config.quarantined = {2};
    auto repaired = oracle.Run(config, nullptr);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();

    Deployment cold = Deployment::Make();
    vfl::FederatedKnnOracle fresh(&cold.split.train, &cold.partition,
                                  cold.backend.get(), &cold.network,
                                  &cold.cost, &cold.clock);
    auto reference = fresh.Run(config, nullptr);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(repaired->size(), reference->size());
    for (size_t q = 0; q < reference->size(); ++q) {
      EXPECT_EQ((*repaired)[q].neighbors, (*reference)[q].neighbors)
          << vfl::KnnOracleModeName(mode) << " query " << q;
      EXPECT_EQ((*repaired)[q].per_party_dt, (*reference)[q].per_party_dt)
          << vfl::KnnOracleModeName(mode) << " query " << q;
    }
  }
}

TEST(ChurnOracleTest, JoinReadsPastCachedPrefixesAndEqualsAColdRun) {
  // A run over {0,1,2} caches each party's ranked prefix only as deep as
  // its Fagin merge read. Admitting participant 3 adds a fourth list that
  // must also see k common items, so the rerun reads past cached prefixes:
  // each such ranking is rebuilt from the cached scores, the cache keeps
  // the longer prefix, and the output equals a cold run over {0,1,2,3}.
  vfl::FedKnnConfig config;
  config.mode = vfl::KnnOracleMode::kFagin;
  config.k = 6;
  config.num_queries = 16;
  config.seed = 11;
  config.fagin_batch = 4;

  Deployment warm = Deployment::Make();
  vfl::FederatedKnnOracle oracle(&warm.split.train, &warm.partition,
                                 warm.backend.get(), &warm.network, &warm.cost,
                                 &warm.clock);
  vfl::SelectionCache cache;
  oracle.set_cache(&cache);
  config.absent = {3};
  ASSERT_TRUE(oracle.Run(config, nullptr).ok());
  std::vector<size_t> cached_depth;  // party 0's cached prefix, per unit
  for (size_t u = 0; u < config.num_queries; ++u) {
    cached_depth.push_back(cache.unit(u)->shards[0].at(0).order.size());
  }

  config.absent.clear();
  vfl::FedKnnStats stats;
  auto repaired = oracle.Run(config, &stats);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(stats.reused_contributions, 3 * config.num_queries);
  size_t read_deeper = 0;
  for (size_t u = 0; u < config.num_queries; ++u) {
    const vfl::PartyUnitState& entry = cache.unit(u)->shards[0].at(0);
    EXPECT_GE(entry.order.size(), cached_depth[u]) << "unit " << u;
    if (entry.order.size() > cached_depth[u]) ++read_deeper;
    // The cached prefix is the head of the party's full ranking.
    const std::vector<uint64_t> full =
        topk::RankedListSet::SortedOrder(*entry.values);
    ASSERT_LE(entry.order.size(), full.size());
    EXPECT_TRUE(std::equal(entry.order.begin(), entry.order.end(),
                           full.begin()))
        << "unit " << u;
  }
  EXPECT_GT(read_deeper, 0u) << "no unit read past its cached prefix";

  Deployment cold = Deployment::Make();
  vfl::FederatedKnnOracle fresh(&cold.split.train, &cold.partition,
                                cold.backend.get(), &cold.network, &cold.cost,
                                &cold.clock);
  auto reference = fresh.Run(config, nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(repaired->size(), reference->size());
  for (size_t q = 0; q < reference->size(); ++q) {
    EXPECT_EQ((*repaired)[q].neighbors, (*reference)[q].neighbors) << q;
    EXPECT_EQ((*repaired)[q].per_party_dt, (*reference)[q].per_party_dt) << q;
  }
}

TEST(ChurnDifferentialTest, JoinThresholdNeverReachedKeepsNodeAbsent) {
  auto spec = net::ParseFaultSpec("join=3@100000");
  ASSERT_TRUE(spec.ok());
  auto churned = RunSelection(&*spec, 1, 1);
  ASSERT_TRUE(churned.ok()) << churned.status().ToString();
  EXPECT_EQ(churned->selection.absent, std::vector<size_t>{3});
  for (size_t id : churned->selection.selected) {
    EXPECT_NE(id, 3u) << "an absent participant must never be selected";
  }
  EXPECT_EQ(churned->selection.scores[3], 0.0);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume

core::SelectionContext MakeContext(Deployment* d, uint64_t seed = 11) {
  core::SelectionContext ctx;
  ctx.split = &d->split;
  ctx.partition = &d->partition;
  ctx.backend = d->backend.get();
  ctx.network = &d->network;
  ctx.cost = &d->cost;
  ctx.clock = &d->clock;
  ctx.knn.k = 6;
  ctx.knn.num_queries = 16;
  ctx.seed = seed;
  return ctx;
}

TEST(CheckpointTest, SerializeRoundTripsBitExactly) {
  Deployment d = Deployment::Make();
  core::SelectionContext ctx = MakeContext(&d);
  core::SelectionCheckpoint ckp;
  ctx.checkpoint = &ckp;
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  auto outcome = selector.Select(ctx, 2);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(ckp.shape.num_participants, 4u);
  ASSERT_EQ(ckp.neighborhoods.size(), 16u);

  const std::vector<uint8_t> bytes = ckp.Serialize();
  auto restored = core::SelectionCheckpoint::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->shape, ckp.shape);
  EXPECT_EQ(restored->target, ckp.target);
  EXPECT_EQ(restored->party_digests, ckp.party_digests);
  EXPECT_EQ(restored->greedy.selected, ckp.greedy.selected);
  EXPECT_EQ(restored->greedy.gains, ckp.greedy.gains);
  EXPECT_EQ(restored->greedy.best, ckp.greedy.best);
  EXPECT_EQ(restored->greedy.bounds, ckp.greedy.bounds);
  EXPECT_EQ(restored->value, ckp.value);
  ASSERT_EQ(restored->neighborhoods.size(), ckp.neighborhoods.size());
  for (size_t q = 0; q < ckp.neighborhoods.size(); ++q) {
    EXPECT_EQ(restored->neighborhoods[q].query_row,
              ckp.neighborhoods[q].query_row);
    EXPECT_EQ(restored->neighborhoods[q].neighbors,
              ckp.neighborhoods[q].neighbors);
    EXPECT_EQ(restored->neighborhoods[q].per_party_dt,
              ckp.neighborhoods[q].per_party_dt);
  }
  // And the byte stream itself is deterministic.
  EXPECT_EQ(restored->Serialize(), bytes);
}

TEST(CheckpointTest, SerializedBytesMatchThePinnedDigest) {
  // The SerializeRoundTripsBitExactly run, pinned: any change to the wire
  // format or to the values it carries moves this digest. A deliberate
  // format change must bump the magic and re-pin.
  Deployment d = Deployment::Make();
  core::SelectionContext ctx = MakeContext(&d);
  core::SelectionCheckpoint ckp;
  ctx.checkpoint = &ckp;
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  ASSERT_TRUE(selector.Select(ctx, 2).ok());
  const std::vector<uint8_t> bytes = ckp.Serialize();
  EXPECT_EQ(bytes.size(), 1848u);
  EXPECT_EQ(Crc32(bytes), 0xC854206Cu);
}

TEST(CheckpointTest, EveryCorruptByteIsRejected) {
  Deployment d = Deployment::Make();
  core::SelectionContext ctx = MakeContext(&d);
  core::SelectionCheckpoint ckp;
  ctx.checkpoint = &ckp;
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  ASSERT_TRUE(selector.Select(ctx, 2).ok());
  const std::vector<uint8_t> bytes = ckp.Serialize();
  // Flip one bit in a sample of positions across the frame (every 97th byte
  // keeps the test fast); the CRC frame must reject each one.
  for (size_t pos = 0; pos < bytes.size(); pos += 97) {
    std::vector<uint8_t> mangled = bytes;
    mangled[pos] ^= 0x20;
    auto restored = core::SelectionCheckpoint::Deserialize(mangled);
    EXPECT_FALSE(restored.ok()) << "byte " << pos << " flip went unnoticed";
  }
  // Truncation is rejected too.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_FALSE(core::SelectionCheckpoint::Deserialize(truncated).ok());
}

TEST(CheckpointTest, FileRoundTripAndResumeMatchUninterruptedRun) {
  const std::string path = "churn_checkpoint_test.bin";
  core::SelectionOutcome direct;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    core::SelectionCheckpoint ckp;
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto outcome = selector.Select(ctx, 2);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    direct = outcome.MoveValueUnsafe();
    ASSERT_TRUE(ckp.SaveFile(path).ok());
  }
  auto loaded = core::SelectionCheckpoint::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  {
    // Resume on a fresh deployment: the oracle phase is skipped (the network
    // sees no traffic) and the outcome matches the uninterrupted run.
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &*loaded;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 2);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->selected, direct.selected);
    EXPECT_EQ(resumed->scores, direct.scores);
    EXPECT_EQ(d.network.total().messages, 0u)
        << "a resumed selection must not rerun the oracle";
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResumeWithLargerTargetContinuesTheScan) {
  // Checkpoint a target-1 run, resume it to target 2: the continued scan
  // must equal the uninterrupted target-2 run.
  core::SelectionCheckpoint ckp;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 1).ok());
    ASSERT_EQ(ckp.greedy.selected.size(), 1u);
  }
  core::SelectionOutcome direct;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto outcome = selector.Select(ctx, 2);
    ASSERT_TRUE(outcome.ok());
    direct = outcome.MoveValueUnsafe();
  }
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 2);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->selected, direct.selected);
    EXPECT_EQ(resumed->scores, direct.scores);
  }
}

TEST(CheckpointTest, ResumeWithTruncatedTargetReplaysThePrefix) {
  core::SelectionCheckpoint ckp;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 3).ok());
  }
  core::SelectionOutcome direct;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto outcome = selector.Select(ctx, 1);
    ASSERT_TRUE(outcome.ok());
    direct = outcome.MoveValueUnsafe();
  }
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 1);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->selected, direct.selected);
    EXPECT_EQ(resumed->scores, direct.scores);
  }
}

TEST(CheckpointTest, MismatchedRunShapeIsRejected) {
  core::SelectionCheckpoint ckp;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 2).ok());
  }
  {
    // Different consortium seed -> different oracle output shape; resuming
    // must be refused, not silently produce a stale selection.
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d, /*seed=*/12);
    ctx.resume = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 2);
    ASSERT_FALSE(resumed.ok());
    EXPECT_TRUE(resumed.status().IsInvalidArgument())
        << resumed.status().ToString();
  }
  {
    // A different oracle mode is a shape mismatch too.
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kBase);
    EXPECT_FALSE(selector.Select(ctx, 2).ok());
  }
}

TEST(CheckpointTest, TamperedNeighborhoodFailsTheDigestCheck) {
  core::SelectionCheckpoint ckp;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 2).ok());
  }
  // Drift one d_T value (as a buggy writer might) without re-deriving the
  // digests: the resume must detect the inconsistency.
  ckp.neighborhoods[3].per_party_dt[1] += 1.0;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 2);
    ASSERT_FALSE(resumed.ok());
    EXPECT_TRUE(resumed.status().IsCorrupt()) << resumed.status().ToString();
  }
}

TEST(CheckpointTest, ResumeOnOtherDataOrPartitionIsRejected) {
  core::SelectionCheckpoint ckp;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 2).ok());
  }
  const auto expect_rejected = [&](Deployment* d, const char* label) {
    core::SelectionContext ctx = MakeContext(d);
    ctx.resume = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 2);
    ASSERT_FALSE(resumed.ok()) << label;
    EXPECT_TRUE(resumed.status().IsInvalidArgument())
        << label << ": " << resumed.status().ToString();
    EXPECT_NE(resumed.status().ToString().find("data_digest"),
              std::string::npos)
        << label << ": " << resumed.status().ToString();
  };
  {
    // Same data, same N and P, but the columns are dealt out differently.
    Deployment d = Deployment::Make(/*stratified=*/true);
    ASSERT_NE(d.partition, Deployment::Make().partition);
    expect_rejected(&d, "stratified partition");
  }
  {
    // Same partition, one training value changed.
    Deployment d = Deployment::Make();
    d.split.train.Set(0, 0, d.split.train.At(0, 0) + 1.0);
    expect_rejected(&d, "edited training data");
  }
}

TEST(CheckpointTest, ParticipantIdsOutsidePAreCorruptNotAnOverread) {
  core::SelectionCheckpoint valid;
  {
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &valid;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 2).ok());
  }
  const auto expect_corrupt = [](const core::SelectionCheckpoint& crafted,
                                 const char* label) {
    // Through the file format, as a crafted file would arrive.
    auto loaded = core::SelectionCheckpoint::Deserialize(crafted.Serialize());
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
    Deployment d = Deployment::Make();
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &*loaded;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto resumed = selector.Select(ctx, 2);
    ASSERT_FALSE(resumed.ok()) << label;
    EXPECT_TRUE(resumed.status().IsCorrupt())
        << label << ": " << resumed.status().ToString();
  };
  {
    // Three d_T values per neighborhood for P = 4, with digests re-derived
    // to agree (they skip missing values), and a quarantined party so the
    // resume compacts to survivors.
    core::SelectionCheckpoint crafted = valid;
    crafted.quarantined = {2};
    for (vfl::QueryNeighborhood& hood : crafted.neighborhoods) {
      hood.per_party_dt.pop_back();
    }
    crafted.party_digests = core::SelectionCheckpoint::ComputePartyDigests(
        crafted.neighborhoods, 4);
    expect_corrupt(crafted, "short d_T vectors");
  }
  for (size_t id : {size_t{0}, size_t{4}, ~size_t{0}}) {
    core::SelectionCheckpoint crafted = valid;
    crafted.absent = {id};
    expect_corrupt(crafted, "membership id outside [1, P)");
  }
}

// Re-frames a checkpoint body behind the magic with a valid CRC, as a
// crafted file would be.
std::vector<uint8_t> FrameCheckpointBody(const std::vector<uint8_t>& body) {
  BinaryWriter out;
  for (char c : std::string("VFPSCKP3")) out.WriteU8(static_cast<uint8_t>(c));
  out.WriteCrcFramed(body);
  return out.TakeBytes();
}

void PatchU32(std::vector<uint8_t>* body, size_t offset, uint32_t expected,
              uint32_t value) {
  uint32_t was = 0;
  std::memcpy(&was, body->data() + offset, sizeof(was));
  ASSERT_EQ(was, expected) << "body layout changed at offset " << offset;
  std::memcpy(body->data() + offset, &value, sizeof(value));
}

TEST(CheckpointTest, CraftedCountIsCorruptNotAnAbort) {
  core::SelectionCheckpoint ckp;
  ckp.neighborhoods.resize(3);
  ckp.greedy.selected = {5, 6};
  const std::vector<uint8_t> file = ckp.Serialize();
  BinaryReader framed(file.data() + 8, file.size() - 8);
  const std::vector<uint8_t> body = framed.ReadCrcFramed().ValueOrDie();
  // Body layout: ten u64 fingerprint fields, the u32 data digest, the u64
  // target and four empty membership lists (one u32 count each); then the
  // neighborhood count, three empty neighborhoods (u64 row + two u32
  // counts), the empty party-digest list and the greedy selection's count.
  constexpr size_t kHoodCount = 10 * 8 + 4 + 8 + 4 * 4;
  constexpr size_t kSelectedCount = kHoodCount + 4 + 3 * 16 + 4;
  ASSERT_TRUE(core::SelectionCheckpoint::Deserialize(FrameCheckpointBody(body))
                  .ok());
  for (const auto& [offset, expected] :
       {std::pair<size_t, uint32_t>{kHoodCount, 3},
        std::pair<size_t, uint32_t>{kSelectedCount, 2}}) {
    std::vector<uint8_t> crafted = body;
    PatchU32(&crafted, offset, expected, 0xFFFFFFFFu);
    auto restored =
        core::SelectionCheckpoint::Deserialize(FrameCheckpointBody(crafted));
    ASSERT_FALSE(restored.ok()) << "offset " << offset;
    EXPECT_TRUE(restored.status().IsCorrupt())
        << "offset " << offset << ": " << restored.status().ToString();
  }
}

TEST(CheckpointTest, MutatedBodiesNeverCrashTheDecoderOrTheResume) {
  // Seeded mutations of a valid body, each re-framed with a correct CRC so
  // the parser and the resume path are exercised, not the frame check.
  Deployment d = Deployment::Make();
  core::SelectionCheckpoint ckp;
  {
    core::SelectionContext ctx = MakeContext(&d);
    ctx.checkpoint = &ckp;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    ASSERT_TRUE(selector.Select(ctx, 2).ok());
  }
  const std::vector<uint8_t> file = ckp.Serialize();
  BinaryReader framed(file.data() + 8, file.size() - 8);
  const std::vector<uint8_t> body = framed.ReadCrcFramed().ValueOrDie();

  Rng rng(0x5EED);
  size_t decoded = 0;
  size_t resumed_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> mutated = body;
    const size_t pos = rng.NextBounded(mutated.size());
    switch (rng.NextBounded(4)) {
      case 0:  // bit flip
        mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
        break;
      case 1: {  // u32 overwrite: a small count, a huge one, or noise
        const uint32_t values[] = {0, 1, 2, 3, 4, 5, 0x7FFFFFFFu, 0xFFFFFFFFu,
                                   static_cast<uint32_t>(rng.Next())};
        const uint32_t v = values[rng.NextBounded(std::size(values))];
        std::memcpy(mutated.data() + pos, &v,
                    std::min(sizeof(v), mutated.size() - pos));
        break;
      }
      case 2:  // truncation
        mutated.resize(pos);
        break;
      default: {  // a span duplicated in place
        const size_t len = 1 + rng.NextBounded(
                                   std::min<size_t>(64, mutated.size() - pos));
        const std::vector<uint8_t> span(mutated.begin() + pos,
                                        mutated.begin() + pos + len);
        mutated.insert(mutated.begin() + pos, span.begin(), span.end());
        break;
      }
    }
    const std::vector<uint8_t> file_bytes = FrameCheckpointBody(mutated);
    auto restored = core::SelectionCheckpoint::Deserialize(file_bytes);
    if (!restored.ok()) continue;
    ++decoded;
    ASSERT_EQ(restored->Serialize(), file_bytes) << "mutation " << i;
    core::SelectionContext ctx = MakeContext(&d);
    ctx.resume = &*restored;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    if (selector.Select(ctx, 2).ok()) ++resumed_ok;
  }
  // The mix must reach both the decoder's accept path and a full resume.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(resumed_ok, 0u);
}

// ---------------------------------------------------------------------------
// Greedy checkpoint/resume (unit level)

core::SimilarityMatrix RandomSimilarity(size_t p, uint64_t seed) {
  core::SimilarityMatrix m(p);
  Rng rng(seed);
  for (size_t a = 0; a < p; ++a) {
    m.Set(a, a, 1.0);
    for (size_t b = a + 1; b < p; ++b) m.Set(a, b, rng.NextDouble());
  }
  return m;
}

TEST(GreedyCheckpointTest, ResumeContinuesTheScanExactly) {
  const core::SimilarityMatrix m = RandomSimilarity(9, 1234);
  core::KnnSubmodularFunction f(m);
  const core::GreedyResult full = core::LazyGreedyMaximize(f, 5);

  core::GreedyCheckpoint mid;
  const core::GreedyResult prefix =
      core::LazyGreedyMaximize(f, 2, nullptr, &mid);
  ASSERT_EQ(prefix.selected.size(), 2u);
  EXPECT_EQ(mid.selected, prefix.selected);
  EXPECT_EQ(mid.value, prefix.value);

  core::GreedyCheckpoint final_state;
  const core::GreedyResult resumed =
      core::LazyGreedyMaximize(f, 5, &mid, &final_state);
  EXPECT_EQ(resumed.selected, full.selected);
  EXPECT_EQ(resumed.gains, full.gains);
  EXPECT_EQ(resumed.value, full.value);
  EXPECT_EQ(final_state.selected, full.selected);
  // The resumed scan must do strictly less work than the full scan (the
  // point of checkpointing): only the remaining rounds are evaluated.
  EXPECT_LT(resumed.evaluations, full.evaluations);
}

TEST(GreedyCheckpointTest, TruncatedTargetReplaysThePrefix) {
  const core::SimilarityMatrix m = RandomSimilarity(8, 77);
  core::KnnSubmodularFunction f(m);
  core::GreedyCheckpoint mid;
  core::LazyGreedyMaximize(f, 4, nullptr, &mid);

  const core::GreedyResult direct = core::LazyGreedyMaximize(f, 2);
  core::GreedyCheckpoint truncated_state;
  const core::GreedyResult truncated =
      core::LazyGreedyMaximize(f, 2, &mid, &truncated_state);
  EXPECT_EQ(truncated.selected, direct.selected);
  EXPECT_EQ(truncated.gains, direct.gains);
  EXPECT_EQ(truncated.value, direct.value);
  // A truncated resume costs no marginal-gain evaluations at all.
  EXPECT_EQ(truncated.evaluations, 0u);
  // ...and its own checkpoint can still seed a longer run.
  const core::GreedyResult regrown =
      core::LazyGreedyMaximize(f, 4, &truncated_state, nullptr);
  const core::GreedyResult full = core::LazyGreedyMaximize(f, 4);
  EXPECT_EQ(regrown.selected, full.selected);
  EXPECT_EQ(regrown.gains, full.gains);
}

TEST(GreedyCheckpointTest, MalformedResumeFallsBackToColdStart) {
  const core::SimilarityMatrix m = RandomSimilarity(7, 5);
  core::KnnSubmodularFunction f(m);
  const core::GreedyResult full = core::LazyGreedyMaximize(f, 3);

  core::GreedyCheckpoint bogus;  // empty vectors: wrong ground-set size
  bogus.selected = {1};
  const core::GreedyResult resumed =
      core::LazyGreedyMaximize(f, 3, &bogus, nullptr);
  EXPECT_EQ(resumed.selected, full.selected);
  EXPECT_EQ(resumed.gains, full.gains);
}

TEST(GreedyCheckpointTest, OutOfRangeOrRepeatedPrefixFallsBackToColdStart) {
  // Sizes all match the ground set, so only the ids themselves are wrong.
  const core::SimilarityMatrix m = RandomSimilarity(7, 5);
  core::KnnSubmodularFunction f(m);
  core::GreedyCheckpoint valid;
  core::LazyGreedyMaximize(f, 2, nullptr, &valid);
  for (const std::vector<size_t>& prefix :
       {std::vector<size_t>{valid.selected[0], 7},
        std::vector<size_t>{99, valid.selected[1]},
        std::vector<size_t>{valid.selected[0], valid.selected[0]}}) {
    core::GreedyCheckpoint bogus = valid;
    bogus.selected = prefix;
    for (size_t target : {1, 3}) {  // truncating and continuing resumes
      const core::GreedyResult cold = core::LazyGreedyMaximize(f, target);
      const core::GreedyResult resumed =
          core::LazyGreedyMaximize(f, target, &bogus, nullptr);
      EXPECT_EQ(resumed.selected, cold.selected) << "target " << target;
      EXPECT_EQ(resumed.gains, cold.gains) << "target " << target;
    }
  }
}

}  // namespace
}  // namespace vfps
