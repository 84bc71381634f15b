// Chaos suite for the fault-injectable cluster: seeded network faults, the
// retry/timeout channel, and graceful participant degradation.
//
// The contracts proven here:
//   1. Fault schedules are a pure function of (spec, seed) — same seed, same
//      faults, same outcome; different seed, different schedule.
//   2. Faults that retries absorb (drop / duplicate / corrupt / delay /
//      stall) leave the VFPS-SM selection *output* bit-identical to the
//      fault-free run, at 1, 2, and 8 threads.
//   3. A participant crash mid-oracle degrades gracefully: the dead
//      participant is quarantined, selection completes over the survivors,
//      and the event is reported in SelectionOutcome::quarantined.
//   4. Churn converges: a participant that stalls out (leave=) and later
//      heals (heal=) is quarantined, repaired around, then spliced back in —
//      and the final output matches the fault-free run bit for bit.
//
// Deeper churn-rule units and the repair-equals-rerun differential live in
// test_churn.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// FaultSpec parsing

TEST(FaultSpecTest, ParsesFullMiniLanguage) {
  auto spec = net::ParseFaultSpec(
      "drop=0.05,dup=0.01,corrupt=0.02,delay=0.1:0.05,crash=2@40,stall=3@10+5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->drop_prob, 0.05);
  EXPECT_DOUBLE_EQ(spec->duplicate_prob, 0.01);
  EXPECT_DOUBLE_EQ(spec->corrupt_prob, 0.02);
  EXPECT_DOUBLE_EQ(spec->delay_prob, 0.1);
  EXPECT_DOUBLE_EQ(spec->delay_seconds, 0.05);
  ASSERT_EQ(spec->crashes.size(), 1u);
  EXPECT_EQ(spec->crashes[0].node, 2);
  EXPECT_EQ(spec->crashes[0].after_sends, 40u);
  ASSERT_EQ(spec->stalls.size(), 1u);
  EXPECT_EQ(spec->stalls[0].node, 3);
  EXPECT_EQ(spec->stalls[0].after_sends, 10u);
  EXPECT_EQ(spec->stalls[0].drop_count, 5u);
  EXPECT_TRUE(spec->any());
}

TEST(FaultSpecTest, EmptyInputIsZeroSpec) {
  auto spec = net::ParseFaultSpec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->any());
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  EXPECT_FALSE(net::ParseFaultSpec("drop=1.5").ok());
  EXPECT_FALSE(net::ParseFaultSpec("drop").ok());
  EXPECT_FALSE(net::ParseFaultSpec("bogus=1").ok());
  EXPECT_FALSE(net::ParseFaultSpec("delay=0.5").ok());       // missing seconds
  EXPECT_FALSE(net::ParseFaultSpec("crash=2").ok());         // missing @
  EXPECT_FALSE(net::ParseFaultSpec("crash=2@0").ok());       // after < 1
  EXPECT_FALSE(net::ParseFaultSpec("stall=3@10").ok());      // missing +count
  EXPECT_FALSE(net::ParseFaultSpec("delay=0.1:0").ok());     // zero seconds
  EXPECT_FALSE(net::ParseFaultSpec("drop=nan").ok());
  EXPECT_FALSE(net::ParseFaultSpec("delay=nan:0.5").ok());
  EXPECT_FALSE(net::ParseFaultSpec("delay=0.1:inf").ok());
  EXPECT_FALSE(net::ParseFaultSpec("delay=0.1:nan").ok());
}

TEST(FaultSpecTest, RejectsNodeIdsOutsideTheNodeRange) {
  // Narrowed to NodeId, each id would name another node: 4294967299 node 3,
  // -4294967294 node 2, 4294967297 node 1, 2147483648 node -2147483648.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"leave=4294967299@10", "4294967299"},
      {"crash=-4294967294@5", "-4294967294"},
      {"part=4294967297@6+2000", "4294967297"},
      {"leave=2147483648@10", "2147483648"},
      {"stall=-2147483649@1+1", "-2147483649"},
      {"drop=0.01,join=9223372036854775807@3", "9223372036854775807"},
  };
  for (const auto& [text, id] : cases) {
    auto spec = net::ParseFaultSpec(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_TRUE(spec.status().IsInvalidArgument()) << text;
    // The message quotes the id as written.
    EXPECT_NE(spec.status().message().find("'" + id + "'"), std::string::npos)
        << spec.status().ToString();
  }
  // The ends of the range still parse (a crash may name any node).
  EXPECT_TRUE(net::ParseFaultSpec("crash=2147483647@1").ok());
  EXPECT_TRUE(net::ParseFaultSpec("crash=-2147483648@1").ok());
}

// Seeded mutation fuzz of the --fault-spec parser. Mutants of valid specs
// (a digit run replaced by an extreme value, a flipped byte, a truncation,
// a duplicated term) must never crash it, and every spec it accepts must
// pass Validate() and hold only in-range values.
TEST(FaultSpecTest, MutatedSpecsNeverCrashAndAcceptedOnesValidate) {
  const std::vector<std::string> seeds = {
      "drop=0.05,dup=0.01,corrupt=0.02,delay=0.1:0.05",
      "crash=2@40,stall=3@10+5,leave=2@40",
      "join=3@25,heal=2@60,part=3@10+20",
      "drop=0.08,corrupt=0.05,delay=0.15:0.02,leave=3@2,heal=3@30",
  };
  const std::vector<std::string> extremes = {
      "",           "0",          "-0",         "1",
      "-1",         "2147483647", "2147483648", "-2147483648",
      "-2147483649", "4294967295", "4294967296", "4294967299",
      "9223372036854775807",      "9223372036854775808",
      "-9223372036854775808",     "99999999999999999999",
      "1e308",      "1e-320",     "nan",        "inf",
  };
  Rng rng(20261017);
  size_t accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string text = seeds[rng.NextBounded(seeds.size())];
    const uint64_t mutations = 1 + rng.NextBounded(3);
    for (uint64_t m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(4)) {
        case 0: {  // replace one digit run
          std::vector<std::pair<size_t, size_t>> runs;
          for (size_t i = 0; i < text.size();) {
            if (text[i] < '0' || text[i] > '9') {
              ++i;
              continue;
            }
            size_t end = i;
            while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
              ++end;
            }
            runs.emplace_back(i, end);
            i = end;
          }
          if (runs.empty()) break;
          const auto [begin, end] = runs[rng.NextBounded(runs.size())];
          text.replace(begin, end - begin,
                       extremes[rng.NextBounded(extremes.size())]);
          break;
        }
        case 1:  // flip a byte
          if (!text.empty()) {
            text[rng.NextBounded(text.size())] ^=
                static_cast<char>(1 + rng.NextBounded(255));
          }
          break;
        case 2:  // truncate
          text.resize(rng.NextBounded(text.size() + 1));
          break;
        default: {  // duplicate a term
          const std::vector<std::string> terms = SplitString(text, ',');
          if (!terms.empty()) text += "," + terms[rng.NextBounded(terms.size())];
        }
      }
    }
    auto spec = net::ParseFaultSpec(text);
    if (!spec.ok()) continue;
    ++accepted;
    EXPECT_TRUE(spec->Validate().ok()) << text;
    for (double p : {spec->drop_prob, spec->duplicate_prob, spec->corrupt_prob,
                     spec->delay_prob}) {
      EXPECT_TRUE(p >= 0.0 && p <= 1.0) << text;
    }
    EXPECT_TRUE(std::isfinite(spec->delay_seconds)) << text;
    for (const auto& rule : spec->stalls) EXPECT_GE(rule.drop_count, 1u) << text;
    for (const auto& rule : spec->partitions) {
      EXPECT_GE(rule.drop_count, 1u) << text;
    }
  }
  // Most mutants are rejected, but not all: the accepted path is exercised.
  EXPECT_GT(accepted, 100u);
}

// ---------------------------------------------------------------------------
// FaultInjector determinism

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  net::FaultSpec spec;
  spec.drop_prob = 0.2;
  spec.duplicate_prob = 0.1;
  spec.corrupt_prob = 0.15;
  spec.delay_prob = 0.25;
  spec.delay_seconds = 0.01;

  net::FaultInjector a(spec, 99);
  net::FaultInjector b(spec, 99);
  net::FaultInjector other(spec, 100);
  size_t diverged = 0;
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.OnSend(1, 2);
    const auto fb = b.OnSend(1, 2);
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_EQ(fa.corrupt, fb.corrupt);
    EXPECT_EQ(fa.corrupt_bit, fb.corrupt_bit);
    EXPECT_EQ(fa.extra_delay, fb.extra_delay);
    const auto fo = other.OnSend(1, 2);
    diverged += (fo.dropped != fa.dropped || fo.duplicate != fa.duplicate ||
                 fo.corrupt != fa.corrupt || fo.extra_delay != fa.extra_delay);
  }
  EXPECT_GT(diverged, 0u) << "a different seed must give a different schedule";
}

TEST(FaultInjectorTest, CrashFiresExactlyAtThreshold) {
  net::FaultSpec spec;
  spec.crashes.push_back({/*node=*/3, /*after_sends=*/5});
  net::FaultInjector injector(spec, 1);
  EXPECT_FALSE(injector.NodeDead(3));
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(injector.OnSend(3, 0).sender_dead);
    EXPECT_FALSE(injector.NodeDead(3));
  }
  EXPECT_FALSE(injector.OnSend(3, 0).sender_dead);  // the 5th send goes out
  EXPECT_TRUE(injector.NodeDead(3));                // ...and kills the node
  EXPECT_TRUE(injector.OnSend(3, 0).sender_dead);
  EXPECT_EQ(injector.DeadNodes(), std::vector<net::NodeId>{3});
  EXPECT_FALSE(injector.NodeDead(0));
}

TEST(FaultInjectorTest, StallDropsExactlyItsWindow) {
  net::FaultSpec spec;
  spec.stalls.push_back({/*node=*/1, /*after_sends=*/3, /*drop_count=*/2});
  net::FaultInjector injector(spec, 1);
  std::vector<bool> dropped;
  for (int i = 0; i < 6; ++i) dropped.push_back(injector.OnSend(1, 0).dropped);
  EXPECT_EQ(dropped, (std::vector<bool>{false, false, true, true, false, false}));
}

// ---------------------------------------------------------------------------
// SimNetwork fault hooks

TEST(FaultNetworkTest, DropAndDuplicateAreMeteredAndCounted) {
  net::FaultSpec spec;
  spec.drop_prob = 1.0;
  net::SimNetwork dropper;
  SimClock clock;
  dropper.EnableFaults(spec, 5, &clock);
  ASSERT_TRUE(dropper.Send(0, 1, {1, 2, 3}).ok());
  EXPECT_EQ(dropper.PendingCount(), 0u);             // dropped...
  EXPECT_EQ(dropper.total().messages, 1u);           // ...but metered
  EXPECT_EQ(dropper.fault_stats().dropped, 1u);

  net::FaultSpec dup;
  dup.duplicate_prob = 1.0;
  net::SimNetwork duper;
  duper.EnableFaults(dup, 5, &clock);
  ASSERT_TRUE(duper.Send(0, 1, {1, 2, 3}).ok());
  EXPECT_EQ(duper.PendingCount(), 2u);               // delivered twice
  EXPECT_EQ(duper.total().messages, 2u);             // both crossed the wire
  EXPECT_EQ(duper.fault_stats().duplicated, 1u);
}

TEST(FaultNetworkTest, CorruptionFlipsExactlyOneBit) {
  net::FaultSpec spec;
  spec.corrupt_prob = 1.0;
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 5, &clock);
  const std::vector<uint8_t> original = {0x00, 0xFF, 0x55, 0xAA};
  ASSERT_TRUE(network.Send(0, 1, original).ok());
  auto received = network.Recv(0, 1);
  ASSERT_TRUE(received.ok());
  int flipped_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t diff = (*received)[i] ^ original[i];
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(network.fault_stats().corrupted, 1u);
}

TEST(FaultNetworkTest, DelayChargesTheClock) {
  net::FaultSpec spec;
  spec.delay_prob = 1.0;
  spec.delay_seconds = 0.25;
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 5, &clock);
  ASSERT_TRUE(network.Send(0, 1, {9}).ok());
  EXPECT_DOUBLE_EQ(clock.TotalFor(CostCategory::kNetwork), 0.25);
  EXPECT_EQ(network.fault_stats().delayed, 1u);
  EXPECT_DOUBLE_EQ(network.fault_stats().delay_seconds, 0.25);
}

TEST(FaultNetworkTest, DeadNodesSwallowTraffic) {
  net::FaultSpec spec;
  spec.crashes.push_back({/*node=*/2, /*after_sends=*/1});
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 5, &clock);
  ASSERT_TRUE(network.Send(2, 0, {1}).ok());  // the last send; kills node 2
  EXPECT_TRUE(network.NodeDead(2));
  // A dead sender emits nothing (and is not metered).
  const uint64_t metered = network.total().messages;
  ASSERT_TRUE(network.Send(2, 0, {2}).ok());
  EXPECT_EQ(network.total().messages, metered);
  // A send *to* a dead node is metered, then swallowed.
  ASSERT_TRUE(network.Send(0, 2, {3}).ok());
  EXPECT_EQ(network.total().messages, metered + 1);
  EXPECT_EQ(network.LinkStats(0, 2).messages, 1u);
  EXPECT_TRUE(network.Recv(0, 2).status().IsProtocolError());
  EXPECT_EQ(network.fault_stats().swallowed_dead, 2u);
}

// ---------------------------------------------------------------------------
// ReliableChannel

TEST(ReliableChannelTest, PassThroughWhenFaultsDisabled) {
  // The zero-fault contract: no framing bytes, no clock charges — the channel
  // is bit-identical to the raw transport.
  net::SimNetwork raw, channeled;
  SimClock clock;
  net::ReliableChannel chan(&channeled, &clock);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(raw.Send(0, 1, payload).ok());
  ASSERT_TRUE(chan.Send(0, 1, payload).ok());
  EXPECT_EQ(raw.total().bytes, channeled.total().bytes);
  EXPECT_EQ(raw.total().messages, channeled.total().messages);
  auto got = chan.Recv(0, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  EXPECT_DOUBLE_EQ(clock.Total(), 0.0);
}

TEST(ReliableChannelTest, RetriesAbsorbDropsCorruptionAndDuplicates) {
  net::FaultSpec spec;
  spec.drop_prob = 0.2;
  spec.corrupt_prob = 0.1;
  spec.duplicate_prob = 0.2;
  // Per-attempt loss is ~0.28 (drop or corrupt); 8 attempts push the failure
  // probability per exchange below 4e-5, far under this test's 1000 fixed-
  // seed exchanges.
  net::RetryPolicy policy;
  policy.max_attempts = 8;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    net::SimNetwork network;
    SimClock clock;
    network.EnableFaults(spec, seed, &clock);
    net::ReliableChannel chan(&network, &clock, policy);
    for (int round = 0; round < 50; ++round) {
      std::vector<uint8_t> payload = {static_cast<uint8_t>(round),
                                      static_cast<uint8_t>(round + 1), 0x5A};
      ASSERT_TRUE(chan.Send(0, 1, payload).ok());
      auto got = chan.Recv(0, 1);
      ASSERT_TRUE(got.ok()) << "seed " << seed << " round " << round << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, payload) << "seed " << seed << " round " << round;
    }
  }
}

TEST(ReliableChannelTest, StallAbsorbedWithinRetryBudget) {
  net::FaultSpec spec;
  spec.stalls.push_back({/*node=*/0, /*after_sends=*/2, /*drop_count=*/3});
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 1, &clock);
  net::ReliableChannel chan(&network, &clock);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint8_t> payload = {static_cast<uint8_t>(round)};
    ASSERT_TRUE(chan.Send(0, 1, payload).ok());
    auto got = chan.Recv(0, 1);
    ASSERT_TRUE(got.ok()) << "round " << round << ": " << got.status().ToString();
    EXPECT_EQ(*got, payload);
  }
  EXPECT_GT(clock.TotalFor(CostCategory::kNetwork), 0.0)
      << "retransmissions must charge simulated timeout seconds";
}

TEST(ReliableChannelTest, ExhaustedRetriesReturnPeerDead) {
  net::FaultSpec spec;
  spec.drop_prob = 1.0;  // nothing ever arrives
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 1, &clock);
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_seconds = 0.5;
  net::ReliableChannel chan(&network, &clock, policy);
  ASSERT_TRUE(chan.Send(0, 1, {1, 2, 3}).ok());
  auto got = chan.Recv(0, 1);
  ASSERT_FALSE(got.ok());
  // An exhausted budget is a liveness verdict, not a soft timeout: the
  // non-leader endpoint is reported as a suspect so the selection layer can
  // quarantine it.
  EXPECT_TRUE(got.status().IsPeerDead()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("3 attempts"), std::string::npos)
      << got.status().ToString();
  EXPECT_TRUE(network.NodeDead(1)) << "the suspect must be marked dead";
  // Exponential backoff: 0.5 + 1.0 + 2.0 simulated seconds of waiting (the
  // default policy has no jitter, so the schedule is exact).
  EXPECT_DOUBLE_EQ(clock.TotalFor(CostCategory::kNetwork), 3.5);
}

TEST(ReliableChannelTest, JitterChargesMoreButStaysDeterministic) {
  net::FaultSpec spec;
  spec.drop_prob = 1.0;
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_seconds = 0.5;
  policy.jitter_factor = 0.25;
  policy.jitter_seed = 99;
  auto run = [&]() {
    net::SimNetwork network;
    SimClock clock;
    network.EnableFaults(spec, 1, &clock);
    net::ReliableChannel chan(&network, &clock, policy);
    chan.Send(0, 1, {1}).Abort("send");
    auto got = chan.Recv(0, 1);
    EXPECT_TRUE(!got.ok() && got.status().IsPeerDead());
    return clock.TotalFor(CostCategory::kNetwork);
  };
  const double first = run();
  // Jittered waits are strictly longer than the base schedule but bounded by
  // the factor, and the seeded draw sequence makes them reproducible.
  EXPECT_GT(first, 3.5);
  EXPECT_LE(first, 3.5 * 1.25);
  EXPECT_DOUBLE_EQ(run(), first);
}

TEST(ReliableChannelTest, DeadPeerYieldsPeerDead) {
  net::FaultSpec spec;
  spec.crashes.push_back({/*node=*/1, /*after_sends=*/1});
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 1, &clock);
  net::ReliableChannel chan(&network, &clock);
  ASSERT_TRUE(chan.Send(1, 0, {1}).ok());  // node 1's last transmission
  ASSERT_TRUE(chan.Recv(1, 0).ok());
  ASSERT_TRUE(network.NodeDead(1));
  ASSERT_TRUE(chan.Send(1, 0, {2}).ok());  // swallowed: the sender is dead
  auto got = chan.Recv(1, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsPeerDead()) << got.status().ToString();
}

TEST(ReliableChannelTest, RecvWithoutSendIsProtocolError) {
  net::FaultSpec spec;
  spec.drop_prob = 0.5;
  net::SimNetwork network;
  SimClock clock;
  network.EnableFaults(spec, 1, &clock);
  net::ReliableChannel chan(&network, &clock);
  auto got = chan.Recv(0, 1);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocolError()) << got.status().ToString();
}

// ---------------------------------------------------------------------------
// End-to-end VFPS-SM chaos

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

struct ChaosOutcome {
  core::SelectionOutcome selection;
  net::FaultStats faults;
};

struct RunOptions {
  vfl::KnnOracleMode mode = vfl::KnnOracleMode::kFagin;
  size_t query_group = 1;   // kBase only: queries packed per ciphertext
  size_t net_retries = 0;   // 0 = the default RetryPolicy budget
};

Result<ChaosOutcome> RunSelection(const net::FaultSpec* spec,
                                  uint64_t fault_seed, size_t threads,
                                  obs::MetricsRegistry* obs = nullptr,
                                  const RunOptions& options = RunOptions{}) {
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
  ctx.knn.k = 6;
  ctx.knn.num_queries = 16;
  ctx.knn.query_group = options.query_group;
  ctx.knn.net_retries = options.net_retries;
  ctx.seed = 11;
  core::VfpsSmSelector selector(options.mode);
  auto outcome = selector.Select(ctx, 2);
  if (!outcome.ok()) return outcome.status();
  return ChaosOutcome{outcome.MoveValueUnsafe(), d.network.fault_stats()};
}

TEST(ChaosSelectionTest, AbsorbableFaultsLeaveSelectionBitIdentical) {
  // Drops, duplicates, corruption, delay, and a stall — all absorbable by the
  // retry layer. The selection *output* (picked set, scores, quarantine list)
  // must be bit-identical to the fault-free run at every thread count.
  auto spec = net::ParseFaultSpec(
      "drop=0.05,dup=0.02,corrupt=0.03,delay=0.1:0.01,stall=2@5+3");
  ASSERT_TRUE(spec.ok());

  auto clean = RunSelection(nullptr, 0, 1);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE(clean->faults.any());
  EXPECT_TRUE(clean->selection.quarantined.empty());

  for (size_t threads : kThreadCounts) {
    auto chaotic = RunSelection(&*spec, 1234, threads);
    ASSERT_TRUE(chaotic.ok())
        << "threads=" << threads << ": " << chaotic.status().ToString();
    EXPECT_TRUE(chaotic->faults.any()) << "the schedule must actually fire";
    EXPECT_EQ(chaotic->selection.selected, clean->selection.selected)
        << "threads=" << threads;
    EXPECT_EQ(chaotic->selection.scores, clean->selection.scores)
        << "threads=" << threads;
    EXPECT_TRUE(chaotic->selection.quarantined.empty());
  }
}

TEST(ChaosSelectionTest, SameFaultSeedSameOutcomeDifferentSeedSameSelection) {
  auto spec = net::ParseFaultSpec("drop=0.08,corrupt=0.05,delay=0.15:0.02");
  ASSERT_TRUE(spec.ok());

  auto a = RunSelection(&*spec, 77, 1);
  auto b = RunSelection(&*spec, 77, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  // Reproducibility: identical fault counters, byte for byte.
  EXPECT_EQ(a->faults.dropped, b->faults.dropped);
  EXPECT_EQ(a->faults.corrupted, b->faults.corrupted);
  EXPECT_EQ(a->faults.delayed, b->faults.delayed);
  EXPECT_EQ(a->faults.delay_seconds, b->faults.delay_seconds);
  EXPECT_EQ(a->selection.selected, b->selection.selected);
  EXPECT_EQ(a->selection.scores, b->selection.scores);
  EXPECT_EQ(a->selection.sim_seconds, b->selection.sim_seconds);

  // A different fault seed draws a different schedule (overwhelmingly likely
  // over thousands of sends), but retries still keep the output intact.
  auto c = RunSelection(&*spec, 78, 1);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(std::make_tuple(a->faults.dropped, a->faults.corrupted,
                            a->faults.delayed),
            std::make_tuple(c->faults.dropped, c->faults.corrupted,
                            c->faults.delayed));
  EXPECT_EQ(a->selection.selected, c->selection.selected);
  EXPECT_EQ(a->selection.scores, c->selection.scores);
}

TEST(ChaosSelectionTest, ParticipantCrashDegradesGracefully) {
  auto spec = net::ParseFaultSpec("crash=2@3");
  ASSERT_TRUE(spec.ok());

  auto clean = RunSelection(nullptr, 0, 1);
  ASSERT_TRUE(clean.ok());

  for (size_t threads : kThreadCounts) {
    auto degraded = RunSelection(&*spec, 9, threads);
    ASSERT_TRUE(degraded.ok())
        << "threads=" << threads << ": " << degraded.status().ToString();
    // The crash was reported and the dead participant excluded.
    EXPECT_EQ(degraded->selection.quarantined, std::vector<size_t>{2})
        << "threads=" << threads;
    EXPECT_EQ(degraded->selection.selected.size(),
              clean->selection.selected.size());
    for (size_t id : degraded->selection.selected) {
      EXPECT_NE(id, 2u) << "a quarantined participant must never be selected";
    }
    EXPECT_EQ(degraded->selection.scores[2], 0.0);
    // Note: the final fault counters need not show swallowed traffic — the
    // failed attempt's task-local stats are intentionally discarded, and the
    // rerun excludes the dead participant entirely.
  }

  // Crash schedules are reproducible too: two runs, same quarantine, same
  // survivors, same scores.
  auto again = RunSelection(&*spec, 9, 1);
  auto first = RunSelection(&*spec, 9, 1);
  ASSERT_TRUE(again.ok() && first.ok());
  EXPECT_EQ(first->selection.selected, again->selection.selected);
  EXPECT_EQ(first->selection.scores, again->selection.scores);
  EXPECT_EQ(first->selection.quarantined, again->selection.quarantined);
}

TEST(ChaosSelectionTest, StalledThenHealedNodeRejoinsBitIdentical) {
  // Participant 3 goes silent for a long window (its sends 2..9 are lost —
  // deeper than the default retry budget absorbs) and then recovers. With a
  // raised --net-retries budget the ARQ bridges the whole outage, so the node
  // rejoins in-run: no quarantine, no repair pass, and the selection output
  // is bit-identical to the fault-free run at every thread count.
  auto spec = net::ParseFaultSpec("stall=3@2+8");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  RunOptions options;
  options.net_retries = 12;

  auto clean = RunSelection(nullptr, 0, 1);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  for (size_t threads : kThreadCounts) {
    obs::MetricsRegistry obs;
    auto healed = RunSelection(&*spec, 5, threads, &obs, options);
    ASSERT_TRUE(healed.ok())
        << "threads=" << threads << ": " << healed.status().ToString();
    EXPECT_EQ(healed->selection.selected, clean->selection.selected)
        << "threads=" << threads;
    EXPECT_EQ(healed->selection.scores, clean->selection.scores)
        << "threads=" << threads;
    EXPECT_TRUE(healed->selection.quarantined.empty())
        << "threads=" << threads << ": the stall must be absorbed in-run";
    EXPECT_EQ(obs.GetCounter("select.repair.rounds")->Value(), 0u)
        << "threads=" << threads << ": an absorbed stall needs no repair";
  }

  // Sanity: the same outage without the raised budget is NOT absorbable —
  // the retry layer exhausts, suspects the straggler, and the selector falls
  // back to quarantine-and-repair. This is what the raised budget buys.
  RunOptions default_budget;
  auto degraded = RunSelection(&*spec, 5, 1, nullptr, default_budget);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->selection.quarantined, std::vector<size_t>{3});
}

TEST(ChaosSelectionTest, LeftThenHealedNodeIsSplicedBack) {
  // Participant 3 departs almost immediately (leave=) and gets quarantined;
  // during the repair pass the stream total crosses the heal= threshold, so
  // the selector un-quarantines it and splices it back in. The final output
  // must be bit-identical to the fault-free run at every thread count, and
  // the repair metrics must show the leave and the heal.
  //
  // kBase with query_group packs 16 queries into one long-lived fault stream,
  // giving the heal threshold a wide window: far past the point where the
  // retry layer could absorb the departure in-run, well before the stream
  // ends.
  auto spec = net::ParseFaultSpec("leave=3@2,heal=3@30");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  RunOptions options;
  options.mode = vfl::KnnOracleMode::kBase;
  options.query_group = 16;

  auto clean = RunSelection(nullptr, 0, 1, nullptr, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  for (size_t threads : kThreadCounts) {
    obs::MetricsRegistry obs;
    auto healed = RunSelection(&*spec, 5, threads, &obs, options);
    ASSERT_TRUE(healed.ok())
        << "threads=" << threads << ": " << healed.status().ToString();
    EXPECT_EQ(healed->selection.selected, clean->selection.selected)
        << "threads=" << threads;
    EXPECT_EQ(healed->selection.scores, clean->selection.scores)
        << "threads=" << threads;
    EXPECT_TRUE(healed->selection.quarantined.empty())
        << "threads=" << threads << ": the healed participant must be back";
    // Two membership changes -> at least two repair reruns (leave, then heal).
    EXPECT_GE(obs.GetCounter("select.repair.rounds")->Value(), 2u)
        << "threads=" << threads;
    EXPECT_EQ(obs.GetCounter("select.repair.leaves")->Value(), 1u)
        << "threads=" << threads;
    EXPECT_EQ(obs.GetCounter("select.repair.heals")->Value(), 1u)
        << "threads=" << threads;
  }
}

TEST(ChaosSelectionTest, TracedChaosIsThreadCountInvariantAndWellParented) {
  // Tracing is an observer, not a participant: with spans and labeled
  // counters recording through a faulted run, (1) every counter total —
  // plain and labeled — is bit-identical at 1, 2, and 8 threads, and (2) the
  // trace is well-formed at every thread count: unique span ids, every
  // parent resolves, and each churn/fault instant belongs to a live trace.
  auto spec = net::ParseFaultSpec(
      "drop=0.05,dup=0.02,corrupt=0.03,delay=0.1:0.01");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  std::vector<std::pair<std::string, uint64_t>> baseline;
  for (size_t threads : kThreadCounts) {
    obs::MetricsRegistry obs;
    obs.EnableTracing();
    auto outcome = RunSelection(&*spec, 1234, threads, &obs);
    ASSERT_TRUE(outcome.ok())
        << "threads=" << threads << ": " << outcome.status().ToString();

    auto counters = obs.CounterEntries();
    if (baseline.empty()) {
      baseline = std::move(counters);
      // The labeled dimensions of interest actually recorded something.
      EXPECT_GT(obs.CounterValue("knn.queries.by_algo", {{"algo", "fagin"}}),
                0u);
      EXPECT_GT(obs.CounterValue("knn.phase.sim_ns",
                                 {{"phase", "partial_distance"}}),
                0u);
    } else {
      EXPECT_EQ(counters, baseline)
          << "threads=" << threads
          << ": traced counter totals must not depend on thread count";
    }

    const auto events = obs.tracer()->Snapshot();
    ASSERT_FALSE(events.empty()) << "threads=" << threads;
    std::set<uint64_t> ids;
    for (const auto& e : events) {
      EXPECT_NE(e.span_id, 0u) << e.name;
      EXPECT_NE(e.trace_id, 0u) << e.name;
      EXPECT_TRUE(ids.insert(e.span_id).second)
          << "threads=" << threads << ": duplicate span id on " << e.name;
    }
    for (const auto& e : events) {
      if (e.parent_span_id != 0) {
        EXPECT_TRUE(ids.count(e.parent_span_id))
            << "threads=" << threads << ": " << e.name << " is orphaned";
      }
    }
  }
}

TEST(ChaosSelectionTest, ZeroProbabilitySpecLeavesOutputIdentical) {
  // Attaching an all-zero plan exercises the framing/ARQ code paths but must
  // not change what gets selected.
  net::FaultSpec zero;
  auto clean = RunSelection(nullptr, 0, 1);
  auto framed = RunSelection(&zero, 0, 1);
  ASSERT_TRUE(clean.ok() && framed.ok());
  EXPECT_FALSE(framed->faults.any());
  EXPECT_EQ(framed->selection.selected, clean->selection.selected);
  EXPECT_EQ(framed->selection.scores, clean->selection.scores);
}

}  // namespace
}  // namespace vfps
