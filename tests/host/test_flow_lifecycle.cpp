/// Per-flow state lifecycle at short-flow churn scale: completed
/// senders are swept from Host::senders_, receiver state retires after
/// the quiet grace period, simulator slots/tombstones recycle, and
/// destructors cancel armed timers so teardown mid-run cannot dangle.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cc/factory.hpp"
#include "host/flow.hpp"
#include "host/host.hpp"
#include "net/network.hpp"
#include "topo/dumbbell.hpp"

namespace powertcp::host {
namespace {

struct LifecycleFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
  topo::DumbbellConfig cfg;
  std::unique_ptr<topo::Dumbbell> topo;
  cc::FlowParams params;
  cc::CcFactory factory = cc::make_factory("powertcp");

  void build(int senders = 2) {
    cfg.n_senders = senders;
    topo = std::make_unique<topo::Dumbbell>(network, cfg);
    params.host_bw = cfg.host_bw;
    params.base_rtt = topo->base_rtt();
    params.expected_flows = 8;
  }
};

TEST_F(LifecycleFixture, CompletedFlowStateReturnsToBaselineAfter10kFlows) {
  build(2);
  // 10 waves x 1000 flows of 5 KB across two senders. Waves are spaced
  // so each drains before the next; the final run extends past the
  // receiver grace period so retirement timers fire.
  constexpr int kWaves = 10;
  constexpr int kFlowsPerWave = 1000;
  constexpr std::int64_t kFlowBytes = 5'000;
  int completions = 0;
  net::FlowId next_id = 1;
  std::size_t slots_after_wave3 = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    const sim::TimePs wave_start = simulator.now();
    for (int i = 0; i < kFlowsPerWave; ++i) {
      topo->sender(i % 2).start_flow(
          next_id++, topo->receiver().id(), kFlowBytes, factory(params),
          params, wave_start + sim::microseconds(i / 4),
          [&completions](const FlowCompletion&) { ++completions; });
    }
    simulator.run_until(wave_start + sim::milliseconds(5));
    // Senders sweep at completion (no grace): the table must be empty
    // the moment the wave's flows are done.
    EXPECT_EQ(topo->sender(0).active_senders(), 0u) << "wave " << wave;
    EXPECT_EQ(topo->sender(1).active_senders(), 0u) << "wave " << wave;
    if (wave == 3) slots_after_wave3 = simulator.slot_count();
  }
  EXPECT_EQ(completions, kWaves * kFlowsPerWave);

  // Quiet period: receiver retirement fires, every timer drains.
  simulator.run();
  EXPECT_EQ(topo->receiver().active_receivers(), 0u)
      << "receiver state must retire after the grace period";
  EXPECT_EQ(topo->sender(0).active_receivers(), 0u);
  EXPECT_FALSE(simulator.pending());
  EXPECT_EQ(simulator.tombstones(), 0u);
  // Slot table is a high-water structure: identical waves must not grow
  // it after it stabilizes — flat per-flow memory at churn scale.
  ASSERT_GT(slots_after_wave3, 0u);
  EXPECT_LE(simulator.slot_count(), slots_after_wave3 * 2)
      << "slot table kept growing across identical waves (leak)";
  EXPECT_EQ(simulator.free_slot_count(), simulator.slot_count())
      << "every slot must be recycled once the run drains";
}

TEST_F(LifecycleFixture, SenderIsSweptAtCompletionAndIdBecomesReusable) {
  build(1);
  std::int64_t delivered = 0;
  topo->receiver().set_data_callback(
      [&delivered](net::FlowId, std::int64_t bytes, sim::TimePs) {
        delivered += bytes;
      });
  int completions = 0;
  topo->sender(0).start_flow(
      7, topo->receiver().id(), 50'000, factory(params), params, 0,
      [&completions](const FlowCompletion&) { ++completions; });
  EXPECT_NE(topo->sender(0).sender(7), nullptr);
  simulator.run_until(sim::milliseconds(2));
  ASSERT_EQ(completions, 1);
  EXPECT_EQ(delivered, 50'000);
  EXPECT_EQ(topo->sender(0).sender(7), nullptr) << "completed flow swept";
  EXPECT_EQ(topo->sender(0).active_senders(), 0u);
  // The swept id is free for a new flow (previously: permanent
  // duplicate-id error because completed senders were never erased).
  // Reused inside the receiver grace period with a different size: the
  // receiver detects the new incarnation, resets the stale state, and
  // the bytes are genuinely delivered (not phantom-acked off the old
  // cumulative edge).
  topo->sender(0).start_flow(
      7, topo->receiver().id(), 80'000, factory(params), params,
      simulator.now(), [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(simulator.now() + sim::milliseconds(2));
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(delivered, 130'000) << "reused id must deliver real bytes";
  // Reuse after the grace period (state retired) is clean for any size,
  // including the same size as the original flow.
  simulator.run_until(simulator.now() + 2 * Host::kReceiverGrace);
  ASSERT_EQ(topo->receiver().active_receivers(), 0u);
  topo->sender(0).start_flow(
      7, topo->receiver().id(), 50'000, factory(params), params,
      simulator.now(), [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(simulator.now() + sim::milliseconds(2));
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(delivered, 180'000);
}

TEST_F(LifecycleFixture, ReceiverStateRetiresAfterGracePeriodOnly) {
  build(1);
  int completions = 0;
  topo->sender(0).start_flow(
      1, topo->receiver().id(), 20'000, factory(params), params, 0,
      [&completions](const FlowCompletion&) { ++completions; });
  simulator.run_until(sim::milliseconds(1));
  ASSERT_EQ(completions, 1);
  // Within the grace window the state is retained (go-back-N replays
  // must see identical acks) ...
  EXPECT_EQ(topo->receiver().active_receivers(), 1u);
  // ... and after a quiet grace period it retires.
  simulator.run_until(simulator.now() + 2 * Host::kReceiverGrace);
  EXPECT_EQ(topo->receiver().active_receivers(), 0u);
}

TEST_F(LifecycleFixture, TeardownBeforeFlowStartCancelsTheStartEvent) {
  // The flow-start event captures the FlowSender. Destroying the
  // topology before the start time must cancel it — running the
  // simulator afterwards executes nothing (and does not crash).
  {
    net::Network net2(simulator);
    topo::Dumbbell t2(net2, cfg);
    cc::FlowParams p;
    p.host_bw = cfg.host_bw;
    p.base_rtt = t2.base_rtt();
    t2.sender(0).start_flow(1, t2.receiver().id(), 10'000,
                            factory(p), p, sim::milliseconds(1));
  }
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 0u);
}

TEST_F(LifecycleFixture, OutOfOrderStartsRunInStartKeyOrder) {
  build(1);
  Host& h = topo->sender(0);
  const net::NodeId dst = topo->receiver().id();
  // Unstarted flows wait in the host's start list; only the earliest
  // start is queued. A later call with an earlier time becomes the
  // head; one between two queued starts is inserted in key order.
  FlowSender& at10 = h.start_flow(1, dst, 10'000, factory(params), params,
                                  sim::microseconds(10));
  FlowSender& at5 = h.start_flow(2, dst, 10'000, factory(params), params,
                                 sim::microseconds(5));
  FlowSender& at20 = h.start_flow(3, dst, 10'000, factory(params), params,
                                  sim::microseconds(20));
  FlowSender& at15 = h.start_flow(4, dst, 10'000, factory(params), params,
                                  sim::microseconds(15));
  FlowSender& at15b = h.start_flow(5, dst, 10'000, factory(params), params,
                                   sim::microseconds(15));
  simulator.run_until(sim::microseconds(6));
  EXPECT_TRUE(at5.started());
  EXPECT_FALSE(at10.started());
  EXPECT_EQ(at5.start_time(), sim::microseconds(5));
  simulator.run_until(sim::microseconds(15));
  EXPECT_EQ(at10.start_time(), sim::microseconds(10));
  EXPECT_TRUE(at15.started());
  EXPECT_TRUE(at15b.started());
  EXPECT_FALSE(at20.started());
  simulator.run_until(sim::microseconds(20));
  EXPECT_TRUE(at20.started());
}

TEST_F(LifecycleFixture, SameTimeStartsInterleaveWithOtherEventsByKey) {
  // A start at 5 us requested at setup sorts before an event scheduled
  // afterwards for 5 us and after one scheduled before — exactly where
  // an eagerly scheduled start event would.
  build(1);
  Host& h = topo->sender(0);
  std::vector<int> seen;
  simulator.schedule_at(sim::microseconds(5), [&] {
    seen.push_back(h.sender(1)->started() ? 1 : 0);
  });
  h.start_flow(1, topo->receiver().id(), 10'000, factory(params), params,
               sim::microseconds(5));
  simulator.schedule_at(sim::microseconds(5), [&] {
    seen.push_back(h.sender(1)->started() ? 1 : 0);
  });
  simulator.run_until(sim::microseconds(5));
  EXPECT_EQ(seen, (std::vector<int>{0, 1}));
}

TEST_F(LifecycleFixture, StartInThePastThrowsAndLeavesNoSender) {
  build(1);
  simulator.run_until(sim::microseconds(10));
  Host& h = topo->sender(0);
  EXPECT_THROW(h.start_flow(1, topo->receiver().id(), 10'000, factory(params),
                            params, sim::microseconds(5)),
               std::invalid_argument);
  EXPECT_EQ(h.active_senders(), 0u);
  EXPECT_EQ(h.sender(1), nullptr);
}

TEST_F(LifecycleFixture,
       DestroyingAHostWithUnstartedFlowsLeavesNothingPending) {
  {
    net::Network net2(simulator);
    topo::Dumbbell t2(net2, cfg);
    cc::FlowParams p;
    p.host_bw = cfg.host_bw;
    p.base_rtt = t2.base_rtt();
    for (int i = 0; i < 4; ++i) {
      t2.sender(0).start_flow(static_cast<net::FlowId>(i + 1),
                              t2.receiver().id(), 10'000, factory(p), p,
                              sim::milliseconds(4 - i));
    }
    EXPECT_TRUE(simulator.pending());
  }
  EXPECT_FALSE(simulator.pending());
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 0u);
}

TEST_F(LifecycleFixture, DestroyingAMidFlowSenderCancelsItsTimers) {
  build(1);
  // Drive a sender outside the host's table so it can be destroyed
  // mid-flow: its armed RTO/pacing timers capture `this` and must be
  // cancelled by the destructor, not left to fire into freed memory.
  auto rogue = std::make_unique<FlowSender>(topo->sender(0), 99,
                                            topo->receiver().id(), 1'000'000,
                                            factory(params), params);
  rogue->start();
  simulator.run_until(sim::microseconds(30));
  EXPECT_TRUE(rogue->started());
  EXPECT_FALSE(rogue->complete());
  rogue.reset();  // cancels RTO (and any pacing) timer
  simulator.run();  // drain in-flight packets; ASan would flag a dangle
  EXPECT_FALSE(simulator.pending());
}

}  // namespace
}  // namespace powertcp::host
