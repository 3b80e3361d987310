#include "threev/net/sim_net.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "threev/net/wire.h"

namespace threev {
namespace {

Message Msg(NodeId from, uint64_t seq) {
  Message m;
  m.type = MsgType::kClientSubmit;
  m.from = from;
  m.seq = seq;
  return m;
}

TEST(SimNetTest, DeliversWithDelay) {
  SimNet net(SimNetOptions{.seed = 1, .min_delay = 100,
                           .mean_extra_delay = 50});
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
  net.Send(1, Msg(0, 42));
  EXPECT_TRUE(got.empty()) << "delivery is never synchronous";
  net.loop().Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42u);
  EXPECT_GE(net.Now(), 100);
}

TEST(SimNetTest, FifoPerChannel) {
  SimNet net(SimNetOptions{.seed = 9, .min_delay = 10,
                           .mean_extra_delay = 5'000,
                           .fifo_channels = true});
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
  for (uint64_t i = 0; i < 50; ++i) net.Send(1, Msg(0, i));
  net.loop().Run();
  ASSERT_EQ(got.size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(SimNetTest, CrossChannelReorderingAllowed) {
  // Different senders to the same destination may be reordered; verify the
  // seeds can produce at least one inversion (huge delay variance).
  SimNet net(SimNetOptions{.seed = 3, .min_delay = 10,
                           .mean_extra_delay = 10'000});
  std::vector<NodeId> got;
  net.RegisterEndpoint(9, [&](const Message& m) { got.push_back(m.from); });
  for (int i = 0; i < 20; ++i) {
    net.Send(9, Msg(0, i));
    net.Send(9, Msg(1, i));
  }
  net.loop().Run();
  ASSERT_EQ(got.size(), 40u);
  bool inversion = false;
  int zeros_seen = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] == 0) ++zeros_seen;
    if (got[i] == 1 && zeros_seen < static_cast<int>(i + 1) / 2) {
      inversion = true;
    }
  }
  EXPECT_TRUE(inversion);
}

TEST(SimNetTest, DeterministicFromSeed) {
  auto run = [](uint64_t seed) {
    SimNet net(SimNetOptions{.seed = seed});
    std::vector<uint64_t> got;
    net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
    net.RegisterEndpoint(2, [&](const Message&) {});
    for (uint64_t i = 0; i < 30; ++i) {
      net.Send(i % 2 ? 1 : 2, Msg(0, i));
    }
    net.loop().Run();
    return std::make_pair(got, net.Now());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7).second, run(8).second);
}

TEST(SimNetTest, MetricsCountMessages) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 1}, &metrics);
  net.RegisterEndpoint(1, [](const Message&) {});
  Message big = Msg(0, 2);
  big.participants = {0, 1, 2};
  big.status_msg = "aborted by test";
  net.Send(1, Msg(0, 1));
  net.Send(1, big);
  EXPECT_EQ(metrics.messages_sent.load(), 2);
  // bytes_sent charges the exact encoded size, as on the real transports.
  EXPECT_EQ(metrics.bytes_sent.load(),
            static_cast<int64_t>(EncodedMessageSize(Msg(0, 1)) +
                                 EncodedMessageSize(big)));
}

TEST(SimNetManualTest, HoldsAndDeliversSelectively) {
  SimNet net(SimNetOptions{.manual = true});
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
  net.RegisterEndpoint(2, [&](const Message& m) { got.push_back(m.seq); });
  net.Send(1, Msg(0, 10));
  net.Send(2, Msg(0, 20));
  net.Send(1, Msg(3, 30));
  EXPECT_EQ(net.pending_count(), 3u);
  EXPECT_TRUE(got.empty());

  // Deliver by matching (from=3, any to, any type).
  EXPECT_NE(net.DeliverMatching(3, -1, -1), 0u);
  EXPECT_EQ(got, (std::vector<uint64_t>{30}));

  // Oldest matching wins.
  EXPECT_NE(net.DeliverMatching(-1, -1,
                                static_cast<int>(MsgType::kClientSubmit)),
            0u);
  EXPECT_EQ(got, (std::vector<uint64_t>{30, 10}));

  net.DeliverAll();
  EXPECT_EQ(got, (std::vector<uint64_t>{30, 10, 20}));
  EXPECT_EQ(net.pending_count(), 0u);
}

TEST(SimNetManualTest, DeliverUnknownIdFails) {
  SimNet net(SimNetOptions{.manual = true});
  EXPECT_FALSE(net.Deliver(123));
  EXPECT_EQ(net.DeliverMatching(0, 0, 0), 0u);
}

TEST(SimNetFaultTest, DownEndpointDropsInFlightAndNewSends) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 4, .min_delay = 100,
                           .mean_extra_delay = 100},
             &metrics);
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });

  net.Send(1, Msg(0, 1));  // in flight when the endpoint dies
  net.SetEndpointUp(1, false);
  net.Send(1, Msg(0, 2));  // dropped immediately
  net.loop().Run();
  EXPECT_TRUE(got.empty()) << "messages to a dead endpoint must be dropped";
  EXPECT_EQ(metrics.messages_dropped.load(), 2);

  // Revival starts a new incarnation: only messages sent after it arrive.
  net.SetEndpointUp(1, true);
  net.Send(1, Msg(0, 3));
  net.loop().Run();
  EXPECT_EQ(got, (std::vector<uint64_t>{3}));
}

TEST(SimNetFaultTest, ReviveDoesNotResurrectHeldMessages) {
  // Manual mode: a held message addressed to an endpoint that died (even if
  // it came back) belongs to a dead incarnation and is discarded, not
  // delivered late into the new one.
  SimNet net(SimNetOptions{.manual = true});
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
  net.Send(1, Msg(0, 1));
  net.SetEndpointUp(1, false);
  net.SetEndpointUp(1, true);
  net.Send(1, Msg(0, 2));
  net.DeliverAll();
  EXPECT_EQ(got, (std::vector<uint64_t>{2}));
}

TEST(SimNetFaultTest, FifoHoldsAcrossKillWindow) {
  // FIFO audit: under heavy-tailed extra delay, a channel's delivered
  // sequence must stay an in-order subsequence even when the destination
  // dies and revives mid-stream. Messages sent while it is down (or in
  // flight across the window) are dropped, never queued for later.
  SimNet net(SimNetOptions{.seed = 77, .min_delay = 10,
                           .mean_extra_delay = 5'000});
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });

  for (uint64_t i = 0; i < 20; ++i) net.Send(1, Msg(0, i));
  net.loop().ScheduleAt(2'000, [&net] { net.SetEndpointUp(1, false); });
  net.loop().ScheduleAt(4'000, [&net] {
    net.SetEndpointUp(1, true);
    for (uint64_t i = 20; i < 40; ++i) net.Send(1, Msg(0, i));
  });
  net.loop().Run();

  EXPECT_LT(got.size(), 40u) << "the kill window must have dropped something";
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1], got[i]) << "FIFO violated at position " << i;
  }
  // Everything sent into the new incarnation arrives (nothing was lost
  // while both endpoints were up).
  size_t second_batch = 0;
  for (uint64_t seq : got) second_batch += seq >= 20 ? 1 : 0;
  EXPECT_EQ(second_batch, 20u);
}

TEST(SimNetFaultTest, DeliveryTapCanKillOnExactMessage) {
  SimNet net(SimNetOptions{.seed = 6});
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
  net.SetDeliveryTap([&net](NodeId to, const Message& msg) {
    if (to == 1 && msg.seq == 2) net.SetEndpointUp(1, false);
  });
  for (uint64_t i = 0; i < 4; ++i) net.Send(1, Msg(0, i));
  net.loop().Run();
  // Seq 2 triggered the crash and was itself dropped; nothing after it
  // reaches the dead endpoint.
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 1}));
}

TEST(SimNetManualTest, DeliverAllHandlesCascades) {
  // A handler that sends a new message during DeliverAll: the cascade is
  // delivered too.
  SimNet net(SimNetOptions{.manual = true});
  int hops = 0;
  net.RegisterEndpoint(0, [&](const Message& m) {
    ++hops;
    if (m.seq > 0) {
      Message next = m;
      next.seq = m.seq - 1;
      net.Send(0, next);
    }
  });
  net.Send(0, Msg(0, 5));
  net.DeliverAll();
  EXPECT_EQ(hops, 6);
}

// --- fault injector (fuzz-schedule hook) ----------------------------------

TEST(SimNetInjectorTest, InjectedDropsAreCountedAndNotDelivered) {
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 5, .min_delay = 10,
                           .mean_extra_delay = 20},
             &metrics);
  size_t delivered = 0;
  net.RegisterEndpoint(1, [&](const Message&) { ++delivered; });
  uint32_t budget = 3;
  net.SetFaultInjector([&budget](NodeId, const Message&) {
    SimNet::FaultDecision d;
    if (budget > 0) {
      --budget;
      d.drop = true;
    }
    return d;
  });
  for (uint64_t i = 0; i < 10; ++i) net.Send(1, Msg(0, i));
  net.loop().Run();
  EXPECT_EQ(delivered, 7u);
  EXPECT_EQ(metrics.fault_injected_drops.load(), 3);
  EXPECT_EQ(metrics.messages_dropped.load(), 3);
}

TEST(SimNetInjectorTest, ExtraDelayPreservesPerChannelFifo) {
  // The FIFO-audit property must hold per channel even when the injector
  // stretches individual deliveries: the watermark clamp sees the total
  // delay, so a delayed message still never overtakes its predecessors.
  Metrics metrics;
  SimNet net(SimNetOptions{.seed = 7, .min_delay = 10,
                           .mean_extra_delay = 100,
                           .fifo_channels = true},
             &metrics);
  std::vector<uint64_t> got;
  net.RegisterEndpoint(1, [&](const Message& m) { got.push_back(m.seq); });
  net.SetFaultInjector([](NodeId, const Message& m) {
    SimNet::FaultDecision d;
    if (m.seq % 3 == 0) d.extra_delay = 5'000;  // every third message lags
    return d;
  });
  for (uint64_t i = 0; i < 30; ++i) net.Send(1, Msg(0, i));
  net.loop().Run();
  ASSERT_EQ(got.size(), 30u);
  for (uint64_t i = 0; i < 30; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(metrics.fault_injected_delays.load(), 0);
}

TEST(SimNetInjectorTest, BypassFifoReordersOnlyTheTargetedChannel) {
  // Channel 0->9 is reordered (bypass skips the watermark clamp), channel
  // 1->9 stays strictly FIFO: reorder windows are channel-scoped.
  SimNet net(SimNetOptions{.seed = 11, .min_delay = 10,
                           .mean_extra_delay = 10'000,
                           .fifo_channels = true});
  std::vector<uint64_t> from0;
  std::vector<uint64_t> from1;
  net.RegisterEndpoint(9, [&](const Message& m) {
    (m.from == 0 ? from0 : from1).push_back(m.seq);
  });
  net.SetFaultInjector([](NodeId, const Message& m) {
    SimNet::FaultDecision d;
    d.bypass_fifo = m.from == 0;
    return d;
  });
  for (uint64_t i = 0; i < 40; ++i) {
    net.Send(9, Msg(0, i));
    net.Send(9, Msg(1, i));
  }
  net.loop().Run();
  ASSERT_EQ(from0.size(), 40u);
  ASSERT_EQ(from1.size(), 40u);
  EXPECT_FALSE(std::is_sorted(from0.begin(), from0.end()))
      << "huge delay variance plus bypass must produce an inversion";
  EXPECT_TRUE(std::is_sorted(from1.begin(), from1.end()))
      << "the untargeted channel must stay FIFO";
}

}  // namespace
}  // namespace threev
