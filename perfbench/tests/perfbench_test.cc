// Unit tests for the benchmark's own machinery: the timing decorators must
// be transparent, span self times must add up, and the workload inputs
// must be a pure function of the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/cc/schedule.h"
#include "perfbench/cc/trace.h"
#include "src/sim/event_loop.h"

namespace perfbench {
namespace {

// Records every send and lets the test inject receptions.
class FakeTransport : public p2::Transport {
 public:
  struct Sent {
    std::string to;
    std::vector<uint8_t> bytes;
    p2::TrafficClass cls;
  };

  const std::string& local_addr() const override { return addr_; }
  using p2::Transport::SendTo;
  void SendTo(const std::string& to, std::vector<uint8_t> bytes,
              p2::TrafficClass cls) override {
    sent.push_back(Sent{to, std::move(bytes), cls});
    stats_.CountOut(sent.back().bytes.size(), cls);
  }
  void SetReceiver(ReceiveFn fn) override { receiver = std::move(fn); }
  const p2::TrafficStats& stats() const override { return stats_; }

  std::vector<Sent> sent;
  ReceiveFn receiver;

 private:
  std::string addr_ = "n7";
  p2::TrafficStats stats_;
};

void BusyWait(int64_t ns) {
  int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

TEST(TimedTransportTest, PassesSendsThroughUnchanged) {
  FakeTransport fake;
  ShardTrace trace(16);
  TimedTransport timed(&fake, &trace, Layer::kNetSend, Layer::kP2Recv);
  EXPECT_EQ(timed.local_addr(), "n7");

  const p2::TrafficClass classes[] = {p2::TrafficClass::kMaintenance,
                                      p2::TrafficClass::kLookup,
                                      p2::TrafficClass::kRetransmit,
                                      p2::TrafficClass::kControl};
  for (size_t i = 0; i < 4; ++i) {
    timed.SendTo("n" + std::to_string(i), std::vector<uint8_t>(i + 1, uint8_t(0xA0 + i)),
                 classes[i]);
  }
  ASSERT_EQ(fake.sent.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fake.sent[i].to, "n" + std::to_string(i));
    EXPECT_EQ(fake.sent[i].bytes, std::vector<uint8_t>(i + 1, uint8_t(0xA0 + i)));
    EXPECT_EQ(fake.sent[i].cls, classes[i]);
  }
  // Traffic counters are the inner transport's own.
  EXPECT_EQ(&timed.stats(), &fake.stats());
  EXPECT_EQ(timed.stats().control_bytes_out, 4u);
  EXPECT_EQ(trace.totals()[static_cast<size_t>(Layer::kNetSend)].calls, 4u);
}

TEST(TimedTransportTest, PassesReceptionsThroughUnchanged) {
  FakeTransport fake;
  ShardTrace trace(16);
  PayloadSampler sampler(1, 8);
  TimedTransport timed(&fake, &trace, Layer::kSimSend, Layer::kP2Recv, &sampler);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> got;
  timed.SetReceiver([&](const std::string& from, const std::vector<uint8_t>& bytes) {
    got.emplace_back(from, bytes);
  });
  ASSERT_TRUE(static_cast<bool>(fake.receiver));
  fake.receiver("n3", {1, 2, 3});
  fake.receiver("n4", {});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "n3");
  EXPECT_EQ(got[0].second, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(got[1].first, "n4");
  EXPECT_TRUE(got[1].second.empty());
  EXPECT_EQ(trace.totals()[static_cast<size_t>(Layer::kP2Recv)].calls, 2u);
  EXPECT_EQ(sampler.count(), 2u);
  EXPECT_EQ(sampler.bytes(), 3u);

  // Clearing the receiver clears it below too, so nothing calls back into
  // a destroyed node.
  timed.SetReceiver(nullptr);
  EXPECT_FALSE(static_cast<bool>(fake.receiver));
}

TEST(ShardTraceTest, NestedSpansYieldSelfTimes) {
  ShardTrace trace(16);
  trace.Open(Layer::kP2Timer);  // outer
  BusyWait(200000);
  trace.Open(Layer::kNetSend);  // child
  BusyWait(200000);
  trace.Open(Layer::kSimSend);  // grandchild
  BusyWait(200000);
  trace.Close();
  trace.Close();
  trace.Open(Layer::kSimSend);  // second child, a sibling of the first
  BusyWait(200000);
  trace.Close();
  trace.Close();

  const auto& t = trace.totals();
  const LayerTotals& outer = t[static_cast<size_t>(Layer::kP2Timer)];
  const LayerTotals& child = t[static_cast<size_t>(Layer::kNetSend)];
  const LayerTotals& sim = t[static_cast<size_t>(Layer::kSimSend)];
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(child.calls, 1u);
  EXPECT_EQ(sim.calls, 2u);
  // Self time is the span minus what its direct children cover.
  const std::vector<SpanRecord>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  int64_t grandchild_ns = spans[0].end_ns - spans[0].start_ns;
  int64_t child_ns = spans[1].end_ns - spans[1].start_ns;
  int64_t sibling_ns = spans[2].end_ns - spans[2].start_ns;
  int64_t outer_ns = spans[3].end_ns - spans[3].start_ns;
  EXPECT_EQ(child.self_ns, child_ns - grandchild_ns);
  EXPECT_EQ(outer.self_ns, outer_ns - child_ns - sibling_ns);
  EXPECT_EQ(sim.self_ns, grandchild_ns + sibling_ns);
  // Self times partition the outermost span exactly.
  EXPECT_EQ(outer.self_ns + child.self_ns + sim.self_ns, outer_ns);
  EXPECT_EQ(trace.root_ns(), outer_ns);
  EXPECT_GE(child.self_ns, 150000);
  EXPECT_GE(outer.self_ns, 150000);
  // Parent links: spans are recorded as they close.
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, spans[3].id);
  EXPECT_EQ(spans[2].parent, spans[3].id);
  EXPECT_EQ(spans[3].parent, 0u);
}

TEST(ShardTraceTest, CapBoundsKeptSpansNotTotals) {
  ShardTrace trace(2);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&trace, Layer::kP2Recv);
  }
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.dropped_spans(), 3u);
  EXPECT_EQ(trace.totals()[static_cast<size_t>(Layer::kP2Recv)].calls, 5u);
}

TEST(TimedExecutorTest, KeepsTimerOrderAndCountsTimers) {
  p2::SimEventLoop loop;
  ShardTrace trace(64);
  TimedExecutor timed(&loop, &trace, Layer::kP2Timer);
  std::vector<int> order;
  timed.ScheduleAfter(2.0, [&]() { order.push_back(3); });
  timed.ScheduleAfter(1.0, [&]() { order.push_back(1); });
  loop.ScheduleAfter(1.0, [&]() { order.push_back(2); });  // same time, later FIFO
  p2::TimerId doomed = timed.ScheduleAfter(1.5, [&]() { order.push_back(99); });
  timed.Cancel(doomed);
  timed.Cancel(p2::kInvalidTimer);
  loop.RunUntil(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(timed.scheduled(), 3u);
  EXPECT_EQ(timed.cancelled(), 1u);
  EXPECT_EQ(trace.totals()[static_cast<size_t>(Layer::kP2Timer)].calls, 2u);
  EXPECT_DOUBLE_EQ(timed.Now(), loop.Now());
}

TEST(ScheduleTest, LookupScheduleIsAPureFunctionOfTheSeed) {
  std::vector<PlannedLookup> a = LookupSchedule(7, 10.0, 100.0, 128);
  std::vector<PlannedLookup> b = LookupSchedule(7, 10.0, 100.0, 128);
  std::vector<PlannedLookup> c = LookupSchedule(8, 10.0, 100.0, 128);
  ASSERT_EQ(a.size(), 1000u);
  ASSERT_EQ(b.size(), a.size());
  ASSERT_EQ(c.size(), a.size());
  bool differs = false;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].at_s, b[k].at_s);
    EXPECT_EQ(a[k].origin, b[k].origin);
    EXPECT_EQ(a[k].key, b[k].key);
    // Fixed rate: the issue times do not depend on the seed.
    EXPECT_DOUBLE_EQ(a[k].at_s, (static_cast<double>(k) + 0.5) / 10.0);
    EXPECT_LT(a[k].origin, 128u);
    differs = differs || a[k].origin != c[k].origin || a[k].key != c[k].key;
  }
  EXPECT_TRUE(differs);
}

TEST(ScheduleTest, PlacementIsASeededPermutation) {
  std::vector<size_t> a = Placement(3, 96);
  EXPECT_EQ(a, Placement(3, 96));
  EXPECT_NE(a, Placement(4, 96));
  std::vector<size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(ScheduleTest, KillVictimIsAPureFunctionOfTheSeed) {
  bool differs = false;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_EQ(KillVictim(seed, 96), KillVictim(seed, 96));
    EXPECT_LT(KillVictim(seed, 96), 96u);
    differs = differs || KillVictim(seed, 96) != KillVictim(1, 96);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace perfbench
