#include "perfbench/cc/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "perfbench/cc/fleet.h"
#include "perfbench/cc/schedule.h"
#include "src/net/wire.h"
#include "src/overlays/chord.h"
#include "src/overlays/pathvector.h"
#include "src/runtime/random.h"
#include "src/table/table.h"

namespace perfbench {

namespace {

// Chord: open-loop lookups, judged against the live ring.
constexpr double kLookupRatePerS = 10.0;
constexpr double kLookupTimeoutS = 20.0;
constexpr double kJoinStaggerS = 0.25;
// Settling, as src/cli/scenario.cc settles Chord: a kSettleTailS tail
// after the last join, extended (polling ring consistency every
// kSettlePollS) until the ring reaches kRingGate. A ring still below it
// kSettleCapS after the last join fails the run. The fixed tail keeps the
// set-up's work nearly the same for every seed.
constexpr double kSettlePollS = 5.0;
constexpr double kSettleTailS = 300.0;
constexpr double kRingGate = 0.95;
constexpr double kSettleCapS = 600.0;
// Pathvector: route probes every 0.25 virtual s, as the heal probe in
// src/cli/scenario.cc does.
constexpr double kProbeS = 0.25;
// Window length per requested second, per overlay: roughly what this
// runtime simulates per wall second on one worker (a 4-core x86 VM: Chord-64
// 50-100, pathvector-64 25-60, depending on the host's load).
constexpr double kChordVirtPerS = 45.0;
constexpr double kPathVectorVirtPerS = 60.0;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Keeps the wire-codec replay from being optimised away.
volatile uint64_t g_wire_sink = 0;

// --- Registry snapshot arithmetic -----------------------------------------

bool InFamily(const std::string& name, const std::string& family) {
  return name.compare(0, family.size(), family) == 0 &&
         (name.size() == family.size() || name[family.size()] == '{');
}

double CounterSum(const p2::obs::Snapshot& s, const std::string& family) {
  uint64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    total += InFamily(name, family) ? v : 0;
  }
  return static_cast<double>(total);
}

double CounterDelta(const p2::obs::Snapshot& a, const p2::obs::Snapshot& b,
                    const std::string& family) {
  return CounterSum(b, family) - CounterSum(a, family);
}

double GaugeSum(const p2::obs::Snapshot& s, const std::string& family) {
  int64_t total = 0;
  for (const auto& [name, v] : s.gauges) {
    total += InFamily(name, family) ? v : 0;
  }
  return static_cast<double>(total);
}

// Window delta of every histogram in `family`, merged.
p2::obs::Snapshot::Hist HistDelta(const p2::obs::Snapshot& a, const p2::obs::Snapshot& b,
                                  const std::string& family) {
  p2::obs::Snapshot::Hist out;
  for (const auto& [name, h] : b.histograms) {
    if (!InFamily(name, family)) {
      continue;
    }
    auto before = a.histograms.find(name);
    for (size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] += h.buckets[i] -
                        (before != a.histograms.end() ? before->second.buckets[i] : 0);
    }
    out.count += h.count - (before != a.histograms.end() ? before->second.count : 0);
    out.sum += h.sum - (before != a.histograms.end() ? before->second.sum : 0);
  }
  return out;
}

// Median of a log2-bucketed histogram: the midpoint of the bucket holding
// the middle observation.
double HistMedian(const p2::obs::Snapshot::Hist& h) {
  uint64_t seen = 0;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    seen += h.buckets[b];
    if (seen * 2 >= h.count && h.count > 0) {
      return b == 0 ? 1.0 : 1.5 * std::ldexp(1.0, static_cast<int>(b));
    }
  }
  return 0;
}

// --- Shared window bookkeeping ---------------------------------------------

struct ChannelTotals {
  double data_frames = 0, retransmits = 0, acks_sent = 0, duplicates = 0, queue_drops = 0,
         expired = 0;
};

// Counters read at the window's start and end, on the coordinator with
// every shard parked.
struct Mark {
  uint64_t events = 0;
  uint64_t delivered = 0;
  uint64_t non_lookup_bytes = 0;
  uint64_t timers_scheduled = 0;
  uint64_t timers_cancelled = 0;
  int64_t outside_ns = 0;
  ChannelTotals channels;
  p2::obs::Snapshot snap;
};

Mark TakeMark(SimFleet* fleet, size_t slots) {
  Mark m;
  m.events = fleet->engine()->events_run();
  m.delivered = fleet->net()->delivered();
  for (size_t i = 0; i < slots; ++i) {
    if (p2::SimTransport* w = fleet->wire(i)) {
      const p2::TrafficStats& st = w->stats();
      m.non_lookup_bytes += st.maint_bytes_out + st.retx_bytes_out + st.control_bytes_out;
    }
    if (p2::ReliableChannel* ch = fleet->channel(i)) {
      p2::ReliableChannelStats s = ch->Stats();
      m.channels.data_frames += static_cast<double>(s.data_frames_sent);
      m.channels.retransmits += static_cast<double>(s.retransmits);
      m.channels.acks_sent += static_cast<double>(s.acks_sent);
      m.channels.duplicates += static_cast<double>(s.duplicates_received);
      m.channels.queue_drops += static_cast<double>(s.queue_drops);
      m.channels.expired += static_cast<double>(s.expired);
    }
  }
  m.timers_scheduled = fleet->TimersScheduled();
  m.timers_cancelled = fleet->TimersCancelled();
  m.outside_ns = fleet->outside_ns();
  m.snap = fleet->registry()->TakeSnapshot();
  return m;
}

// Times the wire codec on payloads sampled at the overlay-node seam, after
// the window and outside every span.
void ReplayWire(SimFleet* fleet, std::map<std::string, double>* layers) {
  std::vector<const std::vector<uint8_t>*> samples;
  uint64_t count = 0;
  uint64_t bytes = 0;
  for (size_t s = 0; s < fleet->tracer()->num_shards(); ++s) {
    PayloadSampler* sampler = fleet->sampler(s);
    count += sampler->count();
    bytes += sampler->bytes();
    for (const auto& p : sampler->samples()) {
      samples.push_back(&p);
    }
  }
  constexpr int kReps = 8;
  std::vector<p2::TuplePtr> tuples;
  tuples.reserve(samples.size());
  uint64_t sink = 0;
  int64_t t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (const auto* p : samples) {
      std::optional<p2::TuplePtr> t = p2::UnframeTuple(*p);
      sink += t.has_value() ? (*t)->size() : 0;
      if (r == 0 && t.has_value()) {
        tuples.push_back(*t);
      }
    }
  }
  int64_t unframe_ns = NowNs() - t0;
  t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (const p2::TuplePtr& t : tuples) {
      sink += p2::FrameTuple(*t).size();
    }
  }
  int64_t frame_ns = NowNs() - t0;
  double unframes = static_cast<double>(samples.size()) * kReps;
  double frames = static_cast<double>(tuples.size()) * kReps;
  (*layers)["wire.unframe_ns"] = unframes > 0 ? static_cast<double>(unframe_ns) / unframes : 0;
  (*layers)["wire.frame_ns"] = frames > 0 ? static_cast<double>(frame_ns) / frames : 0;
  (*layers)["wire.bytes_mean"] =
      count > 0 ? static_cast<double>(bytes) / static_cast<double>(count) : 0;
  (*layers)["wire.samples"] = static_cast<double>(samples.size());
  g_wire_sink = sink;
}

// Per-layer metrics of a traced window (see perfbench/README.md).
void LayerMetrics(SimFleet* fleet, const Mark& a, const Mark& b, double window_wall_s,
                  double imbalance_mean, RunResult* r) {
  std::map<std::string, double>& L = r->layers;
  const auto tot = fleet->tracer()->Totals();
  auto layer = [&](Layer l) -> const LayerTotals& { return tot[static_cast<size_t>(l)]; };
  double capacity_ns = window_wall_s * 1e9 * static_cast<double>(fleet->workers());
  double root_ns = static_cast<double>(fleet->tracer()->RootNs());
  auto self_ns = [&](Layer l) { return static_cast<double>(layer(l).self_ns); };
  auto per_call = [&](Layer l) {
    return layer(l).calls > 0 ? self_ns(l) / static_cast<double>(layer(l).calls) : 0.0;
  };
  auto seam = [&](const std::string& prefix, Layer l) {
    L[prefix + ".calls"] = static_cast<double>(layer(l).calls);
    L[prefix + ".self_ns"] = per_call(l);
    L[prefix + ".self_share"] = self_ns(l) / capacity_ns;
  };

  // sim: the loop's own time is whatever no span covers.
  L["sim.events"] = static_cast<double>(r->events);
  L["sim.delivered"] = static_cast<double>(r->delivered);
  L["sim.self_share"] = (capacity_ns - root_ns) / capacity_ns;
  seam("sim.send", Layer::kSimSend);
  // Every worker's barrier wait also spans the benchmark's own work between
  // runs, when all of them are parked; that part is not the engine's.
  p2::obs::Snapshot::Hist barrier = HistDelta(a.snap, b.snap, "p2_shard_barrier_wait_ns");
  double outside_ns = static_cast<double>(b.outside_ns - a.outside_ns) *
                      static_cast<double>(fleet->workers());
  L["sim.barrier_wait_share"] =
      std::max(0.0, static_cast<double>(barrier.sum) - outside_ns) / capacity_ns;
  L["sim.steals"] = CounterDelta(a.snap, b.snap, "p2_shard_steals_total");
  L["sim.imbalance_pct"] = imbalance_mean;

  // net: the reliable channel (absent, so zero, on best-effort fleets).
  seam("net.send", Layer::kNetSend);
  seam("net.recv", Layer::kNetRecv);
  seam("net.timer", Layer::kNetTimer);
  L["net.self_share"] =
      (self_ns(Layer::kNetSend) + self_ns(Layer::kNetRecv) + self_ns(Layer::kNetTimer)) /
      capacity_ns;
  L["net.data_frames"] = b.channels.data_frames - a.channels.data_frames;
  L["net.retransmits"] = b.channels.retransmits - a.channels.retransmits;
  L["net.acks_sent"] = b.channels.acks_sent - a.channels.acks_sent;
  L["net.duplicates"] = b.channels.duplicates - a.channels.duplicates;
  L["net.queue_drops"] = b.channels.queue_drops - a.channels.queue_drops;
  L["net.expired"] = b.channels.expired - a.channels.expired;
  double wire_sends = static_cast<double>(layer(Layer::kSimSend).calls);
  L["net.useful_ratio"] = fleet->reliable() && wire_sends > 0
                              ? static_cast<double>(layer(Layer::kP2Recv).calls) / wire_sends
                              : 0;

  // p2: the node's packet handler and its timers (the dataflow runs there).
  seam("p2.recv", Layer::kP2Recv);
  seam("p2.timer", Layer::kP2Timer);
  L["p2.self_share"] = (self_ns(Layer::kP2Recv) + self_ns(Layer::kP2Timer)) / capacity_ns;
  L["p2.tuples_sent"] = CounterDelta(a.snap, b.snap, "p2_node_tuples_sent_total");
  L["p2.tuples_from_net"] = CounterDelta(a.snap, b.snap, "p2_node_tuples_from_net_total");
  L["p2.loopbacks"] = CounterDelta(a.snap, b.snap, "p2_node_local_loopbacks_total");
  L["p2.bad_packets"] = CounterDelta(a.snap, b.snap, "p2_node_bad_packets_total");

  ReplayWire(fleet, &L);

  L["dataflow.rule_fires"] = CounterDelta(a.snap, b.snap, "p2_rule_fires_total");
  L["dataflow.element_out"] = CounterDelta(a.snap, b.snap, "p2_element_out_total");
  p2::obs::Snapshot::Hist fire_ns = HistDelta(a.snap, b.snap, "p2_rule_fire_ns");
  L["dataflow.rule_fire_ns_p50"] = HistMedian(fire_ns);
  L["dataflow.rule_fire_ns_mean"] =
      fire_ns.count > 0 ? static_cast<double>(fire_ns.sum) / static_cast<double>(fire_ns.count)
                        : 0;
  L["dataflow.queue_dropped"] = CounterDelta(a.snap, b.snap, "p2_queue_dropped_total");

  L["table.inserts"] = CounterDelta(a.snap, b.snap, "p2_table_inserts_total");
  L["table.deletes"] = CounterDelta(a.snap, b.snap, "p2_table_deletes_total");
  L["table.expiries"] = CounterDelta(a.snap, b.snap, "p2_table_expiries_total");
  L["table.replaces"] = CounterDelta(a.snap, b.snap, "p2_table_replaces_total");
  L["table.deltas"] = CounterDelta(a.snap, b.snap, "p2_table_deltas_total");
  L["table.rows_end"] = GaugeSum(b.snap, "p2_table_rows");

  L["overlog.install_s"] = r->install_s;
  L["overlog.install_share"] = r->setup_s.empty() ? 0 : r->install_s / r->setup_s.back();

  double scheduled = static_cast<double>(b.timers_scheduled - a.timers_scheduled);
  double cancelled = static_cast<double>(b.timers_cancelled - a.timers_cancelled);
  L["timer.scheduled"] = scheduled;
  L["timer.cancelled"] = cancelled;
  L["timer.cancel_ratio"] = scheduled > 0 ? cancelled / scheduled : 0;

  L["trace.coverage"] = root_ns / capacity_ns;
  L["trace.layer_sum"] = L["sim.self_share"] + L["sim.send.self_share"] +
                         L["net.self_share"] + L["p2.self_share"];
  uint64_t dropped = 0;
  for (size_t s = 0; s < fleet->tracer()->num_shards(); ++s) {
    dropped += fleet->tracer()->shard(s)->dropped_spans();
  }
  L["trace.spans_not_kept"] = static_cast<double>(dropped);
}

// Drives the window in 1-virtual-second steps. `before_step(t0, t1)`
// queues the step's inputs and `probe(t)` runs the benchmark's checks at
// virtual time t; both run between timed calls and are never timed. Each
// step advances in `1 / probes_per_step` slices with a probe after each.
// Traffic is normalised by `live` nodes.
template <typename BeforeStep, typename Probe>
void DriveWindow(SimFleet* fleet, size_t slots, size_t live, double window_s,
                 int probes_per_step, BeforeStep before_step, Probe probe, RunResult* r) {
  p2::ShardedSim* engine = fleet->engine();
  bool traced = fleet->tracer() != nullptr;
  p2::obs::Gauge* imbalance = fleet->registry()->GetGauge(
      engine->num_shards(), "p2_shard_window_imbalance_pct");
  Mark a = TakeMark(fleet, slots);
  if (traced) {
    fleet->tracer()->Reset();
    for (size_t s = 0; s < fleet->tracer()->num_shards(); ++s) {
      fleet->sampler(s)->Reset();
    }
  }
  double t_start = engine->Now();
  size_t steps = static_cast<size_t>(std::llround(window_s));
  double imbalance_sum = 0;
  for (size_t step = 0; step < steps; ++step) {
    double t0 = t_start + static_cast<double>(step);
    before_step(t0, t0 + 1.0);
    int64_t wall = 0;
    for (int k = 1; k <= probes_per_step; ++k) {
      double until = t0 + static_cast<double>(k) / probes_per_step;
      int64_t w0 = NowNs();
      fleet->RunUntil(until);
      wall += NowNs() - w0;
      probe(until);
    }
    r->step_wall_s.push_back(Seconds(wall));
    imbalance_sum += static_cast<double>(imbalance->value());
  }
  Mark b = TakeMark(fleet, slots);
  double wall_s = 0;
  for (double w : r->step_wall_s) {
    wall_s += w;
  }
  r->window_virtual_s = static_cast<double>(steps);
  r->events = b.events - a.events;
  r->delivered = b.delivered - a.delivered;
  r->maint_bytes_per_s_per_node =
      static_cast<double>(b.non_lookup_bytes - a.non_lookup_bytes) / r->window_virtual_s /
      static_cast<double>(std::max<size_t>(live, 1));
  if (traced) {
    LayerMetrics(fleet, a, b, wall_s, imbalance_sum / static_cast<double>(steps), r);
  }
}

FleetConfig FleetFor(const RunOptions& o) {
  FleetConfig c;
  c.slots = o.spec.nodes;
  c.seed = o.seed;
  c.workers = o.spec.workers;
  c.reliable = o.spec.reliable;
  c.loss = o.spec.loss;
  c.traced = o.traced;
  return c;
}

// Mean approximate working set (tables + dataflow graph) of live nodes.
template <typename Node>
double MeanMemoryBytes(const std::vector<std::unique_ptr<Node>>& nodes) {
  double total = 0;
  size_t live = 0;
  for (const auto& n : nodes) {
    if (n != nullptr) {
      total += static_cast<double>(n->node()->ApproxMemoryBytes());
      ++live;
    }
  }
  return live == 0 ? 0 : total / static_cast<double>(live);
}

// --- Chord ----------------------------------------------------------------

class ChordBench {
 public:
  explicit ChordBench(const RunOptions& opts)
      : opts_(opts), fleet_(FleetFor(opts)), n_(opts.spec.nodes) {
    // The scale-profile timers of src/cli/scenario.cc's Chord runner.
    chord_.stabilize_period_s = 3.0;
    chord_.finger_fix_period_s = 6.0;
    p2::Rng rng(opts.seed);
    for (size_t i = 0; i < n_; ++i) {
      channel_seeds_.push_back(rng.NextU64());
      node_seeds_.push_back(rng.NextU64());
      ring_.emplace_back(p2::Uint160::HashOf(fleet_.addr(i)), i);
    }
    std::sort(ring_.begin(), ring_.end());
    nodes_.resize(n_);
    size_t shards = fleet_.engine()->num_shards();
    pending_.resize(shards);
    results_.resize(shards);
  }

  ~ChordBench() { nodes_.clear(); }

  SimFleet* fleet() { return &fleet_; }

  // Staggered joins through node 0, then settling. Returns the set-up wall
  // time without the benchmark's own consistency polls.
  double Setup(RunResult* r) {
    int64_t start = NowNs();
    int64_t poll_ns = 0;
    MakeNode(0, "");
    const std::string landmark = fleet_.addr(0);
    p2::ShardedSim* engine = fleet_.engine();
    for (size_t i = 1; i < n_; ++i) {
      engine->control()->ScheduleAfter(kJoinStaggerS * static_cast<double>(i),
                                       [this, i, landmark]() { MakeNode(i, landmark); });
    }
    double last_join = kJoinStaggerS * static_cast<double>(n_ - 1);
    fleet_.RunUntil(last_join);
    double ring = 0;
    r->heal_s = -1;
    while (engine->Now() < last_join + kSettleCapS) {
      fleet_.RunFor(kSettlePollS);
      int64_t p0 = NowNs();
      ring = RingConsistency();
      poll_ns += NowNs() - p0;
      if (r->heal_s < 0 && ring >= kRingGate) {
        r->heal_s = engine->Now() - last_join;
      }
      if (ring >= kRingGate && engine->Now() >= last_join + kSettleTailS) {
        break;
      }
    }
    r->ring_consistency = ring;
    r->converged = ring >= kRingGate;
    r->install_s = Seconds(install_ns_);
    return Seconds(NowNs() - start - poll_ns);
  }

  void Window(RunResult* r) {
    double window_s = WindowVirtualS(opts_.spec, opts_.seconds);
    std::vector<PlannedLookup> plan =
        LookupSchedule(opts_.seed, kLookupRatePerS, window_s - kLookupTimeoutS, n_);
    recs_.assign(plan.size(), Rec{});
    p2::ShardedSim* engine = fleet_.engine();
    double t_start = engine->Now();
    size_t next = 0;
    auto before_step = [&](double, double t1) {
      for (; next < plan.size() && t_start + plan[next].at_s < t1; ++next) {
        size_t idx = next;
        size_t origin = plan[idx].origin;
        size_t shard = fleet_.shard_of(origin);
        double at = t_start + plan[idx].at_s;
        recs_[idx].issued_at = at;
        engine->shard(shard)->ScheduleAfter(at - engine->Now(), [this, idx, origin, shard,
                                                                  key = plan[idx].key]() {
          pending_[shard][nodes_[origin]->Lookup(key).Low64()] = idx;
        });
      }
    };
    auto probe = [&](double) { Drain(plan); };
    DriveWindow(&fleet_, n_, n_, window_s, 1, before_step, probe, r);

    for (const Rec& rec : recs_) {
      ++r->attempted;
      if (rec.correct) {
        r->answer_s.push_back(rec.latency_s);
      }
    }
    r->failed = r->attempted - r->answer_s.size();
    if (fleet_.tracer() != nullptr) {
      r->layers["p2.mem_bytes_per_node"] = MeanMemoryBytes(nodes_);
    }
    r->ok_frac = r->attempted == 0 ? 0
                                   : static_cast<double>(r->answer_s.size()) /
                                         static_cast<double>(r->attempted);
    for (const auto& node : nodes_) {
      r->bad_packets += node->node()->stats().bad_packets;
    }
  }

 private:
  struct Rec {
    double issued_at = 0;
    bool correct = false;  // answered within the timeout by the true successor
    double latency_s = 0;
  };
  struct Answer {
    uint64_t event;
    std::string addr;
    double at;
  };

  void MakeNode(size_t slot, const std::string& landmark) {
    p2::P2NodeConfig nc = fleet_.BuildStack(slot, channel_seeds_[slot]);
    nc.seed = node_seeds_[slot];
    int64_t t0 = NowNs();
    nodes_[slot] = std::make_unique<p2::ChordNode>(nc, chord_, landmark);
    install_ns_ += NowNs() - t0;
    size_t shard = fleet_.shard_of(slot);
    p2::Executor* loop = fleet_.engine()->shard(shard);
    // Only answers to the workload's pending lookups are kept; finger-fix
    // and join lookups answer here too.
    nodes_[slot]->OnLookupResult([this, shard, loop](const p2::ChordNode::LookupResult& res) {
      uint64_t event = res.event_id.Low64();
      if (pending_[shard].count(event) != 0) {
        results_[shard].push_back(Answer{event, res.successor_addr, loop->Now()});
      }
    });
    nodes_[slot]->Start();
  }

  // Slot of the live node whose id is the clockwise successor of `key`.
  size_t TrueSuccessor(const p2::Uint160& key) const {
    auto it = std::lower_bound(ring_.begin(), ring_.end(), std::make_pair(key, size_t{0}));
    return it == ring_.end() ? ring_.front().second : it->second;
  }

  double RingConsistency() {
    size_t ok = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (nodes_[i] == nullptr) {
        continue;
      }
      auto best = nodes_[i]->BestSuccessor();
      if (best.has_value() &&
          best->second == fleet_.addr(TrueSuccessor(nodes_[i]->id() + p2::Uint160(1)))) {
        ++ok;
      }
    }
    return static_cast<double>(ok) / static_cast<double>(n_);
  }

  // Matches answers gathered on the shards to their lookups and judges
  // them against the ring (coordinator, between steps).
  void Drain(const std::vector<PlannedLookup>& plan) {
    for (size_t s = 0; s < results_.size(); ++s) {
      for (const Answer& a : results_[s]) {
        auto it = pending_[s].find(a.event);
        if (it == pending_[s].end()) {
          continue;  // a duplicate answer to an already judged lookup
        }
        Rec& rec = recs_[it->second];
        const PlannedLookup& l = plan[it->second];
        pending_[s].erase(it);
        rec.latency_s = a.at - rec.issued_at;
        rec.correct = rec.latency_s <= kLookupTimeoutS &&
                      a.addr == fleet_.addr(TrueSuccessor(l.key));
      }
      results_[s].clear();
    }
  }

  RunOptions opts_;
  SimFleet fleet_;
  size_t n_;
  p2::ChordConfig chord_;
  std::vector<uint64_t> channel_seeds_;
  std::vector<uint64_t> node_seeds_;
  std::vector<std::pair<p2::Uint160, size_t>> ring_;  // sorted by id
  std::vector<std::unique_ptr<p2::ChordNode>> nodes_;
  int64_t install_ns_ = 0;
  std::vector<Rec> recs_;
  // Per-shard lanes, written only by their shard's thread during a step.
  std::vector<std::unordered_map<uint64_t, size_t>> pending_;  // event -> lookup
  std::vector<std::vector<Answer>> results_;
};

// --- Pathvector -------------------------------------------------------------

class PathVectorBench {
 public:
  explicit PathVectorBench(const RunOptions& opts)
      : opts_(opts), fleet_(PlacedFleet(opts)), n_(opts.spec.nodes) {
    // The simulator settings of src/cli/scenario.cc's pathvector runner.
    pv_.advertise_period_s = 1.0;
    pv_.route_lifetime_s = pv_.advertise_period_s * 3.5;
    nodes_.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
      slot_of_[fleet_.addr(i)] = i;
    }
  }

  ~PathVectorBench() { nodes_.clear(); }

  SimFleet* fleet() { return &fleet_; }

  // Builds the ring and runs the advertisement rounds that converge it to
  // full routing tables. Returns the set-up wall time without the
  // benchmark's own table check.
  double Setup(RunResult* r) {
    int64_t start = NowNs();
    for (size_t i = 0; i < n_; ++i) {
      p2::P2NodeConfig nc = fleet_.BuildStack(i, 0);
      nc.seed = opts_.seed + i;
      std::vector<std::pair<std::string, int64_t>> links{
          {fleet_.addr((i + 1) % n_), 1}, {fleet_.addr((i + n_ - 1) % n_), 1}};
      int64_t t0 = NowNs();
      nodes_[i] = std::make_unique<p2::PathVectorNode>(nc, pv_, links);
      install_ns_ += NowNs() - t0;
      nodes_[i]->Start();
    }
    double rounds = static_cast<double>(n_) / 2.0 + 8.0;
    fleet_.RunFor(rounds * pv_.advertise_period_s);
    double wall = Seconds(NowNs() - start);
    size_t full = 0;
    for (const auto& node : nodes_) {
      full += node->BestRoutes().size() >= n_ - 1 ? 1 : 0;
    }
    r->converged = full == n_;
    r->install_s = Seconds(install_ns_);
    return wall;
  }

  // Kills the seed's victim, tells only its two ring neighbours, and runs
  // the window with a route probe every 0.25 virtual s.
  void Window(RunResult* r) {
    double window_s = WindowVirtualS(opts_.spec, opts_.seconds);
    victim_ = KillVictim(opts_.seed, n_);
    p2::ShardedSim* engine = fleet_.engine();
    kill_at_ = engine->Now();
    last_wrong_.assign(n_ * n_, -1.0);
    r->heal_s = -1;
    Kill();
    auto before_step = [](double, double) {};
    uint64_t pair_checks = 0;
    uint64_t pair_ok = 0;
    bool healed_now = false;
    auto probe = [&](double t) {
      uint64_t wrong = Probe(t, &pair_checks, &pair_ok);
      healed_now = wrong == 0;
      if (healed_now && r->heal_s < 0) {
        r->heal_s = t - kill_at_;
      }
    };
    DriveWindow(&fleet_, n_, n_ - 1, window_s, static_cast<int>(std::lround(1.0 / kProbeS)),
                before_step, probe, r);

    r->healed = healed_now;
    r->ok_frac = pair_checks == 0 ? 0
                                  : static_cast<double>(pair_ok) /
                                        static_cast<double>(pair_checks);
    // Final probe: every live pair checked once more at window end.
    uint64_t end_checks = 0;
    uint64_t end_ok = 0;
    Probe(engine->Now(), &end_checks, &end_ok);
    r->attempted = end_checks;
    r->failed = end_checks - end_ok;
    if (fleet_.tracer() != nullptr) {
      r->layers["p2.mem_bytes_per_node"] = MeanMemoryBytes(nodes_);
    }
    for (double w : last_wrong_) {
      if (w >= 0) {
        r->answer_s.push_back(w + kProbeS - kill_at_);
      }
    }
    for (size_t i = 0; i < n_; ++i) {
      if (nodes_[i] != nullptr) {
        r->bad_packets += nodes_[i]->node()->stats().bad_packets;
      }
    }
  }

 private:
  static FleetConfig PlacedFleet(const RunOptions& o) {
    FleetConfig c = FleetFor(o);
    // Ring neighbours land in random stub domains, so link latencies (and
    // with them the healing dynamics) depend on the seed.
    c.placement = Placement(o.seed, o.spec.nodes);
    return c;
  }

  // The neighbours drop the link and delete their candidate routes over
  // the dead node (genuine table deletes); nobody else is told.
  void Kill() {
    const std::string dead = fleet_.addr(victim_);
    nodes_[victim_]->Stop();
    nodes_[victim_].reset();
    fleet_.KillStack(victim_);
    for (size_t nb : {(victim_ + 1) % n_, (victim_ + n_ - 1) % n_}) {
      p2::PathVectorNode* neighbor = nodes_[nb].get();
      neighbor->RemoveLink(dead);
      p2::Table* route = neighbor->node()->GetTable("route");
      p2::Value hop = p2::Value::Addr(dead);
      for (const p2::TuplePtr& row : route->Scan()) {
        if (row->size() >= 4 && (row->field(1) == hop || row->field(2) == hop)) {
          route->DeleteByKey({row->field(1), row->field(2)});
        }
      }
    }
  }

  // Checks every live (node, destination) pair against the post-kill
  // ground truth — the ring minus the victim is a line, and unit costs make
  // the true distance exact; destinations beyond the advertisement horizon
  // are skipped. A node still routing to the dead node counts one wrong
  // pair. Returns the number of wrong pairs.
  uint64_t Probe(double t, uint64_t* checks, uint64_t* ok) {
    const std::string& dead = fleet_.addr(victim_);
    auto line_pos = [&](size_t slot) { return (slot + n_ - victim_ - 1) % n_; };
    uint64_t wrong = 0;
    std::vector<int64_t> best(n_);
    for (size_t i = 0; i < n_; ++i) {
      if (i == victim_) {
        continue;
      }
      std::fill(best.begin(), best.end(), -1);
      bool stale = false;
      for (const p2::RouteEntry& route : nodes_[i]->BestRoutes()) {
        stale = stale || route.dst == dead;
        auto slot = slot_of_.find(route.dst);
        if (slot != slot_of_.end()) {
          best[slot->second] = route.cost;
        }
      }
      wrong += stale ? 1 : 0;
      for (size_t j = 0; j < n_; ++j) {
        if (j == victim_ || j == i) {
          continue;
        }
        int64_t truth = std::llabs(static_cast<int64_t>(line_pos(i)) -
                                   static_cast<int64_t>(line_pos(j)));
        if (truth >= pv_.max_cost) {
          continue;
        }
        bool right = best[j] == truth;
        ++*checks;
        if (right) {
          ++*ok;
        } else {
          ++wrong;
          last_wrong_[i * n_ + j] = t;
        }
      }
    }
    return wrong;
  }

  RunOptions opts_;
  SimFleet fleet_;
  size_t n_;
  p2::PathVectorConfig pv_;
  std::vector<std::unique_ptr<p2::PathVectorNode>> nodes_;
  int64_t install_ns_ = 0;
  size_t victim_ = 0;
  double kill_at_ = 0;
  std::vector<double> last_wrong_;  // per pair: last probe time it was wrong
  std::unordered_map<std::string, size_t> slot_of_;
};

// Builds `setups` fleets (each timed), keeps the last, and runs its window.
template <typename Bench>
RunResult Run(const RunOptions& opts) {
  RunResult r;
  std::unique_ptr<Bench> bench;
  for (int k = 0; k < std::max(1, opts.setups); ++k) {
    bench.reset();
    RunResult setup;
    bench = std::make_unique<Bench>(opts);
    r.setup_s.push_back(bench->Setup(&setup));
    r.install_s = setup.install_s;
    r.heal_s = setup.heal_s;
    r.ring_consistency = setup.ring_consistency;
    r.converged = setup.converged;
  }
  if (r.converged) {
    bench->Window(&r);
  }
  Tracer* tracer = bench->fleet()->tracer();
  if (tracer != nullptr && !opts.span_path.empty() && !tracer->WriteSpans(opts.span_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opts.span_path.c_str());
  }
  r.shards = bench->fleet()->engine()->num_shards();
  return r;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec s;
  if (name == "chord-lossy" || name == "chord-lossy-4shard") {
    s.chord = true;
    s.nodes = 64;
    s.workers = name == "chord-lossy" ? 1 : 4;
    s.reliable = true;
    s.loss = 0.2;
  } else if (name == "pathvector-heal") {
    s.chord = false;
    s.nodes = 64;
    s.workers = 1;
  } else {
    return false;
  }
  *out = s;
  return true;
}

double WindowVirtualS(const WorkloadSpec& spec, double seconds) {
  if (spec.chord) {
    double floor_s = 100.0 + kLookupTimeoutS;
    return std::max(floor_s, std::round(seconds * kChordVirtPerS));
  }
  double floor_s = 90.0 + static_cast<double>(spec.nodes);
  return std::max(floor_s, std::round(seconds * kPathVectorVirtPerS));
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult r = options.spec.chord ? Run<ChordBench>(options) : Run<PathVectorBench>(options);
  r.workers = options.spec.workers;
  return r;
}

}  // namespace perfbench
