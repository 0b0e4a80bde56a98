// ChordTestbed: the simulated Emulab deployment (§5).
//
// Builds N Chord participants (declarative P2 Chord or the hand-coded
// baseline) on the transit-stub topology, staggers their joins, issues
// uniform lookup workloads, and measures what the paper's evaluation
// measures: hop counts, lookup latency, lookup consistency against a live
// ground truth, and per-node maintenance bandwidth.
//
// The testbed runs on a ShardedSim: with config.shards > 1 the fleet is
// partitioned across share-nothing shard threads (one event loop, timer
// wheel and RNG lane per shard) under conservative time-window
// synchronization, and a fixed seed produces the same per-node event
// sequences at any shard count. Fleet-level actions — staggered joins,
// churn replacement, bootstrap-snapshot refresh — run as control-timeline
// tasks on the coordinator thread while shards are parked; measurement
// hooks that fire on shard threads (lookup completions, hop counting)
// write only per-shard state that is merged on the coordinator when read.
#ifndef P2_HARNESS_WORKLOAD_H_
#define P2_HARNESS_WORKLOAD_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baseline/chord_baseline.h"
#include "src/harness/churn.h"
#include "src/harness/faults.h"
#include "src/net/stack/reliable_channel.h"
#include "src/obs/channel_stats.h"
#include "src/overlays/chord.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"

namespace p2 {

struct TestbedConfig {
  size_t num_nodes = 100;
  uint64_t seed = 42;
  bool use_baseline = false;  // false: P2 OverLog Chord; true: hand-coded
  // Requested simulator worker threads (1 = single-threaded). With more
  // than one, the engine runs one share-nothing shard per topology domain
  // and min(shards, domains) workers execute them; a domain is never
  // split across shards.
  size_t shards = 1;
  // Work stealing: re-assign whole shards to workers at window barriers,
  // balancing the completed window's per-shard event counts. Results are
  // bit-for-bit identical either way (the plan is pure virtual-time
  // state); off pins the static shard = id-mod-workers map.
  bool steal = true;
  ChordConfig chord;
  BaselineChordConfig baseline;
  TopologyConfig topology;
  double loss_rate = 0;          // probability any datagram is dropped
  double join_stagger_s = 0.25;  // delay between consecutive joins
  double lookup_timeout_s = 20.0;
  // Workload-level lookup retries (standard DHT-evaluation methodology:
  // re-issue unanswered lookups until the timeout). 0 disables.
  double lookup_retry_s = 4.0;
  int lookup_max_retries = 4;
  // Cadence of the control-timeline refresh of the bootstrap snapshot the
  // per-node landmark providers draw from.
  double bootstrap_refresh_s = 5.0;
  // Layer a ReliableChannel (ACK/retry, RTT estimation, AIMD congestion
  // control) between every node and its SimTransport.
  bool reliable = false;
  ReliableConfig reliable_config;
  // Planner configuration for every P2 node the testbed builds (ignored by
  // the baseline): > 0 enables the adaptive join-order loop.
  double replan_interval_s = 0;
  // Observability (all optional). The registry/trace need one lane per
  // shard plus the coordinator — with shards > 1 that is
  // topology.num_domains + 1 lanes, else 2; watches and the sysstats
  // period are passed through to every P2 node the testbed builds.
  obs::Registry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
  std::vector<std::string> watches;
  double sysstats_period_s = 0;
  // Fault plan evaluated on the fabric's send path (asymmetric loss,
  // partitions, spikes, corruption), at node construction (slow-node
  // dilation, byzantine responder rules) and — for the timed windows — via
  // ArmFaults() once the ring has settled.
  FaultPlan faults;
};

class ChordTestbed : public ChurnTarget {
 public:
  struct LookupRecord {
    Uint160 key;
    Uint160 event;
    std::string origin;   // issuing node's address
    size_t origin_slot = 0;
    double issued_at = 0;
    bool completed = false;
    double latency_s = 0;
    int hops = 0;
    int retries = 0;
    bool consistent = false;
    std::string result_addr;
  };

  explicit ChordTestbed(TestbedConfig config);
  ~ChordTestbed();

  // Creates all nodes with staggered joins, then runs the simulation until
  // `settle_deadline_s` of virtual time has elapsed.
  void BuildAndSettle(double settle_deadline_s);

  void RunFor(double seconds);
  // Fixes the fault plan's time base at the current virtual time and
  // schedules its partition/spike transitions on the control timeline.
  // Call once, after settle, so "--partition 10:30:0" means "10s into
  // measurement"; no-op without a fault plan.
  void ArmFaults();
  // Non-null when config.faults was non-empty.
  FaultInjector* faults() { return injector_.get(); }
  ShardedSim* engine() { return &engine_; }
  double Now() const { return engine_.Now(); }
  // Events executed across every shard (plus control tasks).
  uint64_t EventsRun() const { return engine_.events_run(); }

  // Issues one lookup for a uniformly random key from a random live node.
  void IssueRandomLookup();
  // Lookup history with hop counts finalized (merged across shards).
  // Coordinator thread only, between runs.
  const std::vector<LookupRecord>& lookups();
  // Drops lookup history (e.g. after warm-up).
  void ClearLookups();

  // The live node whose identifier is the clockwise successor of `key`
  // (ground truth for consistency checking).
  std::string GroundTruthSuccessor(const Uint160& key) const;

  // Fraction of live nodes whose best successor matches ground truth.
  double RingConsistencyFraction() const;
  // Fraction of live nodes with at least one successor (joined).
  double JoinedFraction() const;

  size_t num_live() const { return live_count_; }
  // Sum of maintenance / lookup bytes sent by live nodes.
  uint64_t TotalMaintBytesOut() const;
  uint64_t TotalLookupBytesOut() const;
  // Mean approximate working set of live P2 nodes (bytes); 0 for baseline.
  double MeanNodeMemoryBytes() const;
  // Mean number of resolved finger-table rows per live P2 node (0 for the
  // baseline flavor; used by the finger-fixing ablation).
  double MeanFingerRows() const;

  // Summed reliable-transport counters across live and churned-out nodes;
  // all-zero when config.reliable is off.
  ReliableChannelStats TotalReliableStats() const;

  // Per-slot state snapshots for the shard-determinism harness: the best
  // successor address (empty if none) and datagrams delivered to the
  // slot's current endpoint, indexed by slot.
  std::vector<std::string> BestSuccessorByNode();
  std::vector<uint64_t> DeliveredByNode() const;

  // --- Churn support ---
  // Kills the node in `slot` (transport unregistered; peers see silence)
  // and immediately replaces it with a fresh node that joins through a
  // random live landmark. Returns false if the slot was the only live node.
  bool ReplaceNode(size_t slot);
  size_t num_slots() const { return slots_.size(); }
  uint64_t KilledBytesMaint() const { return dead_maint_bytes_; }

  // ChurnTarget implementation (the generic ChurnDriver interface). Churn
  // runs on the control timeline: replacements mutate cross-shard state,
  // so they execute at window barriers with every shard parked.
  Executor* churn_executor() override { return engine_.control(); }
  size_t churn_slots() const override { return slots_.size(); }
  bool ChurnReplace(size_t slot) override { return ReplaceNode(slot); }

 private:
  struct Slot {
    std::string addr;
    Uint160 id;
    size_t topo_index = 0;
    size_t shard = 0;
    std::unique_ptr<Rng> boot_rng;  // landmark-provider stream (shard thread)
    // Slow-node timer dilation. Declared before (so destroyed after) the
    // channel and nodes, which hold it as their executor; kept across churn
    // replacements so the slot stays slow for life.
    std::unique_ptr<DilatedExecutor> dilated;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;  // only when config.reliable
    std::unique_ptr<ChordNode> p2;
    std::unique_ptr<BaselineChordNode> baseline;
    bool alive = false;
  };

  void MakeNode(size_t slot, const std::string& landmark);
  void HookMeasurement(size_t slot);
  void ScheduleLookupRetry(size_t record_index);
  // Landmark re-resolution for join retries. Runs on the caller's shard
  // thread: draws from the slot's own RNG stream over the bootstrap
  // snapshot (refreshed only at control barriers), so it is both race-free
  // and shard-count-invariant.
  std::string SnapshotBootstrap(size_t slot);
  // Control timeline: re-scans which live nodes have joined the ring.
  void RefreshJoinedSnapshot();
  void ScheduleBootstrapRefresh();
  void OnLookupResult(size_t shard, const Uint160& key, const std::string& result_addr,
                      const Uint160& event);
  std::string NextAddr();

  TestbedConfig config_;
  ShardedSim engine_;
  SimNetwork network_;
  std::unique_ptr<FaultInjector> injector_;  // non-null iff config.faults.any()
  // Per-shard p2_lookup_wrong_total handles (byzantine detection metric);
  // empty without a registry.
  std::vector<obs::Counter*> wrong_lookup_;
  Rng rng_;
  Rng boot_seed_rng_;  // seeds per-slot landmark-provider streams
  std::vector<Slot> slots_;
  size_t live_count_ = 0;
  uint64_t addr_counter_ = 0;
  uint64_t dead_maint_bytes_ = 0;
  uint64_t dead_lookup_bytes_ = 0;
  // Fleet reliable-channel aggregation (retired channels + live source).
  obs::ChannelStatsPool channel_pool_;
  bool refresh_scheduled_ = false;

  // Bootstrap snapshot: written by control tasks at barriers, read by
  // landmark providers on shard threads.
  std::vector<std::string> snap_joined_;
  std::vector<std::string> snap_live_;

  std::vector<LookupRecord> lookups_;
  bool hops_finalized_ = true;
  // Per-shard measurement lanes: each map is written only by its shard's
  // thread (hooks) or by the coordinator while shards are parked.
  // event id low64 -> record index (issued from a node on that shard).
  std::vector<std::unordered_map<uint64_t, size_t>> pending_;
  // event id low64 -> virtual times the lookup tuple arrived at nodes on
  // that shard. Arrival *times* (not bare counts) so the merge can
  // reproduce the single-loop semantics exactly: a record's hop count is
  // the number of arrivals at or before its completion, which freezes the
  // figure against straggling retry copies that keep hopping afterwards.
  std::vector<std::unordered_map<uint64_t, std::vector<double>>> hop_arrivals_;
};

}  // namespace p2

#endif  // P2_HARNESS_WORKLOAD_H_
