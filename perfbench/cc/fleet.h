// SimFleet: a simulated fleet assembled from the runtime's public classes.
//
// The benchmark cannot use ChordTestbed or ScenarioNet: both build their
// transport stacks internally, so there is no seam to time. SimFleet owns
// the ShardedSim, the SimNetwork and the metrics registry, and builds each
// slot's stack by hand —
//
//   untraced:  node | ReliableChannel | SimTransport
//   traced:    node | TimedTransport | ReliableChannel | TimedTransport | SimTransport
//
// (without the channel for best-effort fleets), with the node and the
// channel on TimedExecutor wrappers of their shard's loop when traced. The
// decorators pass everything through unchanged, so a traced fleet executes
// exactly the events of an untraced one; the benchmark checks that.
#ifndef PERFBENCH_CC_FLEET_H_
#define PERFBENCH_CC_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/cc/trace.h"
#include "src/net/stack/reliable_channel.h"
#include "src/obs/registry.h"
#include "src/p2/node.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"

namespace perfbench {

struct FleetConfig {
  size_t slots = 0;
  uint64_t seed = 1;
  size_t workers = 1;     // simulator worker threads
  bool reliable = false;  // ReliableChannel between node and SimTransport
  double loss = 0;        // uniform datagram loss in the fabric
  bool traced = false;
  // Topology slot of each fleet slot; empty places slot i at slot i.
  std::vector<size_t> placement;
};

class SimFleet {
 public:
  explicit SimFleet(const FleetConfig& config);
  ~SimFleet();
  SimFleet(const SimFleet&) = delete;
  SimFleet& operator=(const SimFleet&) = delete;

  // Builds slot i's endpoint stack and returns a node config whose
  // executor, transport, address and registry are filled in. `channel_seed`
  // seeds the slot's ReliableChannel (ignored for best-effort fleets).
  p2::P2NodeConfig BuildStack(size_t slot, uint64_t channel_seed);
  // Tears slot i's stack down (a crash: its address stops receiving). The
  // node using the stack must already be destroyed. The slot's executor
  // wrappers stay alive: tasks they wrapped may still be queued.
  void KillStack(size_t slot);

  // Advances the simulation. Every run goes through here so the wall time
  // spent outside the engine between runs (the benchmark's own work) is
  // known and can be taken out of the engine's barrier-wait figures.
  void RunUntil(double deadline);
  void RunFor(double seconds) { RunUntil(engine_->Now() + seconds); }
  int64_t outside_ns() const { return outside_ns_; }

  const std::string& addr(size_t slot) const { return addrs_[slot]; }
  size_t shard_of(size_t slot) const { return net_->ShardOf(topo_index(slot)); }
  size_t workers() const { return engine_->num_workers(); }
  bool reliable() const { return config_.reliable; }
  p2::ShardedSim* engine() { return engine_.get(); }
  p2::SimNetwork* net() { return net_.get(); }
  p2::obs::Registry* registry() { return registry_.get(); }
  // Null when untraced.
  Tracer* tracer() { return tracer_.get(); }
  PayloadSampler* sampler(size_t shard) { return samplers_[shard].get(); }
  // Null for best-effort fleets and dead slots.
  p2::ReliableChannel* channel(size_t slot) { return stacks_[slot].channel.get(); }
  // The bottom of slot i's stack (traffic counters); null when dead.
  p2::SimTransport* wire(size_t slot) { return stacks_[slot].wire.get(); }

  size_t topo_index(size_t slot) const {
    return config_.placement.empty() ? slot : config_.placement[slot];
  }

  // Timer schedules / cancels seen by every TimedExecutor (traced only).
  uint64_t TimersScheduled() const;
  uint64_t TimersCancelled() const;

 private:
  // Members destroy in reverse declaration order: outermost layer first.
  struct Stack {
    std::unique_ptr<TimedExecutor> node_exec;
    std::unique_ptr<TimedExecutor> channel_exec;
    std::unique_ptr<p2::SimTransport> wire;
    std::unique_ptr<TimedTransport> below_channel;
    std::unique_ptr<p2::ReliableChannel> channel;
    std::unique_ptr<TimedTransport> below_node;
  };

  FleetConfig config_;
  // Sized once the network has fixed the shard count, but declared first so
  // they outlive the engine and its shard threads.
  std::unique_ptr<p2::obs::Registry> registry_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<std::unique_ptr<PayloadSampler>> samplers_;
  std::unique_ptr<p2::ShardedSim> engine_;
  std::unique_ptr<p2::SimNetwork> net_;
  std::vector<std::string> addrs_;
  std::vector<Stack> stacks_;
  int64_t last_run_end_ns_ = 0;
  int64_t outside_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_FLEET_H_
