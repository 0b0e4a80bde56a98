#include "perfbench/cc/fleet.h"

namespace perfbench {

namespace {

// Raw spans kept per shard for the exit dump; totals keep accumulating
// past the cap.
constexpr size_t kSpanCapPerShard = 1 << 14;
// Every 16th payload at the overlay-node seam, up to 4096 per shard, is
// kept for the wire-codec replay.
constexpr size_t kSampleEvery = 16;
constexpr size_t kSampleCap = 4096;

}  // namespace

SimFleet::SimFleet(const FleetConfig& config) : config_(config) {
  engine_ = std::make_unique<p2::ShardedSim>(config.workers);
  // With more than one worker the network reshapes the engine to one shard
  // per topology domain, so everything sized by shard count comes after.
  net_ = std::make_unique<p2::SimNetwork>(engine_.get(), p2::Topology(p2::TopologyConfig{}),
                                          config.seed ^ 0x5EEDULL);
  net_->set_loss_rate(config.loss);
  size_t shards = engine_->num_shards();
  registry_ = std::make_unique<p2::obs::Registry>(shards + 1);
  engine_->SetObs(registry_.get(), nullptr);
  if (config.traced) {
    tracer_ = std::make_unique<Tracer>(shards, kSpanCapPerShard);
    for (size_t s = 0; s < shards; ++s) {
      samplers_.push_back(std::make_unique<PayloadSampler>(kSampleEvery, kSampleCap));
    }
  }
  stacks_.resize(config.slots);
  for (size_t i = 0; i < config.slots; ++i) {
    addrs_.push_back("n" + std::to_string(i));
  }
}

SimFleet::~SimFleet() = default;

p2::P2NodeConfig SimFleet::BuildStack(size_t slot, uint64_t channel_seed) {
  Stack& st = stacks_[slot];
  size_t shard = shard_of(slot);
  p2::Executor* loop = engine_->shard(shard);
  ShardTrace* trace = tracer_ != nullptr ? tracer_->shard(shard) : nullptr;
  p2::Executor* node_exec = loop;
  p2::Executor* channel_exec = loop;
  if (trace != nullptr) {
    if (st.node_exec == nullptr) {
      st.node_exec = std::make_unique<TimedExecutor>(loop, trace, Layer::kP2Timer);
      st.channel_exec = std::make_unique<TimedExecutor>(loop, trace, Layer::kNetTimer);
    }
    node_exec = st.node_exec.get();
    channel_exec = st.channel_exec.get();
  }

  st.wire = net_->MakeTransport(addrs_[slot], topo_index(slot));
  p2::Transport* top = st.wire.get();
  if (config_.reliable) {
    if (trace != nullptr) {
      st.below_channel = std::make_unique<TimedTransport>(top, trace, Layer::kSimSend,
                                                          Layer::kNetRecv);
      top = st.below_channel.get();
    }
    st.channel = std::make_unique<p2::ReliableChannel>(top, channel_exec,
                                                       p2::ReliableConfig{}, channel_seed);
    top = st.channel.get();
  }
  if (trace != nullptr) {
    Layer send = config_.reliable ? Layer::kNetSend : Layer::kSimSend;
    st.below_node = std::make_unique<TimedTransport>(top, trace, send, Layer::kP2Recv,
                                                     samplers_[shard].get());
    top = st.below_node.get();
  }

  p2::P2NodeConfig nc;
  nc.addr = addrs_[slot];
  nc.executor = node_exec;
  nc.transport = top;
  nc.metrics = registry_.get();
  return nc;
}

void SimFleet::RunUntil(double deadline) {
  int64_t start = NowNs();
  if (last_run_end_ns_ != 0) {
    outside_ns_ += start - last_run_end_ns_;
  }
  engine_->RunUntil(deadline);
  last_run_end_ns_ = NowNs();
}

void SimFleet::KillStack(size_t slot) {
  Stack& st = stacks_[slot];
  st.below_node.reset();
  st.channel.reset();
  st.below_channel.reset();
  st.wire.reset();
}

uint64_t SimFleet::TimersScheduled() const {
  uint64_t total = 0;
  for (const Stack& st : stacks_) {
    total += st.node_exec != nullptr ? st.node_exec->scheduled() : 0;
    total += st.channel_exec != nullptr ? st.channel_exec->scheduled() : 0;
  }
  return total;
}

uint64_t SimFleet::TimersCancelled() const {
  uint64_t total = 0;
  for (const Stack& st : stacks_) {
    total += st.node_exec != nullptr ? st.node_exec->cancelled() : 0;
    total += st.channel_exec != nullptr ? st.channel_exec->cancelled() : 0;
  }
  return total;
}

}  // namespace perfbench
