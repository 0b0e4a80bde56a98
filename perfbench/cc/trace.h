// Span tracing for the benchmark's traced run.
//
// The benchmark measures layers from the outside: it stacks timing
// decorators at the seams the runtime already exposes — a Transport
// decorator between the overlay node and the ReliableChannel, another
// between the channel and the SimTransport, and an Executor wrapper around
// every node's and every channel's executor — and records one span per
// call that crosses a seam. The simulator's own loop is the implicit root:
// whatever part of a timed step no span covers is the `sim` layer's self
// time.
//
// Spans live in per-shard memory. A shard is run by one worker thread at a
// time and changes hands only at window barriers, so each ShardTrace has a
// single writer at any instant and needs no locking. Self time — a span's
// duration minus the part its child spans cover — is accumulated on the
// fly per layer; the raw spans (name, start, end, parent) are kept up to a
// cap and written out when the benchmark ends.
#ifndef PERFBENCH_CC_TRACE_H_
#define PERFBENCH_CC_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/runtime/executor.h"

namespace perfbench {

// The seams a span can sit on, named `<module>.<operation>` after the
// src/ module that does the work inside the span.
enum class Layer : uint8_t {
  kSimSend,   // SimTransport::SendTo
  kNetSend,   // ReliableChannel::SendTo
  kNetRecv,   // ReliableChannel's datagram handler (ACKs, dedup, pass-up)
  kNetTimer,  // ReliableChannel retransmit / delayed-ACK timers
  kP2Recv,    // P2Node's packet handler (unframe, demux into the queue)
  kP2Timer,   // P2Node timers: the dataflow driver, periodic sources
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

// Monotonic wall clock in nanoseconds.
int64_t NowNs();

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = the simulator loop (no enclosing span)
  Layer layer = Layer::kSimSend;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct LayerTotals {
  uint64_t calls = 0;
  int64_t self_ns = 0;  // span time not covered by child spans
};

// One shard's span stack, per-layer totals and span buffer.
class ShardTrace {
 public:
  explicit ShardTrace(size_t span_cap) : span_cap_(span_cap) {}

  void Open(Layer layer);
  void Close();

  const std::array<LayerTotals, kNumLayers>& totals() const { return totals_; }
  // Summed duration of outermost spans: the part of the shard's run time
  // some layer other than the simulator loop accounts for.
  int64_t root_ns() const { return root_ns_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }
  // Forgets totals and recorded spans; called at the start of the timed
  // window so warm-up work does not count. No span may be open.
  void Reset();

 private:
  struct Frame {
    Layer layer;
    uint32_t id;
    uint32_t parent;
    int64_t start_ns;
    int64_t child_ns;
  };

  size_t span_cap_;
  uint32_t next_id_ = 1;
  std::vector<Frame> stack_;
  std::array<LayerTotals, kNumLayers> totals_{};
  int64_t root_ns_ = 0;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_spans_ = 0;
};

// RAII span; a null trace makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(ShardTrace* trace, Layer layer) : trace_(trace) {
    if (trace_ != nullptr) {
      trace_->Open(layer);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ShardTrace* trace_;
};

// Fleet-wide tracer: one ShardTrace per simulator shard.
class Tracer {
 public:
  Tracer(size_t shards, size_t span_cap_per_shard);

  ShardTrace* shard(size_t i) { return shards_[i].get(); }
  size_t num_shards() const { return shards_.size(); }

  void Reset();
  // Per-layer totals and root time summed over shards. Coordinator only,
  // while shards are parked.
  std::array<LayerTotals, kNumLayers> Totals() const;
  int64_t RootNs() const;
  // Writes every recorded span as a tab-separated line
  // `shard id parent name start_ns end_ns`; false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<ShardTrace>> shards_;
};

// Sink for datagram payloads crossing the overlay-node seam, so the wire
// codec can be timed afterwards on real traffic (see wire.* metrics).
class PayloadSampler {
 public:
  PayloadSampler(size_t every, size_t cap) : every_(every), cap_(cap) {}
  void Observe(const std::vector<uint8_t>& bytes);

  uint64_t count() const { return count_; }
  uint64_t bytes() const { return bytes_; }
  const std::vector<std::vector<uint8_t>>& samples() const { return samples_; }
  // Forgets everything seen so far (start of the timed window).
  void Reset();

 private:
  size_t every_;
  size_t cap_;
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
  std::vector<std::vector<uint8_t>> samples_;
};

// Transport decorator: records a `send_layer` span around the inner
// SendTo and a `recv_layer` span around the upcall to whatever sits
// above. Addresses, payloads and traffic classes pass through unchanged,
// so the decorated stack behaves exactly like the bare one.
class TimedTransport : public p2::Transport {
 public:
  // `inner` must outlive this decorator. `sampler` may be null.
  TimedTransport(p2::Transport* inner, ShardTrace* trace, Layer send_layer,
                 Layer recv_layer, PayloadSampler* sampler = nullptr);
  ~TimedTransport() override;
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  const std::string& local_addr() const override { return inner_->local_addr(); }
  using p2::Transport::SendTo;
  void SendTo(const std::string& to, std::vector<uint8_t> bytes,
              p2::TrafficClass cls) override;
  void SetReceiver(ReceiveFn fn) override;
  const p2::TrafficStats& stats() const override { return inner_->stats(); }

 private:
  p2::Transport* inner_;
  ShardTrace* trace_;
  Layer send_layer_;
  Layer recv_layer_;
  PayloadSampler* sampler_;
  ReceiveFn receiver_;
};

// Executor wrapper: every task scheduled through it runs inside a span of
// `layer`, and schedules / cancels are counted. Timer ids, delays and
// ordering are the base executor's, so event order is unchanged.
class TimedExecutor : public p2::Executor {
 public:
  // `base` must outlive this wrapper, and this wrapper must outlive every
  // task scheduled through it that can still run.
  TimedExecutor(p2::Executor* base, ShardTrace* trace, Layer layer)
      : base_(base), trace_(trace), layer_(layer) {}

  double Now() const override { return base_->Now(); }
  size_t shard_index() const override { return base_->shard_index(); }
  p2::TimerId ScheduleAfter(double delay, p2::Task task) override;
  void Cancel(p2::TimerId id) override;

  uint64_t scheduled() const { return scheduled_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  p2::Executor* base_;
  ShardTrace* trace_;
  Layer layer_;
  uint64_t scheduled_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_TRACE_H_
