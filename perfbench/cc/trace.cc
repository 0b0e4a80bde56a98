#include "perfbench/cc/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimSend:
      return "sim.send";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kNetRecv:
      return "net.recv";
    case Layer::kNetTimer:
      return "net.timer";
    case Layer::kP2Recv:
      return "p2.recv";
    case Layer::kP2Timer:
      return "p2.timer";
    case Layer::kCount:
      break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ShardTrace::Open(Layer layer) {
  uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Frame{layer, next_id_++, parent, NowNs(), 0});
}

void ShardTrace::Close() {
  int64_t end = NowNs();
  Frame f = stack_.back();
  stack_.pop_back();
  int64_t duration = end - f.start_ns;
  LayerTotals& t = totals_[static_cast<size_t>(f.layer)];
  ++t.calls;
  t.self_ns += duration - f.child_ns;
  if (stack_.empty()) {
    root_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
  if (spans_.size() < span_cap_) {
    spans_.push_back(SpanRecord{f.id, f.parent, f.layer, f.start_ns, end});
  } else {
    ++dropped_spans_;
  }
}

void ShardTrace::Reset() {
  totals_ = {};
  root_ns_ = 0;
  spans_.clear();
  dropped_spans_ = 0;
}

Tracer::Tracer(size_t shards, size_t span_cap_per_shard) {
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<ShardTrace>(span_cap_per_shard));
  }
}

void Tracer::Reset() {
  for (auto& s : shards_) {
    s->Reset();
  }
}

std::array<LayerTotals, kNumLayers> Tracer::Totals() const {
  std::array<LayerTotals, kNumLayers> out{};
  for (const auto& s : shards_) {
    for (size_t l = 0; l < kNumLayers; ++l) {
      out[l].calls += s->totals()[l].calls;
      out[l].self_ns += s->totals()[l].self_ns;
    }
  }
  return out;
}

int64_t Tracer::RootNs() const {
  int64_t total = 0;
  for (const auto& s : shards_) {
    total += s->root_ns();
  }
  return total;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "shard\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const SpanRecord& r : shards_[s]->spans()) {
      std::fprintf(f, "%zu\t%u\t%u\t%s\t%lld\t%lld\n", s, r.id, r.parent,
                   LayerName(r.layer), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void PayloadSampler::Observe(const std::vector<uint8_t>& bytes) {
  if (count_ % every_ == 0 && samples_.size() < cap_) {
    samples_.push_back(bytes);
  }
  ++count_;
  bytes_ += bytes.size();
}

void PayloadSampler::Reset() {
  count_ = 0;
  bytes_ = 0;
  samples_.clear();
}

TimedTransport::TimedTransport(p2::Transport* inner, ShardTrace* trace, Layer send_layer,
                               Layer recv_layer, PayloadSampler* sampler)
    : inner_(inner),
      trace_(trace),
      send_layer_(send_layer),
      recv_layer_(recv_layer),
      sampler_(sampler) {}

TimedTransport::~TimedTransport() {
  if (receiver_) {
    inner_->SetReceiver(ReceiveFn());
  }
}

void TimedTransport::SendTo(const std::string& to, std::vector<uint8_t> bytes,
                            p2::TrafficClass cls) {
  if (sampler_ != nullptr) {
    sampler_->Observe(bytes);
  }
  ScopedSpan span(trace_, send_layer_);
  inner_->SendTo(to, std::move(bytes), cls);
}

void TimedTransport::SetReceiver(ReceiveFn fn) {
  receiver_ = std::move(fn);
  if (!receiver_) {
    inner_->SetReceiver(ReceiveFn());
    return;
  }
  inner_->SetReceiver([this](const std::string& from, const std::vector<uint8_t>& bytes) {
    if (sampler_ != nullptr) {
      sampler_->Observe(bytes);
    }
    ScopedSpan span(trace_, recv_layer_);
    receiver_(from, bytes);
  });
}

p2::TimerId TimedExecutor::ScheduleAfter(double delay, p2::Task task) {
  ++scheduled_;
  return base_->ScheduleAfter(delay, [this, task = std::move(task)]() {
    ScopedSpan span(trace_, layer_);
    task();
  });
}

void TimedExecutor::Cancel(p2::TimerId id) {
  if (id != p2::kInvalidTimer) {
    ++cancelled_;
  }
  base_->Cancel(id);
}

}  // namespace perfbench
