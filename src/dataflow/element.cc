#include "src/dataflow/element.h"

#include "src/obs/registry.h"
#include "src/runtime/logging.h"

namespace p2 {

int Element::Push(int port, const TuplePtr& t, const Callback& cb) {
  (void)port;
  (void)t;
  (void)cb;
  P2_FATAL("element '%s' has no push input", name_.c_str());
}

int Element::PushMany(int port, const std::vector<TuplePtr>& ts, const Callback& cb) {
  int signal = 1;
  for (const TuplePtr& t : ts) {
    signal &= Push(port, t, cb);
  }
  return signal;
}

TuplePtr Element::Pull(int port, const Callback& cb) {
  (void)port;
  (void)cb;
  P2_FATAL("element '%s' has no pull output", name_.c_str());
}

void Element::BindOutput(int out_port, Element* dst, int dst_port) {
  if (outputs_.size() <= static_cast<size_t>(out_port)) {
    outputs_.resize(out_port + 1);
  }
  outputs_[out_port] = PortRef{dst, dst_port};
}

void Element::BindInput(int in_port, Element* src, int src_port) {
  if (inputs_.size() <= static_cast<size_t>(in_port)) {
    inputs_.resize(in_port + 1);
  }
  inputs_[in_port] = PortRef{src, src_port};
}

int Element::PushOut(int out_port, const TuplePtr& t, const Callback& cb) {
  if (obs_out_ != nullptr) {
    obs_out_->Inc();
  }
  if (static_cast<size_t>(out_port) >= outputs_.size() ||
      outputs_[out_port].element == nullptr) {
    return 1;  // Unconnected output: drop.
  }
  PortRef& ref = outputs_[out_port];
  return ref.element->Push(ref.port, t, cb);
}

int Element::PushOutMany(int out_port, const std::vector<TuplePtr>& ts, const Callback& cb) {
  if (obs_out_ != nullptr) {
    obs_out_->Inc(ts.size());
  }
  if (static_cast<size_t>(out_port) >= outputs_.size() ||
      outputs_[out_port].element == nullptr) {
    return 1;  // Unconnected output: drop.
  }
  PortRef& ref = outputs_[out_port];
  return ref.element->PushMany(ref.port, ts, cb);
}

void Element::CountOut() {
  if (obs_out_ != nullptr) {
    obs_out_->Inc();
  }
}

TuplePtr Element::PullIn(int in_port, const Callback& cb) {
  if (static_cast<size_t>(in_port) >= inputs_.size() || inputs_[in_port].element == nullptr) {
    return nullptr;
  }
  PortRef& ref = inputs_[in_port];
  return ref.element->Pull(ref.port, cb);
}

}  // namespace p2
