// The benchmark's workloads: one seeded run of a fleet through set-up and
// a fixed virtual-time window, with the benchmark's own checks kept
// between the timed steps.
#ifndef PERFBENCH_CC_WORKLOADS_H_
#define PERFBENCH_CC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  bool chord = true;  // false: pathvector
  size_t nodes = 0;
  size_t workers = 1;
  bool reliable = false;
  double loss = 0;
};

// The three workloads by name; false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;  // sets the window length (see WindowVirtualS)
  bool traced = false;
  int setups = 1;       // fleets built; the last one runs the window
  std::string span_path;  // traced: where to write the raw spans
};

// Virtual seconds in the timed window: a fixed multiple of the requested
// seconds, floored at what the workload's metrics need (>= 100 one-second
// steps, every lookup's full timeout inside the window, the pathvector
// heal cap of 90 s + nodes).
double WindowVirtualS(const WorkloadSpec& spec, double seconds);

struct RunResult {
  std::vector<double> setup_s;  // wall, one per fleet built
  double install_s = 0;         // wall inside overlay-node constructors (last fleet)
  double window_virtual_s = 0;
  std::vector<double> step_wall_s;
  uint64_t events = 0;     // simulator events in the window
  uint64_t delivered = 0;  // datagrams delivered in the window
  double ok_frac = 0;
  std::vector<double> answer_s;  // virtual seconds to a correct answer
  double maint_bytes_per_s_per_node = 0;
  double heal_s = 0;
  double ring_consistency = 0;  // chord: before the window
  bool converged = false;       // chord ring >= 0.95 / pathvector tables full
  bool healed = false;          // pathvector: routes right at window end
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t bad_packets = 0;
  size_t workers = 1;
  size_t shards = 1;
  // Traced run only: per-layer metrics by name.
  std::map<std::string, double> layers;
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORKLOADS_H_
