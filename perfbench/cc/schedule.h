// Workload inputs generated from the benchmark seed.
//
// The overlay under test receives only what these functions produce: the
// open-loop lookup schedule (issue times, origins, keys), the pathvector
// nodes' places on the simulated topology, and the pathvector kill victim.
// All are pure functions of their arguments, so one seed gives the same
// inputs at any shard count and with tracing on or off.
#ifndef PERFBENCH_CC_SCHEDULE_H_
#define PERFBENCH_CC_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/runtime/uint160.h"

namespace perfbench {

struct PlannedLookup {
  double at_s = 0;     // issue time, virtual seconds from window start
  size_t origin = 0;   // fleet slot that issues the lookup
  p2::Uint160 key;
};

// Open loop at a fixed rate: lookup k is due at (k + 0.5) / rate_per_s for
// every due time below `issue_for_s`, from a uniformly random origin among
// `nodes` slots, for a uniformly random key. Lookups are issued when due,
// whether or not earlier ones have been answered.
std::vector<PlannedLookup> LookupSchedule(uint64_t seed, double rate_per_s,
                                          double issue_for_s, size_t nodes);

// The pathvector node to kill after convergence, uniform over `nodes`.
size_t KillVictim(uint64_t seed, size_t nodes);

// A uniformly random permutation of 0..nodes-1: entry i is the topology
// slot (and so the stub domain and link latencies) of overlay node i.
std::vector<size_t> Placement(uint64_t seed, size_t nodes);

}  // namespace perfbench

#endif  // PERFBENCH_CC_SCHEDULE_H_
