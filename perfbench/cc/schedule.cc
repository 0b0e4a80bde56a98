#include "perfbench/cc/schedule.h"

#include <utility>

#include "src/runtime/random.h"

namespace perfbench {

std::vector<PlannedLookup> LookupSchedule(uint64_t seed, double rate_per_s,
                                          double issue_for_s, size_t nodes) {
  std::vector<PlannedLookup> out;
  if (rate_per_s <= 0 || nodes == 0) {
    return out;
  }
  p2::Rng rng(seed ^ 0x10C4A9ULL);
  for (size_t k = 0;; ++k) {
    double at = (static_cast<double>(k) + 0.5) / rate_per_s;
    if (at >= issue_for_s) {
      break;
    }
    PlannedLookup l;
    l.at_s = at;
    l.origin = static_cast<size_t>(rng.NextBelow(nodes));
    l.key = rng.NextId();
    out.push_back(l);
  }
  return out;
}

size_t KillVictim(uint64_t seed, size_t nodes) {
  p2::Rng rng(seed ^ 0xDEADULL);
  return static_cast<size_t>(rng.NextBelow(nodes));
}

std::vector<size_t> Placement(uint64_t seed, size_t nodes) {
  std::vector<size_t> out(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    out[i] = i;
  }
  p2::Rng rng(seed ^ 0x9A1ACEULL);
  for (size_t i = nodes; i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(rng.NextBelow(i))]);
  }
  return out;
}

}  // namespace perfbench
