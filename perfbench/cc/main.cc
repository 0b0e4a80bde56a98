// p2bench: runs one benchmark workload once and prints its measurements as
// one JSON object on stdout. perfbench/run.py drives it (one process per
// fleet configuration: the main run with its repeated set-ups, the 1-worker
// shard reference, the traced twin) and turns the records into the
// benchmark's result line.
//
//   p2bench --workload chord-lossy|chord-lossy-4shard|pathvector-heal
//           --seed N --seconds S [--trace 0|1] [--setups K] [--spans PATH]
//
// Exit status: 0 after a completed run (the record says whether the
// overlay converged and healed; run.py judges it), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/cc/workloads.h"

namespace {

// Peak resident set of this process in MB (VmHWM), 0 if unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

int Usage() {
  std::fprintf(stderr,
               "usage: p2bench --workload NAME --seed N --seconds S [--trace 0|1] "
               "[--setups K] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opts.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.traced = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--setups") == 0) {
      opts.setups = std::atoi(value);
    } else if (std::strcmp(flag, "--spans") == 0) {
      opts.span_path = value;
    } else {
      return Usage();
    }
  }
  if (!perfbench::FindWorkload(workload, &opts.spec) || opts.seconds <= 0 ||
      opts.setups < 1) {
    return Usage();
  }

  perfbench::RunResult r = perfbench::RunWorkload(opts);

  std::string out = "{";
  auto field = [&out](const std::string& key, const std::string& value) {
    out += (out.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
  };
  field("workload", "\"" + workload + "\"");
  field("seed", std::to_string(opts.seed));
  field("traced", opts.traced ? "true" : "false");
  field("workers", std::to_string(r.workers));
  field("shards", std::to_string(r.shards));
  field("host_cores", std::to_string(std::thread::hardware_concurrency()));
  field("nodes", std::to_string(opts.spec.nodes));
  field("setup_s", NumList(r.setup_s));
  field("install_s", Num(r.install_s));
  field("converged", r.converged ? "true" : "false");
  field("ring_consistency", Num(r.ring_consistency));
  field("healed", r.healed ? "true" : "false");
  field("window_virtual_s", Num(r.window_virtual_s));
  field("step_wall_s", NumList(r.step_wall_s));
  field("events", std::to_string(r.events));
  field("delivered", std::to_string(r.delivered));
  field("ok_frac", Num(r.ok_frac));
  field("answer_s", NumList(r.answer_s));
  field("maint_Bps_per_node", Num(r.maint_bytes_per_s_per_node));
  field("heal_s", Num(r.heal_s));
  field("attempted", std::to_string(r.attempted));
  field("failed", std::to_string(r.failed));
  field("bad_packets", std::to_string(r.bad_packets));
  field("peak_rss_mb", Num(PeakRssMb()));
  std::string layers = "{";
  for (const auto& [name, v] : r.layers) {
    layers += (layers.size() > 1 ? ", \"" : "\"") + name + "\": " + Num(v);
  }
  field("layers", layers + "}");
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
