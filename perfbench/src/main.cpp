// perfbench: host cost per simulated transaction, one workload per run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints one JSON object as the last line of stdout: whether the checks
// over the whole pass held (`correct`), the operations attempted and those
// that failed one of their own checks (`failed`), and the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). See README.md.

#include <charconv>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

template <typename T>
bool parse(std::string_view text, T& out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), out);
  return res.ec == std::errc{} && res.ptr == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Options options;
  int trace = 0;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      options.workload = std::string(value);
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse(value, options.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse(value, options.seconds) || !(options.seconds > 0) ||
          options.seconds > 120) {
        return usage("--seconds must be in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (!parse(value, trace) || (trace != 0 && trace != 1)) {
        return usage("--trace must be 0 or 1");
      }
    } else if (arg == "--out") {
      options.out_dir = std::string(value);
    } else {
      return usage("unknown option");
    }
  }
  options.trace = trace == 1;
  perfbench::Workload workload;
  if (!have_workload) return usage("--workload is required");
  if (!perfbench::make_workload(options.workload, workload)) {
    return usage("unknown workload");
  }

  const perfbench::Report report =
      perfbench::run_sim(options, workload, process_start);
  std::cout << report.json() << std::endl;
  return 0;
}
