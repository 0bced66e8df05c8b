// perfbench_driver: runs one benchmark workload and prints its report
// as one JSON object on stdout. perfbench/run.py owns the named
// workload presets and the result contract; see perfbench/README.md.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --mode open|offline --window N --limit-ms L
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::RunOptions;

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

RunOptions parse_options(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    auto num = [&] {
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !std::isfinite(x)) {
        usage_error("bad number for " + flag + ": " + v);
      }
      return x;
    };
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") o.seconds = num();
    else if (flag == "--trace") o.trace = num() != 0.0;
    else if (flag == "--mode") {
      if (v != "open" && v != "offline") usage_error("--mode open|offline");
      o.open_loop = v == "open";
    } else if (flag == "--limit-ms") o.limit_ms = num();
    else if (flag == "--window") o.window = static_cast<std::size_t>(num());
    else if (flag == "--spans-out") o.spans_out = v;
    else usage_error("unknown option " + flag);
  }
  return o;
}

template <typename Map, typename Fmt>
void print_object(const char* key, const Map& m, Fmt fmt, bool last = false) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
    fmt(v);
    first = false;
  }
  std::printf("}%s", last ? "" : ", ");
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions o = parse_options(argc, argv);
  perfbench::RunReport rep;
  try {
    rep = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  auto number = [](double v) { std::printf("%.17g", std::isfinite(v) ? v : 0.0); };
  std::printf("{\"workload\": \"%s\", \"trace\": %d, ", o.workload.c_str(),
              o.trace ? 1 : 0);
  print_object("machine", rep.machine, [](const std::string& v) {
    std::printf("%s", v.c_str());
  });
  print_object("checks", rep.checks, [](bool v) {
    std::printf("%s", v ? "true" : "false");
  });
  print_object("counts", rep.counts, number);
  print_object("e2e", rep.e2e, number);
  print_object("layers", rep.layers, number);
  print_object("extra", rep.extra, number, true);
  std::printf("}\n");
  return 0;
}
