// perfbench — runs one workload and prints one JSON line with every metric
// it measured (value, unit, sample count, quartiles) plus the host it ran
// on. perfbench/run.py builds this binary and turns that line into the
// benchmark's result.
//
//   perfbench --workload paper_suite|serve_small|cluster_mixed
//             --seed N --seconds S --trace 0|1 [--trace-file PATH]
//   perfbench --selftest
//
// Exit status: 0 when every output checked correct, 1 on a wrong output,
// 2 on bad arguments or a failed self-test.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
int run_selftest();

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lk(mu_);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans_) {
    f << (first ? "" : ",") << "\n{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0"
      << ",\"ts\":" << secs(s.begin - epoch_) * 1e6
      << ",\"dur\":" << secs(s.end - s.begin) * 1e6
      << ",\"args\":{\"id\":" << s.id << "}}";
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}
}  // namespace perfbench

namespace {

using namespace perfbench;

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void print_result(const Options& opt, const RunResult& r, bool correct) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("\"host\":{\"cores\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\"},",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, __VERSION__);
  std::printf("\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"mismatches\":%llu,",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.mismatches));
  std::printf("\"notes\":[");
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", r.notes[i].c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\":{\"value\":", first ? "" : ",", name.c_str());
    print_number(m.value);
    std::printf(",\"unit\":\"%s\",\"n\":%zu,\"q1\":", m.unit.c_str(), m.n);
    print_number(m.q1);
    std::printf(",\"q3\":");
    print_number(m.q3);
    std::printf("}");
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_file;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--selftest") {
      selftest_only = true;
    } else if (v != nullptr && a == "--workload") {
      opt.workload = argv[++i];
    } else if (v != nullptr && a == "--seed") {
      opt.seed = std::stoull(argv[++i]);
    } else if (v != nullptr && a == "--seconds") {
      opt.seconds = std::stod(argv[++i]);
    } else if (v != nullptr && a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (v != nullptr && a == "--trace-file") {
      trace_file = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (const int failed = run_selftest(); failed != 0 || selftest_only) {
    std::fprintf(stderr, "perfbench: selftest %s\n", failed ? "FAILED" : "passed");
    return failed ? 2 : 0;
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }

  if (opt.trace) Tracer::get().enable(Clock::now());
  RunResult r;
  if (opt.workload == "paper_suite") {
    r = run_paper_suite(opt);
  } else if (opt.workload == "serve_small") {
    r = run_serve_small(opt);
  } else if (opt.workload == "cluster_mixed") {
    r = run_cluster_mixed(opt);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (!r.metrics.contains("peak_rss_mb")) {
    r.metrics["peak_rss_mb"] = single_metric(peak_rss_mb(), "MB");
  }
  if (opt.trace) {
    run_layer_probes(opt, r);
    r.metrics["trace.spans"] =
        single_metric(static_cast<double>(Tracer::get().size()), "count");
    if (!trace_file.empty() && !Tracer::get().write(trace_file)) {
      r.notes.push_back("could not write the trace file");
    }
  }
  const bool correct = r.mismatches == 0;
  print_result(opt, r, correct);
  return correct ? 0 : 1;
}
