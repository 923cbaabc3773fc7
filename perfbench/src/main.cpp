// ccmm_perfbench: one workload per invocation.
//
//   ccmm_perfbench --workload lint|serve|bounded --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR] [--smoke]
//                  [--wrong-expected]
//
// Prints a `host` line and a `notes` line, then, as its last line, the
// JSON result {"correct", "attempted", "failed", "metrics"}. Exit code 0
// iff every verdict matched its known answer. Traced runs also write
// their spans to DIR/spans/<workload>-seed<N>.tsv.
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "ccmm_perfbench: " << why
            << "\nusage: ccmm_perfbench --workload lint|serve|bounded "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--smoke] [--wrong-expected]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opts.workload = value();
      else if (a == "--seed") opts.seed = std::stoull(value());
      else if (a == "--seconds") opts.seconds = std::stod(value());
      else if (a == "--trace") opts.trace = value() == "1";
      else if (a == "--work-dir") opts.work_dir = value();
      else if (a == "--smoke") opts.smoke = true;
      else if (a == "--wrong-expected") opts.wrong_expected = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  void (*run)(const Options&, Result&, Tracer&) = nullptr;
  if (opts.workload == "lint") run = run_lint;
  else if (opts.workload == "serve") run = run_serve;
  else if (opts.workload == "bounded") run = run_bounded;
  else return usage("unknown workload");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  Result result;
  Tracer tracer;
  std::filesystem::create_directories(opts.work_dir);
  try {
    run(opts, result, tracer);
  } catch (const std::exception& e) {
    result.attempt();
    result.fail(std::string("workload aborted: ") + e.what());
  }

  const std::string tag = opts.workload + "-seed" + std::to_string(opts.seed);
  if (opts.trace)
    write_spans(tracer.spans(), opts.work_dir / "spans" / (tag + ".tsv"));
  const std::string host = host_json();
  const std::string record = "{\"host\": " + host +
                             ", \"notes\": " + result.notes_json() +
                             ", \"result\": " + result.json() + "}";
  std::filesystem::create_directories(opts.work_dir / "results");
  std::ofstream(opts.work_dir / "results" /
                (tag + (opts.trace ? "-trace1" : "-trace0") + ".json"))
      << record << "\n";
  std::cout << "host " << host << "\n";
  std::cout << "notes " << result.notes_json() << "\n";
  std::cout << result.json() << std::endl;
  return result.correct() ? 0 : 1;
}
