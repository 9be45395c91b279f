//===- main.cpp - perfbench: the repository's benchmark driver -----------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload apps|jit-cold|jit-warm --seed N --seconds S
//           --trace 0|1 --scratch DIR [--trace-file PATH]
//
// Prints the effective configuration first and, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones of a traced run. Exits non-zero, without a
// result line, when the harness itself fails (a PROTEUS_* variable in the
// environment, a self-check or exactness failure). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "apps|jit-cold|jit-warm --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-file PATH]\n",
               Msg);
  return 2;
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos ||
      S.size() > 19)
    return false;
  Out = std::stoull(S);
  return true;
}

/// Removes the invocation's private directory on every exit path.
struct ScratchGuard {
  std::string Path;
  ~ScratchGuard() {
    std::error_code EC;
    if (!Path.empty())
      fs::remove_all(Path, EC);
  }
};

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string ScratchRoot;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      O.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N >= 1 &&
               N <= 3600) {
      O.Seconds = static_cast<unsigned>(N);
      HaveSeconds = true;
    } else if (Arg == "--trace" && (Val == "0" || Val == "1")) {
      O.Trace = Val == "1";
      HaveTrace = true;
    } else if (Arg == "--scratch") {
      ScratchRoot = Val;
    } else if (Arg == "--trace-file") {
      O.TraceFile = Val;
    } else {
      return usage(("bad argument " + Arg + " " + Val).c_str());
    }
  }
  if (O.Workload != "apps" && O.Workload != "jit-cold" &&
      O.Workload != "jit-warm")
    return usage("--workload must be apps, jit-cold or jit-warm");
  if (!HaveSeed || !HaveSeconds || !HaveTrace || ScratchRoot.empty())
    return usage("--seed, --seconds, --trace and --scratch are required");

  // Hermetic configuration: nothing in the user's shell may change what a
  // workload does.
  std::vector<std::string> Env = proteusEnvironment();
  if (!Env.empty()) {
    std::string Names;
    for (const std::string &E : Env)
      Names += " " + E;
    std::fprintf(stderr,
                 "perfbench: refusing to run with PROTEUS_* variables set "
                 "(%s ); unset them\n",
                 Names.c_str() + 1);
    return 2;
  }

  ScratchGuard Guard;
  O.Scratch = ScratchRoot + "/run-" + std::to_string(::getpid());
  std::error_code EC;
  fs::remove_all(O.Scratch, EC);
  if (!fs::create_directories(O.Scratch, EC)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", O.Scratch.c_str());
    return 2;
  }
  Guard.Path = O.Scratch;

  std::printf("perfbench: workload=%s seed=%llu seconds=%u trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  printConfig(benchJitConfig(O.Scratch + "/<private>"));
  std::fflush(stdout);

  try {
    Outcome R = O.Workload == "apps"       ? runApps(O)
                : O.Workload == "jit-cold" ? runJitCold(O)
                                           : runJitWarm(O);
    for (const Metric &M : R.Metrics) {
      std::printf("  %-32s %16.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
      if (!std::isfinite(M.Value))
        throw Fatal("metric " + M.Name + " is not finite");
    }
    printResult(R.Failed == 0, R.Attempted, R.Failed, R.Metrics);
    return R.Failed == 0 ? 0 : 1;
  } catch (const std::exception &E) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", E.what());
    return 1;
  }
}
