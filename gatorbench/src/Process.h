//===- Process.h - Run one child process and collect its rusage -*- C++ -*-===//
//
// Linux charges a new process the peak resident set of the process that
// spawned it (ru_maxrss survives exec). The benchmark itself grows to tens
// of MB while it validates inputs, so it never spawns gator_cli directly:
// a launcher forked at start-up, while the benchmark is still small,
// spawns each child and reports its exit code, output and resource use.
//
//===----------------------------------------------------------------------===//

#ifndef GATORBENCH_PROCESS_H
#define GATORBENCH_PROCESS_H

#include <string>
#include <vector>

namespace gatorbench {

/// What one child run produced and cost.
struct ChildRun {
  /// Exit code; -1 when the child could not start or died on a signal.
  int ExitCode = -1;
  std::string Out;      ///< captured standard output
  double WallMs = 0;    ///< from spawn to reaped, in the launcher
  double MaxRssMb = 0;  ///< the child's ru_maxrss
  long MinorFaults = 0; ///< the child's ru_minflt
};

/// Owns the launcher process: starts it on construction, and on
/// destruction closes its request pipe and waits for it to exit. Create
/// one before the benchmark allocates much; runChild needs it.
class Launcher {
public:
  Launcher();
  ~Launcher();
  Launcher(const Launcher &) = delete;
  Launcher &operator=(const Launcher &) = delete;

  bool ok() const { return Pid > 0; }

private:
  int Pid = -1;
};

/// Runs \p Argv (Argv[0] is a path) through the launcher with stdout
/// captured and stderr discarded, waits for it, and returns its exit code
/// and resource use. ExitCode stays -1 when no launcher is running.
ChildRun runChild(const std::vector<std::string> &Argv);

} // namespace gatorbench

#endif // GATORBENCH_PROCESS_H
