#ifndef SERVEBENCH_SERVER_PROCESS_H_
#define SERVEBENCH_SERVER_PROCESS_H_

// The firehose_serve child process: spawned with its output sent to a
// log file, polled for the port file it writes once bound, read through
// /proc while it runs, and always reaped — killed first if it is still
// running when the handle goes away.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `args`; stdout and stderr go to `log_path`.
  /// The child is killed if this process dies first.
  [[nodiscard]] bool Spawn(const std::string& binary,
                           const std::vector<std::string>& args,
                           const std::string& log_path, std::string* error);

  /// Waits until `path` holds a complete port line. Fails early when the
  /// child exits first.
  [[nodiscard]] bool WaitForPortFile(const std::string& path, int timeout_ms,
                                     int* port, std::string* error);

  /// CPU time (utime + stime, ms) and peak resident set (VmHWM, MiB).
  [[nodiscard]] bool ReadUsage(double* cpu_ms, double* peak_rss_mb) const;

  /// Waits for a clean exit (status 0). On timeout the child is killed;
  /// either way it is reaped before this returns.
  [[nodiscard]] bool WaitExit(int timeout_ms, std::string* error);

  /// SIGKILL + reap; a no-op when nothing is running.
  void Kill();

 private:
  pid_t pid_ = -1;
  int exit_status_ = 0;
  bool TryReap();
};

/// Reads a whole (small) file; false when it cannot be opened.
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace servebench

#endif  // SERVEBENCH_SERVER_PROCESS_H_
