#include "servebench/server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "servebench/stats.h"

namespace servebench {

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  out->clear();
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, n);
  }
  std::fclose(file);
  return true;
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Spawn(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "cannot fork for " + binary;
    return false;
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec. The server
    // must not outlive this process.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0 || ::dup2(fd, STDERR_FILENO) < 0) {
      ::_exit(126);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  return true;
}

bool ServerProcess::TryReap() {
  if (pid_ < 0) return true;
  int status = 0;
  const pid_t done = ::waitpid(pid_, &status, WNOHANG);
  if (done == 0) return false;
  exit_status_ = done == pid_ && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pid_ = -1;
  return true;
}

bool ServerProcess::WaitForPortFile(const std::string& path, int timeout_ms,
                                    int* port, std::string* error) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string text;
  while (std::chrono::steady_clock::now() < deadline) {
    // firehose_serve writes "<port>\n" after a successful bind.
    if (ReadFileToString(path, &text) && !text.empty() && text.back() == '\n') {
      *port = std::atoi(text.c_str());
      if (*port > 0) return true;
    }
    if (TryReap()) {
      *error = "firehose_serve exited before binding (status " +
               std::to_string(exit_status_) + ")";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  *error = "firehose_serve did not write its port file in time";
  return false;
}

bool ServerProcess::ReadUsage(double* cpu_ms, double* peak_rss_mb) const {
  if (pid_ < 0) return false;
  const std::string proc = "/proc/" + std::to_string(pid_);
  std::string stat;
  std::string status;
  if (!ReadFileToString(proc + "/stat", &stat) ||
      !ReadFileToString(proc + "/status", &status)) {
    return false;
  }
  const auto ticks = ParseProcStatCpuTicks(stat);
  const auto hwm_kb = ParseVmHwmKb(status);
  if (!ticks || !hwm_kb) return false;
  *cpu_ms = static_cast<double>(*ticks) * 1000.0 /
            static_cast<double>(::sysconf(_SC_CLK_TCK));
  *peak_rss_mb = static_cast<double>(*hwm_kb) / 1024.0;
  return true;
}

bool ServerProcess::WaitExit(int timeout_ms, std::string* error) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!TryReap()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      Kill();
      *error = "firehose_serve did not exit after Shutdown";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (exit_status_ != 0) {
    *error = "firehose_serve exited with status " + std::to_string(exit_status_);
    return false;
  }
  return true;
}

void ServerProcess::Kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  exit_status_ = -1;
}

}  // namespace servebench
