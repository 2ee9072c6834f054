//===- Process.cpp - Run one child process and collect its rusage ---------===//

#include "Process.h"

#include <cerrno>
#include <chrono>
#include <cstdint>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace gatorbench {

namespace {

// The parent's ends of the two pipes to the launcher.
int RequestFd = -1;
int ReplyFd = -1;

bool writeAll(int Fd, const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    const ssize_t N = write(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readAll(int Fd, void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  while (Size) {
    const ssize_t N = read(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool writeString(int Fd, const std::string &S) {
  const uint64_t Len = S.size();
  return writeAll(Fd, &Len, sizeof(Len)) && writeAll(Fd, S.data(), S.size());
}

bool readString(int Fd, std::string &S) {
  uint64_t Len = 0;
  if (!readAll(Fd, &Len, sizeof(Len)) || Len > (uint64_t(1) << 32))
    return false;
  S.resize(Len);
  return readAll(Fd, S.data(), Len);
}

/// Spawns one child with stdout captured and waits for it.
ChildRun spawnAndWait(const std::vector<std::string> &Argv) {
  ChildRun R;
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0)
    return R;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);

  const auto Start = std::chrono::steady_clock::now();
  pid_t Pid = 0;
  const int Err =
      posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  if (Err != 0) {
    close(Pipe[0]);
    return R;
  }

  char Buf[65536];
  for (;;) {
    const ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0) {
      R.Out.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break;
  }
  close(Pipe[0]);

  int Status = 0;
  struct rusage Usage {};
  while (wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
                 .count();
  R.MaxRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  R.MinorFaults = Usage.ru_minflt;
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

/// The launcher's loop: one request (argc, then each argument) in, one
/// reply (exit code, wall ms, peak RSS, minor faults, output) out, until
/// the parent closes the request pipe.
[[noreturn]] void serve(int In, int Out) {
  for (;;) {
    uint64_t Argc = 0;
    if (!readAll(In, &Argc, sizeof(Argc)) || Argc == 0 || Argc > 64)
      _exit(0);
    std::vector<std::string> Argv(Argc);
    for (std::string &A : Argv)
      if (!readString(In, A))
        _exit(0);
    const ChildRun R = spawnAndWait(Argv);
    const int64_t Code = R.ExitCode;
    const int64_t Faults = R.MinorFaults;
    if (!writeAll(Out, &Code, sizeof(Code)) ||
        !writeAll(Out, &R.WallMs, sizeof(R.WallMs)) ||
        !writeAll(Out, &R.MaxRssMb, sizeof(R.MaxRssMb)) ||
        !writeAll(Out, &Faults, sizeof(Faults)) || !writeString(Out, R.Out))
      _exit(0);
  }
}

} // namespace

Launcher::Launcher() {
  int Req[2], Rep[2];
  if (pipe2(Req, O_CLOEXEC) != 0)
    return;
  if (pipe2(Rep, O_CLOEXEC) != 0) {
    close(Req[0]);
    close(Req[1]);
    return;
  }
  const pid_t P = fork();
  if (P == 0) {
    close(Req[1]);
    close(Rep[0]);
    serve(Req[0], Rep[1]);
  }
  close(Req[0]);
  close(Rep[1]);
  if (P < 0) {
    close(Req[1]);
    close(Rep[0]);
    return;
  }
  Pid = P;
  RequestFd = Req[1];
  ReplyFd = Rep[0];
}

Launcher::~Launcher() {
  if (Pid <= 0)
    return;
  close(RequestFd);
  close(ReplyFd);
  RequestFd = ReplyFd = -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
}

ChildRun runChild(const std::vector<std::string> &Argv) {
  ChildRun R;
  if (RequestFd < 0 || Argv.empty())
    return R;
  const uint64_t Argc = Argv.size();
  bool Ok = writeAll(RequestFd, &Argc, sizeof(Argc));
  for (const std::string &A : Argv)
    Ok = Ok && writeString(RequestFd, A);
  int64_t Code = -1, Faults = 0;
  Ok = Ok && readAll(ReplyFd, &Code, sizeof(Code)) &&
       readAll(ReplyFd, &R.WallMs, sizeof(R.WallMs)) &&
       readAll(ReplyFd, &R.MaxRssMb, sizeof(R.MaxRssMb)) &&
       readAll(ReplyFd, &Faults, sizeof(Faults)) && readString(ReplyFd, R.Out);
  if (!Ok)
    return ChildRun();
  R.ExitCode = static_cast<int>(Code);
  R.MinorFaults = static_cast<long>(Faults);
  return R;
}

} // namespace gatorbench
