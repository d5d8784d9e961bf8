// bench_spawn — run one command, report its wall time and peak RSS.
//
// A child's ru_maxrss on Linux includes the high-water mark of the address
// space it had before exec, which for a child forked from the Python
// harness is a copy of the harness. This helper is small, so the commands
// it forks start near zero and the RSS reported is the command's own.
//
// The command runs in its own process group with stdout and stderr
// written to LOG; after TIMEOUT seconds the whole group is killed. On
// exit the helper kills anything left in the group (a killed --launch
// parent's rank processes), then prints one line:
//   <exit code> <wall seconds> <max RSS KiB>
// The exit code is 128+N for a command killed by signal N. The RSS is the
// largest of the command and every descendant it waited for.
//
//   bench_spawn TIMEOUT_SECONDS LOG COMMAND [ARGS...]
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t g_child = 0;

void kill_group(int) {
  if (g_child > 0) kill(-g_child, SIGKILL);
}

double now_seconds() {
  timespec t{};
  clock_gettime(CLOCK_MONOTONIC, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: bench_spawn TIMEOUT_SECONDS LOG COMMAND [ARGS...]\n");
    return 2;
  }
  const int timeout = std::atoi(argv[1]);
  const int log = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (timeout <= 0 || log < 0) {
    std::perror("bench_spawn");
    return 2;
  }
  const double start = now_seconds();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    setpgid(0, 0);
    dup2(log, STDOUT_FILENO);
    dup2(log, STDERR_FILENO);
    close(log);
    execvp(argv[3], argv + 3);
    std::perror("bench_spawn: exec");
    _exit(127);
  }
  close(log);
  setpgid(pid, pid);  // also done by the child; whichever runs first wins
  g_child = pid;
  signal(SIGALRM, kill_group);
  alarm(static_cast<unsigned>(timeout));

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("bench_spawn: wait4");
      return 2;
    }
  }
  const double seconds = now_seconds() - start;
  alarm(0);
  // Leftovers are only possible when the command died abnormally; give
  // them a bounded time to disappear.
  kill(-pid, SIGKILL);
  for (int i = 0; i < 500 && kill(-pid, 0) == 0; ++i) usleep(10000);

  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf("%d %.9f %ld\n", code, seconds, usage.ru_maxrss);
  return 0;
}
