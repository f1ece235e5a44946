#include "proc.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench
{

namespace
{

std::vector<char *>
cArgv(const std::vector<std::string> &argv)
{
    std::vector<char *> out;
    for (const std::string &a : argv)
        out.push_back(const_cast<char *>(a.c_str()));
    out.push_back(nullptr);
    return out;
}

} // namespace

Child::~Child()
{
    if (running())
        stop(SIGTERM, 5'000);
}

bool
Child::start(const std::vector<std::string> &argv,
             const std::string &log_path, std::string *err)
{
    if (argv.empty()) {
        *err = "empty argv";
        return false;
    }
    std::vector<char *> args = cArgv(argv);
    pid_t pid = ::fork();
    if (pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        if (!log_path.empty()) {
            int fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
                ::close(fd);
            }
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    pid_ = pid;
    peakRssMb_ = 0;
    return true;
}

int
Child::reap(int timeout_ms)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
        int status = 0;
        struct rusage ru{};
        pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
        if (r == pid_) {
            pid_ = -1;
            peakRssMb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
            return status;
        }
        if (r < 0 && errno != EINTR) {
            pid_ = -1;
            return -1;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return -2;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

bool
Child::alive()
{
    return running() && reap(0) == -2;
}

int
Child::wait(int timeout_ms)
{
    if (!running())
        return -1;
    int status = reap(timeout_ms);
    if (status == -2) {
        ::kill(pid_, SIGKILL);
        reap(5'000);
        return -1;
    }
    return status;
}

int
Child::stop(int sig, int timeout_ms)
{
    if (!running())
        return -1;
    ::kill(pid_, sig);
    return wait(timeout_ms);
}

int
runChild(const std::vector<std::string> &argv, int timeout_ms,
         std::string *output)
{
    char tmpl[] = "perfbench-child-XXXXXX";
    int fd = ::mkstemp(tmpl);
    if (fd < 0)
        return -1;
    ::close(fd);

    Child child;
    std::string err;
    if (!child.start(argv, tmpl, &err)) {
        ::unlink(tmpl);
        return -1;
    }
    int status = child.wait(timeout_ms);
    std::ifstream in(tmpl);
    std::ostringstream os;
    os << in.rdbuf();
    *output = os.str();
    ::unlink(tmpl);
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

double
selfPeakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
