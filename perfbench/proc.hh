/**
 * @file
 * Child processes the benchmark starts: pfitsd and pfits_report.
 * Every child is waited for, so its peak RSS comes back through
 * wait4() and no process outlives the benchmark.
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench
{

/** A started child; stop() (or the destructor) ends and reaps it. */
class Child
{
  public:
    Child() = default;
    ~Child();
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /**
     * fork/exec @p argv with stdout and stderr redirected to
     * @p log_path ("" keeps them). @return false with @p err set.
     */
    bool start(const std::vector<std::string> &argv,
               const std::string &log_path, std::string *err);

    bool running() const { return pid_ > 0; }

    /** Reap the child if it has exited. @return true while it runs. */
    bool alive();

    /**
     * Send @p sig (SIGTERM by default), wait up to @p timeout_ms for
     * the child to exit, then SIGKILL it. @return the exit status as
     * from waitpid, or -1 if it had to be killed.
     */
    int stop(int sig, int timeout_ms);

    /** Wait up to @p timeout_ms for a normal exit (SIGKILL after). */
    int wait(int timeout_ms);

    /** Peak RSS of the reaped child in MiB (0 before it was reaped). */
    double peakRssMb() const { return peakRssMb_; }

  private:
    int reap(int timeout_ms);

    pid_t pid_ = -1;
    double peakRssMb_ = 0;
};

/**
 * Run @p argv to completion (bounded by @p timeout_ms), capturing its
 * combined output into @p output. @return the exit code, or -1 when
 * it could not be started, was killed, or timed out.
 */
int runChild(const std::vector<std::string> &argv, int timeout_ms,
             std::string *output);

/** Peak RSS of this process in MiB. */
double selfPeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
