"""Running program processes: every one under a timeout, in its own
process group, stopped and reaped before the caller moves on."""
import json
import os
import resource
import signal
import subprocess
import time


def describe(rc):
    if rc is None:
        return "hang (timeout)"
    if rc < 0:
        return "signal %d (%s)" % (-rc, signal.Signals(-rc).name)
    return "exit %d" % rc


def stop_group(pgid, grace_s=2.0):
    """SIGKILL what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)


def run(cmd, timeout, out_path):
    """Run `cmd` to completion; stdout goes to `out_path`, stderr to
    `out_path + '.err'`.

    The process is started from a forked helper, so the helper's
    RUSAGE_CHILDREN peak covers exactly this process and the processes
    it reaps itself (cluster sites). Returns a dict: rc (None on
    timeout), wall_s (process start to exit), cpu_s (user + system CPU
    time of the same processes), maxrss_kb."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # helper
        result = {"rc": None, "wall_s": 0.0, "cpu_s": 0.0, "maxrss_kb": 0}
        try:
            os.close(rfd)
            with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
                timed_out = []

                def on_alarm(signum, frame):
                    timed_out.append(signum)
                    try:
                        os.killpg(p.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

                # A blocking waitpid, not Popen.wait(timeout): the latter
                # polls with sleeps of up to 50 ms, which would round every
                # measured wall time up to its next poll.
                signal.signal(signal.SIGALRM, on_alarm)
                t0 = time.perf_counter()
                p = subprocess.Popen(cmd, stdout=out, stderr=err,
                                     start_new_session=True)
                signal.setitimer(signal.ITIMER_REAL, timeout)
                _, status = os.waitpid(p.pid, 0)
                result["wall_s"] = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
                if not timed_out:
                    result["rc"] = p.returncode
                stop_group(p.pid)
            ru = resource.getrusage(resource.RUSAGE_CHILDREN)
            result["cpu_s"] = ru.ru_utime + ru.ru_stime
            result["maxrss_kb"] = ru.ru_maxrss
        finally:
            os.write(wfd, json.dumps(result).encode())
            os._exit(0)
    os.close(wfd)
    chunks = []
    while True:
        chunk = os.read(rfd, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(rfd)
    os.waitpid(pid, 0)
    return json.loads(b"".join(chunks) or
                      b'{"rc": null, "wall_s": 0, "cpu_s": 0, "maxrss_kb": 0}')


class Server:
    """A long-lived program process (parulel_cli --listen)."""

    def __init__(self, cmd, out_path):
        self._out = open(out_path, "wb")
        self.t0_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(cmd, stdout=self._out,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.rc = None
        self.maxrss_kb = 0
        self.cpu_s = 0.0

    def stop(self, timeout=10.0):
        """SIGTERM (graceful drain), then SIGKILL; reap, keeping the peak
        RSS and CPU time. Returns the exit code, or None when it had to be
        killed."""
        if self.proc is None:
            return self.rc
        pid = self.proc.pid
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + timeout
        status = None
        while time.monotonic() < deadline:
            wpid, status, ru = os.wait4(pid, os.WNOHANG)
            if wpid == pid:
                break
            time.sleep(0.005)
        else:
            stop_group(pid)
            _, status, ru = os.wait4(pid, 0)
            status = None
        self.maxrss_kb = ru.ru_maxrss
        self.cpu_s = ru.ru_utime + ru.ru_stime
        stop_group(pid)
        self.proc.returncode = 0  # reaped above; keep Popen from waiting
        self.proc = None
        self._out.close()
        if status is None:
            self.rc = None
        elif os.WIFSIGNALED(status):
            self.rc = -os.WTERMSIG(status)
        else:
            self.rc = os.WEXITSTATUS(status)
        return self.rc
