//! Operating-system probes read from outside the program: `/proc`
//! accounting of a process, and a precise wait for the open-loop pacer.

use std::os::fd::AsRawFd;
use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux ABI this benchmark runs on).
const TICKS_PER_SEC: u64 = 100;

/// One reading of a process's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User plus system CPU time of all threads.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches, summed over threads.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`) in KiB.
    pub hwm_kib: u64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Reads `/proc/<pid>` (`"self"` for this process).
pub fn sample(pid: &str) -> ProcSample {
    let root = format!("/proc/{pid}");
    let stat = std::fs::read_to_string(format!("{root}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    let mut ctx_switches = 0;
    if let Ok(tasks) = std::fs::read_dir(format!("{root}/task")) {
        for task in tasks.flatten() {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    let status = std::fs::read_to_string(format!("{root}/status")).unwrap_or_default();
    ProcSample {
        cpu_ns: ticks * (1_000_000_000 / TICKS_PER_SEC),
        ctx_switches,
        hwm_kib: status_field(&status, "VmHWM:"),
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Blocks until `socket` is readable or `timeout` passes. `ppoll` takes
/// a nanosecond timeout, unlike socket timeouts and `epoll_wait`, whose
/// millisecond or jiffy granularity would make a 1 ms pacer late.
pub fn wait_readable(socket: &impl AsRawFd, timeout: Duration) {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is
    // 1, matching the single pollfd; a null sigmask leaves the signal
    // mask unchanged. An error or EINTR only shortens the wait, which
    // the caller's loop tolerates.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Shrinks this thread's timer slack to 1 µs, so timed waits wake on
/// time instead of up to the default 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}
