//! What the operating system says about this process (`/proc`, Linux).

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, over all of
/// its threads, ended ones included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis, `utime` and `stime` being fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (tick() + tick()) / USER_HZ
}

/// CPU seconds the calling thread has run so far, to the nanosecond
/// (`/proc/thread-self/schedstat`). For threads that live as long as the
/// work they are charged for; [`cpu_seconds`] also counts ended threads
/// but ticks in hundredths of a second.
pub fn thread_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let ns: f64 = stat
        .split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("run-time field");
    ns / 1e9
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
