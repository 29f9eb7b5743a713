//! What the kernel knows about this process and this host: `/proc`
//! for everything but the CPU clock (std-only, so no `getrusage`; the
//! one foreign call is `clock_gettime`, which `/proc` has no
//! fine-grained equivalent of).

use crate::json::Json;

/// Kernel clock ticks per second for `/proc/self/stat` times. 100 on
/// every Linux this runs on; `run.sh` passes `getconf CLK_TCK` through
/// the environment so a host that differs is still measured correctly.
fn clk_tck() -> f64 {
    std::env::var("RBCAST_BENCH_CLK_TCK")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(100.0)
}

/// CPU seconds (user + system) this process has consumed, all threads,
/// exited ones included. `/proc/self/stat` counts in 10 ms ticks — a
/// third of a percent of a 0.3 s repetition, and coarse enough that two
/// runs can read exactly alike — so on 64-bit Linux this asks the
/// process CPU-time clock, which counts nanoseconds.
pub fn process_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` (libc, which std already links) writes
        // one `struct timespec` through `tp`; `ts` is a live, exclusive
        // `Timespec`, and on 64-bit Linux `struct timespec` is exactly
        // two 64-bit signed fields, as declared above.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    Usage::now().cpu_s()
}

/// A reading of the process-wide accounting counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds, all threads (10 ms granularity).
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Minor page faults, all threads.
    pub minor_faults: u64,
    /// Involuntary context switches of the *main* thread only: worker
    /// threads the sweep supervisor spawns have exited by the time this
    /// is read, and `/proc` keeps no total for them.
    pub invol_ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name (which may itself
        // contain spaces): state is field 3, so minflt (10), utime (14)
        // and stime (15) sit at offsets 7, 11 and 12 after the ')'.
        let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
        let field = |i: usize| -> f64 {
            tail.split_whitespace()
                .nth(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let tck = clk_tck();
        Usage {
            user_s: field(11) / tck,
            sys_s: field(12) / tck,
            minor_faults: field(7) as u64,
            invol_ctx_switches: status_kb_or_count("nonvoluntary_ctxt_switches"),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            invol_ctx_switches: self
                .invol_ctx_switches
                .saturating_sub(earlier.invol_ctx_switches),
        }
    }
}

/// The leading integer of a `/proc/self/status` line (`VmHWM:  1308 kB`
/// → 1308).
fn status_kb_or_count(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident memory of this process's own data so far, in MB:
/// `VmHWM` less the file-backed pages resident now (`RssFile`, i.e. the
/// executable and libc). How much of the executable the kernel keeps
/// mapped swings by ±0.2 MB from one run to the next with the page
/// cache's fault-around — 5 % of a 4 MB process — while the anonymous
/// part (heap, stacks) repeats to within a page or two.
pub fn peak_rss_mb() -> f64 {
    status_kb_or_count("VmHWM").saturating_sub(status_kb_or_count("RssFile")) as f64 / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host stamp every results file carries.
pub fn host_stamp() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("kernel", Json::Str(kernel)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            Json::Str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
    ])
}
