//! `/proc` samplers: process and per-thread CPU time, peak resident memory
//! and the live thread count. Everything is read from outside the program
//! under test — no hooks in the replica code.

use std::collections::HashMap;
use std::fs;

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on every
/// mainstream kernel configuration (and cannot be queried without libc).
const TICK_US: u64 = 10_000;

/// User and system CPU time, microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTime {
    pub user_us: u64,
    pub sys_us: u64,
}

impl CpuTime {
    pub fn total_us(self) -> u64 {
        self.user_us + self.sys_us
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
        }
    }
}

/// Parses one `stat` line: the command name (which may itself contain
/// spaces and parentheses, hence the split at the *last* `)`) and the
/// `utime`/`stime` fields.
fn parse_stat(line: &str) -> Option<(String, CpuTime)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((
        comm,
        CpuTime {
            user_us: utime * TICK_US,
            sys_us: stime * TICK_US,
        },
    ))
}

/// CPU time of the whole process so far, including threads that have
/// already exited.
pub fn process_cpu() -> CpuTime {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map(|(_, cpu)| cpu)
        .unwrap_or_default()
}

/// Which role a thread plays, decided by its name: `TcpRuntime` names its
/// protocol threads `proto-<Addr>`; readers, writers, acceptors and the
/// crypto verify pool are unnamed and inherit the process name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThreadRole {
    /// A replica's protocol thread.
    NodeProto,
    /// A load generator's protocol thread.
    ClientProto,
    /// The benchmark's own main thread.
    Main,
    /// Everything else: socket readers and writers, acceptors, verify pool.
    Io,
}

/// Per-thread CPU snapshot keyed by thread id.
#[derive(Clone, Debug, Default)]
pub struct ThreadCpu {
    threads: HashMap<u32, (ThreadRole, CpuTime)>,
}

impl ThreadCpu {
    /// Samples every live thread of this process.
    pub fn sample() -> ThreadCpu {
        let pid = std::process::id();
        let mut threads = HashMap::new();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return ThreadCpu { threads };
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            // A thread may exit between readdir and read: skip it.
            let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else {
                continue;
            };
            let Some((comm, cpu)) = parse_stat(&stat) else {
                continue;
            };
            let role = if comm.starts_with("proto-Node") {
                ThreadRole::NodeProto
            } else if comm.starts_with("proto-Client") {
                ThreadRole::ClientProto
            } else if tid == pid {
                ThreadRole::Main
            } else {
                ThreadRole::Io
            };
            threads.insert(tid, (role, cpu));
        }
        ThreadCpu { threads }
    }

    /// CPU consumed per role between `earlier` and `self`. A thread born in
    /// between counts from zero; one that died in between is lost here (its
    /// time still shows in [`process_cpu`], so it surfaces as unattributed).
    pub fn since(&self, earlier: &ThreadCpu) -> HashMap<ThreadRole, CpuTime> {
        let mut by_role: HashMap<ThreadRole, CpuTime> = HashMap::new();
        for (tid, (role, cpu)) in &self.threads {
            let before = earlier
                .threads
                .get(tid)
                .map(|(_, c)| *c)
                .unwrap_or_default();
            let delta = cpu.since(before);
            let slot = by_role.entry(*role).or_default();
            slot.user_us += delta.user_us;
            slot.sys_us += delta.sys_us;
        }
        by_role
    }
}

/// Peak resident set size (`VmHWM`) in mebibytes.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Live threads of this process.
pub fn thread_count() -> u64 {
    status_field("Threads:")
}

/// The number after `key` in `/proc/self/status` (sizes are in kB); 0 if the
/// file or the key is missing.
fn status_field(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
