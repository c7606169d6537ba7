//! Host counters of this process, read from `/proc/self`.

use std::fs;
use std::sync::OnceLock;

/// CPU time and page-fault counters of the whole process (every thread,
/// live or exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU time, seconds.
    pub user_s: f64,
    /// System CPU time, seconds.
    pub sys_s: f64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`; zeros where it is unavailable.
    pub fn now() -> Self {
        let Ok(text) = fs::read_to_string("/proc/self/stat") else {
            return Self::default();
        };
        // Fields after the parenthesised command name, which may hold
        // spaces: state is field 3, minflt 10, utime 14, stime 15.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| {
            fields
                .get(n - 3)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let tick = clock_ticks_per_sec();
        Self {
            minflt: field(10),
            user_s: field(14) as f64 / tick,
            sys_s: field(15) as f64 / tick,
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            minflt: self.minflt - earlier.minflt,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// Accumulates `other`.
    pub fn add(&mut self, other: Self) {
        self.minflt += other.minflt;
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }
}

/// `AT_CLKTCK` from the auxiliary vector: the unit of `/proc` CPU times
/// (100 on every common Linux configuration, the fallback).
fn clock_ticks_per_sec() -> f64 {
    const AT_CLKTCK: u64 = 17;
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        let Ok(bytes) = fs::read("/proc/self/auxv") else {
            return 100.0;
        };
        bytes
            .chunks_exact(16)
            .map(|pair| {
                let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
                (word(&pair[..8]), word(&pair[8..]))
            })
            .find(|&(key, _)| key == AT_CLKTCK)
            .map_or(100.0, |(_, ticks)| ticks as f64)
    })
}

/// Peak resident set size (`VmHWM`), MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
