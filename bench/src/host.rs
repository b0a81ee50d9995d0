//! What the benchmark reads from the host: the fingerprint printed beside every
//! result, the process's CPU time and its peak resident set.

use std::process::Command;

/// The host a result was taken on.  Results from different fingerprints are not
/// comparable; `compare` warns when they differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub kernel: String,
}

impl Fingerprint {
    pub fn read() -> Self {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Self {
            nproc: nproc(),
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            kernel,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"kernel\": \"{}\"}}",
            self.nproc,
            crate::json::escape(&self.rustc),
            self.profile,
            crate::json::escape(&self.kernel)
        )
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} rustc=\"{}\" profile={} kernel={}",
            self.nproc, self.rustc, self.profile, self.kernel
        )
    }
}

/// Cores available to this process — also the benchmark's budget of generator
/// threads and connections.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU time of this process (all threads), in milliseconds, from
/// `/proc/self/stat` fields 14 and 15.  `USER_HZ` is 100 on every Linux ABI, so one
/// clock tick is 10 ms; a measured phase lasts seconds, so the granularity is a few
/// parts per thousand.  `0.0` where `/proc` is absent.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted after its
    // closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes), or `0.0` where
/// `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
