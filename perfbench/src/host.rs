//! What a result was measured on, the process's peak memory, and the
//! digest that pins a run's simulated results.

use scaledeep_trace::json::{obj, Json};
use std::fmt;

/// The host a result was measured on. Results are comparable only when
/// every host field matches; the source revision is recorded too but may
/// differ, since comparing two revisions is the point of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub parallelism: usize,
    pub profile: String,
    pub rustc: String,
    pub cpu: String,
    pub git_rev: String,
}

impl Fingerprint {
    /// This process's host.
    pub fn detect() -> Self {
        Self {
            parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            cpu: cpu_model(),
            git_rev: env!("PERFBENCH_GIT_REV").to_string(),
        }
    }

    /// Whether results measured on `self` and `other` may be compared.
    pub fn same_host(&self, other: &Self) -> bool {
        self.parallelism == other.parallelism
            && self.profile == other.profile
            && self.rustc == other.rustc
            && self.cpu == other.cpu
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("parallelism", Json::Num(self.parallelism as f64)),
            ("profile", Json::Str(self.profile.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("cpu", Json::Str(self.cpu.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint has no `{key}`"))
        };
        let parallelism = v
            .get("parallelism")
            .and_then(Json::as_num)
            .ok_or("fingerprint has no `parallelism`")?;
        Ok(Self {
            parallelism: parallelism as usize,
            profile: text("profile")?,
            rustc: text("rustc")?,
            cpu: text("cpu")?,
            git_rev: text("git_rev")?,
        })
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parallelism={} profile={} rustc=\"{}\" cpu=\"{}\" git={}",
            self.parallelism, self.profile, self.rustc, self.cpu, self.git_rev
        )
    }
}

/// The value of the first `key: value` line of `text` whose key is `key`.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim())
    })
}

/// The processor's model name, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| field(&text, "model name").map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB; NaN
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let kib = field(&text, "VmHWM")?.strip_suffix("kB")?.trim();
            kib.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Moves the calling thread onto the `sample`-th CPU in turn, or back onto
/// every CPU for `None`. Single-threaded timed loops rotate CPUs sample by
/// sample so every run sees each CPU equally: on a shared host one CPU can
/// run up to 2x slower than another for seconds at a time, and a thread
/// left alone stays on whichever it started on. Best effort: where the
/// call fails the thread stays where it was.
#[cfg(target_os = "linux")]
pub fn rotate_cpu(sample: Option<usize>) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut mask = [0u64; 16];
    match sample {
        Some(i) => {
            let cpu = i % cpus.min(mask.len() * 64);
            mask[cpu / 64] = 1 << (cpu % 64);
        }
        None => mask = [u64::MAX; 16],
    }
    // SAFETY: `mask` is a live array of exactly the size passed, and the
    // call only reads it; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
pub fn rotate_cpu(_sample: Option<usize>) {}

/// FNV-1a over a run's simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
