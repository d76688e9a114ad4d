//! The machine and checkout fingerprint stamped on every record, so two
//! records from different machines or checkouts say why they differ.

use std::path::{Path, PathBuf};

/// The checkout the benchmark was built from (the parent of this
/// package's directory).
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn target_cpu(flags: &str) -> String {
    let mut words = flags.split_whitespace().peekable();
    while let Some(w) = words.next() {
        let value = if let Some(v) = w.strip_prefix("target-cpu=") {
            Some(v.to_owned())
        } else if let Some(v) = w.strip_prefix("-Ctarget-cpu=") {
            Some(v.to_owned())
        } else if w == "-C" {
            words
                .peek()
                .and_then(|next| next.strip_prefix("target-cpu="))
                .map(str::to_owned)
        } else {
            None
        };
        if let Some(v) = value {
            return v;
        }
    }
    "default".to_owned()
}

/// The commit checked out at `root`, or "none" outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(text: &str) -> u64 {
        let mut h = Self::default();
        h.write(text.as_bytes());
        h.0
    }
}

/// The fingerprint as `(key, value)` pairs, in a fixed order.
pub fn collect(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Vec<(&'static str, String)> {
    let root = checkout_root();
    let flags = env!("MIRABENCH_RUSTFLAGS");
    vec![
        ("cpu_model", cpu_model()),
        (
            "usable_cores",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        ("rustc", env!("MIRABENCH_RUSTC").to_owned()),
        ("target_cpu", target_cpu(flags)),
        ("git_rev", git_rev(&root)),
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("run_seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_is_read_from_any_flag_spelling() {
        assert_eq!(target_cpu("-C target-cpu=x86-64-v3"), "x86-64-v3");
        assert_eq!(target_cpu("-Ctarget-cpu=native -C opt-level=3"), "native");
        assert_eq!(target_cpu("-C opt-level=3"), "default");
        assert_eq!(target_cpu(""), "default");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
