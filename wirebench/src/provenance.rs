//! Where and on what a result was measured. Every result file carries
//! this record; `README.md` explains why two results from differing
//! hosts are flagged rather than compared.

use std::process::Command;

use crate::workloads::{Workload, HELD_OUT_SEED};

/// The host, toolchain, program version and run parameters of a result.
pub struct Provenance {
    nproc: usize,
    cpu_model: String,
    rustc: String,
    commit: String,
    source_digest: String,
    seed: u64,
    workload: &'static str,
    rate: u32,
}

impl Provenance {
    /// Collects the record for a run of `workload` with `seed`.
    #[must_use]
    pub fn collect(seed: u64, workload: &Workload) -> Self {
        let (nproc, cpu_model) = crate::procfs::cpuinfo();
        Self {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // A checkout without git metadata (an exported tree) has no
            // commit; the source digest still identifies the program.
            commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unavailable".into()),
            source_digest: source_digest(),
            seed,
            workload: workload.name,
            rate: workload.rate,
        }
    }

    /// One line for stderr.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} seed {} (held-out seed {HELD_OUT_SEED}) at {} lines/s; {} x {}; {}; commit {}; source {}",
            self.workload,
            self.seed,
            self.rate,
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.commit,
            self.source_digest
        )
    }

    /// The record as a JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"commit\": {:?}, \
             \"source_digest\": {:?}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
             \"workload\": {:?}, \"rate_lines_per_s\": {}}}",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.commit,
            self.source_digest,
            self.seed,
            self.workload,
            self.rate
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the path and bytes of every file under `crates/` plus the
/// workspace manifest and lock file, in path order: identifies the
/// program under test even where there is no commit to name.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
