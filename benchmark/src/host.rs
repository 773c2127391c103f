//! What every result records about the machine and build it came from.

use hintm::Json;
use std::path::Path;
use std::process::Command;

/// The host and build a run measured.
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Short commit of the checkout, `unknown` outside a git checkout.
    pub git_rev: String,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    /// Probes the current host. `repo` is the repository root; git is
    /// pointed at its `.git` only, so a checkout without one reads as
    /// `unknown` instead of picking up an enclosing repository.
    pub fn probe(repo: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".into()),
            git_rev: command_line(Command::new("git").env("GIT_DIR", repo.join(".git")).args([
                "rev-parse",
                "--short",
                "HEAD",
            ]))
            .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The record as JSON fields, for output lines and trace files.
    pub fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("nproc".into(), Json::u64(self.nproc as u64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
        ]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
