//! Stamps the build-time fields of the host fingerprint into the binary:
//! the compiler version, the build profile and the source revision.

use std::path::PathBuf;
use std::process::Command;

/// The trimmed standard output of a successful `program args`.
fn output(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // The repository root is the package's parent; a source tree that is not
    // a git checkout reports `none`.
    let manifest_dir =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let root = manifest_dir.join("..");
    let root = root.to_string_lossy();
    let git = |args: &[&str]| output("git", &[&["-C", &root], args].concat());
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string());
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    // A commit or checkout moves HEAD's reflog, which re-stamps the binary.
    if let Some(log) = git(&["rev-parse", "--git-path", "logs/HEAD"]) {
        let log = PathBuf::from(log);
        let log = if log.is_absolute() {
            log
        } else {
            manifest_dir.join("..").join(log)
        };
        if log.exists() {
            println!("cargo:rerun-if-changed={}", log.display());
        }
    }
}
