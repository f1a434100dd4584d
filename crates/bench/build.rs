//! Stamp the git revision into the build so `uvm_build_info{git=...}`
//! and the perf report's `build` field identify what produced an
//! artefact. Falls back to "unknown" outside a git checkout (vendored
//! tarballs, cargo publish).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Trimmed stdout of `git <args>`, if git ran and succeeded.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The files whose change moves HEAD's commit: `HEAD` itself (checkout,
/// detached commits), the branch ref it names (a commit on the branch),
/// and `packed-refs` (where `git gc` moves that ref).
fn head_files(git_dir: &Path) -> Vec<PathBuf> {
    let head = git_dir.join("HEAD");
    let mut files = vec![git_dir.join("packed-refs")];
    if let Ok(text) = std::fs::read_to_string(&head) {
        if let Some(branch) = text.trim().strip_prefix("ref: ") {
            files.push(git_dir.join(branch));
        }
    }
    files.push(head);
    files
}

fn main() {
    let sha = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=REPRO_GIT_SHA={sha}");
    println!("cargo:rerun-if-changed=build.rs");
    // Cargo treats a watched path that does not exist as changed, which
    // would rebuild on every call: watch only the files that are there.
    if let Some(git_dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        for file in head_files(Path::new(&git_dir)) {
            if file.exists() {
                println!("cargo:rerun-if-changed={}", file.display());
            }
        }
    }
}
