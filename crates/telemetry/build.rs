//! Stamps the git revision, and whether the tree differed from it, into the
//! build so [`RunManifest`]s can record which tree produced an artifact.
//! Falls back to "unknown" outside a git checkout (e.g. a source tarball) —
//! the build must never fail on this.

use std::path::Path;
use std::process::Command;

/// Trimmed stdout of `git <args>`, `None` when git is missing or fails.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8(out.stdout).ok()?.trim().to_string())
}

fn main() {
    let rev = git(&["rev-parse", "--short=12", "HEAD"])
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    // `--no-optional-locks`: a status that refreshes `.git/index` on disk
    // would race whatever else is using the checkout.
    let dirty = match git(&["--no-optional-locks", "status", "--porcelain"]) {
        Some(changes) if changes.is_empty() => "false",
        Some(_) => "true",
        None => "unknown",
    };
    println!("cargo:rustc-env=HETGMP_GIT_REV={rev}");
    println!("cargo:rustc-env=HETGMP_GIT_DIRTY={dirty}");

    // `HEAD` is the symbolic ref (`ref: refs/heads/main`) and does not change
    // on commit; the ref it names does — as a loose file, or inside
    // `packed-refs` after a `git gc`. Watch all three. Only paths that exist:
    // cargo treats a missing one as always changed.
    let git_dir = Path::new("../../.git");
    let head = git_dir.join("HEAD");
    let mut watch = vec![head.clone(), git_dir.join("packed-refs")];
    if let Ok(text) = std::fs::read_to_string(&head) {
        if let Some(name) = text.trim().strip_prefix("ref: ") {
            // A packed ref has no loose file until the next commit creates
            // it: watch the directory it will appear in.
            let mut loose = git_dir.join(name);
            while !loose.exists() && loose.pop() {}
            watch.push(loose);
        }
    }
    // While the tree is clean, the first source edit flips `dirty` and must
    // retake the stamp; once dirty, further edits change nothing the stamp
    // records until the ref moves — so a dirty tree pays no rebuilds for it.
    if dirty == "false" {
        let sources = [
            "Cargo.toml",
            "Cargo.lock",
            "src",
            "crates",
            "tests",
            "examples",
            "third_party",
        ];
        watch.extend(sources.iter().map(|p| Path::new("../..").join(p)));
    }
    for path in watch.iter().filter(|p| p.exists()) {
        println!("cargo:rerun-if-changed={}", path.display());
    }
    println!("cargo:rerun-if-changed=build.rs");
}
