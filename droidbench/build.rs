//! Records the compiler version and, when the sources sit in a git
//! checkout, the commit they were built from. Both are read without
//! leaving the repository: the commit comes from the `.git` directory next
//! to this package, and is `unknown` in an exported source tree.

use std::fs;
use std::path::Path;
use std::process::Command;

fn git_commit(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(commit) = fs::read_to_string(git.join(reference)) {
        println!("cargo:rerun-if-changed={}", git.join(reference).display());
        return Some(commit.trim().to_owned());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_owned()))
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=DROIDBENCH_RUSTC={version}");
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    if git.join("HEAD").is_file() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    }
    let commit = git_commit(&git).unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=DROIDBENCH_COMMIT={commit}");
}
