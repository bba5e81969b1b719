//! Self-application of the source lint: the real workspace must be clean,
//! and a seeded violation must be caught (so `make check` fails on one).

use mcr_lint::srclint::{lint_file, lint_workspace};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

#[test]
fn real_workspace_is_lint_clean() {
    let diags = lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violation_fails_the_walk() {
    // Fabricate a one-crate workspace with a narrowing cast in library
    // timing code and check the walk (the same entry point `make check`
    // uses) flags it.
    let root = std::env::temp_dir().join(format!("mcr-lint-seed-{}", std::process::id()));
    let src = root.join("crates").join("seeded").join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(t_rcd: u64) -> u16 {\n    t_rcd as u16\n}\n",
    )
    .expect("write seed");
    let diags = lint_workspace(&root).expect("walk");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "src/truncating-cast");
    assert!(
        diags[0].location.ends_with("lib.rs:2"),
        "{}",
        diags[0].location
    );
}

#[test]
fn service_crates_are_inside_the_lint_walk() {
    // The service-era crates must not slip out of `make lint` coverage:
    // their library sources exist where the walker looks, and a violation
    // seeded under either crate name is caught by the workspace walk.
    let root = workspace_root();
    for krate in ["mcr-serve", "mcr-store", "sim-json"] {
        let lib = root.join("crates").join(krate).join("src").join("lib.rs");
        assert!(lib.is_file(), "{} must have library sources", krate);
        let text = std::fs::read_to_string(&lib).expect("readable lib.rs");
        assert!(
            lint_file(&format!("crates/{krate}/src/lib.rs"), &text).is_empty(),
            "{krate} library code must be srclint-clean"
        );
    }

    // A fabricated workspace mirroring the new crate layout: the walk
    // must descend into both crates (and still skip their `src/bin/`).
    let fake = std::env::temp_dir().join(format!("mcr-lint-serve-{}", std::process::id()));
    for krate in ["mcr-serve", "mcr-store", "sim-json"] {
        let src = fake.join("crates").join(krate).join("src");
        std::fs::create_dir_all(src.join("bin")).expect("mkdir");
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(t_rcd: u64) -> u16 {\n    t_rcd as u16\n}\n",
        )
        .expect("write seed");
        // Binary entry points stay exempt even in the new crates.
        std::fs::write(
            src.join("bin").join("mcr_sim.rs"),
            "fn main() {\n    let _ = t_rcd as u16;\n}\n",
        )
        .expect("write bin seed");
    }
    let diags = lint_workspace(&fake).expect("walk");
    std::fs::remove_dir_all(&fake).ok();
    assert_eq!(diags.len(), 3, "{diags:?}");
    for krate in ["mcr-serve", "mcr-store", "sim-json"] {
        assert!(
            diags
                .iter()
                .any(|d| d.code == "src/truncating-cast" && d.location.contains(krate)),
            "walk must reach {krate}: {diags:?}"
        );
    }
}
