//! Textual source lint over the workspace's library crates.
//!
//! Four rules, all error-level (library `unwrap`/`expect` calls are
//! clippy's `unwrap_used`/`expect_used`, warned in every crate root):
//!
//! * `src/truncating-cast` — no `as u8`/`u16`/`u32`/`i8`/`i16`/`i32`
//!   casts on lines doing timing arithmetic (lines naming a JEDEC timing
//!   field or cycle count). Cycle math is `u64` ([`dram_device::Cycle`]);
//!   a narrowing cast silently wraps after ~53 s of simulated DDR3-1600
//!   time. Use `u64::from`/`Cycle::from` (widening, infallible) instead.
//! * `src/panicking-sweep-worker` — no panicking macros, asserts or
//!   unwraps inside the sweep engine's worker closure: a panic in a
//!   scoped worker thread poisons the whole sweep instead of failing the
//!   one point, so workers must route failures through `Result` slots.
//! * `src/edge-overshoot-guard` — no `u64::MAX`/`Cycle::MAX` sentinel
//!   defaults (`.unwrap_or(u64::MAX)`, `.map_or(Cycle::MAX, ...)`) on
//!   lines computing event-wheel edges (`next_event`, `next_due`,
//!   `wake`, a core's `retire_at`). An absent edge collapsed to `MAX`
//!   becomes indistinguishable from a real edge, and any offset added to
//!   the sentinel wraps — both produce wake edges that overshoot the
//!   first observable state change (DESIGN.md §5i). Keep edges as
//!   `Option<Cycle>` and combine them with explicit `min` folds.
//! * `src/unbounded-net-read` — no buffered read-until-delimiter calls
//!   (`.read_line(`, `.read_to_string(`, `.read_until(`) in a file that
//!   touches `TcpStream` without ever arming `set_read_timeout` or
//!   `set_nonblocking`. An unbounded read on a socket blocks the thread
//!   for as long as the peer cares to stall it — a slow or malicious
//!   client pins a server thread (or an OOM via an endless line)
//!   forever. Bound every socket read with a deadline and a length
//!   guard (DESIGN.md §5g).
//!
//! Escape hatch: a `// lint: allow(<rule>)` comment on the offending line
//! or the line directly above suppresses that rule there. Test modules
//! (`#[cfg(test)]`) and binary targets (`src/bin/`) are exempt from all
//! rules. Comments, strings and char literals are scrubbed before
//! matching, so doc examples and message texts never trip the rules.

use crate::Diagnostic;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule id: no truncating casts in timing arithmetic.
pub const RULE_TRUNCATING_CAST: &str = "src/truncating-cast";
/// Rule id: no panicking paths in sweep worker closures.
pub const RULE_PANICKING_WORKER: &str = "src/panicking-sweep-worker";
/// Rule id: no `MAX`-sentinel defaults on event-wheel edge math.
pub const RULE_EDGE_OVERSHOOT: &str = "src/edge-overshoot-guard";
/// Rule id: no unbounded blocking reads in socket-handling files.
pub const RULE_UNBOUNDED_NET_READ: &str = "src/unbounded-net-read";

/// Identifiers that mark a line as timing arithmetic for
/// [`RULE_TRUNCATING_CAST`] (matched case-insensitively).
const TIMING_KEYWORDS: [&str; 14] = [
    "t_rcd", "t_ras", "t_rp", "t_rfc", "t_refi", "t_faw", "t_rrd", "t_ccd", "t_wtr", "t_rtp",
    "t_wr", "t_ck", "cycle", "latency",
];

/// Narrowing integer targets (anything narrower than the 64-bit cycle
/// domain).
const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifiers that mark a line as event-wheel edge computation for
/// [`RULE_EDGE_OVERSHOOT`] (matched case-insensitively).
const EDGE_KEYWORDS: [&str; 7] = [
    "next_event",
    "next_ready",
    "next_due",
    "next_rearm",
    "edge",
    "wake",
    "retire_at",
];

/// Sentinel-default patterns that collapse an absent `Option<Cycle>`
/// edge into an arithmetic-hostile `MAX` value.
const SENTINEL_DEFAULTS: [&str; 4] = [
    ".unwrap_or(u64::MAX)",
    ".unwrap_or(Cycle::MAX)",
    ".map_or(u64::MAX",
    ".map_or(Cycle::MAX",
];

/// Read calls that block until the peer supplies a delimiter (or EOF) —
/// unbounded on a socket unless the stream carries a read deadline.
const NET_READ_CALLS: [&str; 3] = [".read_line(", ".read_to_string(", ".read_until("];

/// Tokens forbidden inside a sweep worker closure.
const WORKER_PANIC_TOKENS: [&str; 8] = [
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    ".unwrap()",
    ".expect(",
    "assert!",
    "assert_eq!",
];

/// Replaces the contents of comments (line, nested block, doc), string
/// literals (plain, raw, byte) and char literals with spaces, preserving
/// line structure, so rule matching never fires inside text.
fn scrub(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = chars.clone();
    let blank = |out: &mut [char], i: usize| {
        if out[i] != '\n' {
            out[i] = ' ';
        }
    };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                blank(&mut out, i);
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    blank(&mut out, i);
                    blank(&mut out, i + 1);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    blank(&mut out, i);
                    blank(&mut out, i + 1);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, i);
                    i += 1;
                }
            }
        } else if c == 'r'
            && !prev_is_ident(&chars, i)
            && raw_string_hashes(&chars, i + 1).is_some()
        {
            let Some(hashes) = raw_string_hashes(&chars, i + 1) else {
                unreachable!("checked by the condition above")
            };
            i += 1 + hashes + 1; // past r##"
            while i < chars.len() {
                if chars[i] == '"' && (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#')) {
                    i += 1 + hashes;
                    break;
                }
                blank(&mut out, i);
                i += 1;
            }
        } else if c == '"' {
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' {
                    blank(&mut out, i);
                    if i + 1 < chars.len() {
                        blank(&mut out, i + 1);
                    }
                    i += 2;
                } else if chars[i] == '"' {
                    i += 1;
                    break;
                } else {
                    blank(&mut out, i);
                    i += 1;
                }
            }
        } else if c == '\'' {
            if next == Some('\\') {
                i += 2;
                while i < chars.len() && chars[i] != '\'' {
                    blank(&mut out, i);
                    i += 1;
                }
                i += 1;
            } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
                blank(&mut out, i + 1);
                i += 3;
            } else {
                i += 1; // a lifetime tick
            }
        } else {
            i += 1;
        }
    }
    out.into_iter().collect()
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[from..]` is `#*"` (zero or more hashes then a quote), returns
/// the hash count — the raw-string opener after an `r`.
fn raw_string_hashes(chars: &[char], from: usize) -> Option<usize> {
    let mut n = 0;
    while chars.get(from + n) == Some(&'#') {
        n += 1;
    }
    (chars.get(from + n) == Some(&'"')).then_some(n)
}

/// True when `line` (raw, pre-scrub) carries a `lint: allow(<short>)`
/// directive for the given rule code (`src/<short>`).
fn line_allows(line: &str, code: &str) -> bool {
    let short = code.strip_prefix("src/").unwrap_or(code);
    let Some(at) = line.find("lint: allow(") else {
        return false;
    };
    let rest = &line[at + "lint: allow(".len()..];
    rest.split(')').next().map(str::trim) == Some(short)
}

/// True when a narrowing `as <int>` cast appears on the (scrubbed) line.
fn has_truncating_cast(line: &str) -> bool {
    let mut rest = line;
    while let Some(at) = rest.find(" as ") {
        let after = &rest[at + 4..];
        let ty: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if NARROW_TYPES.contains(&ty.as_str()) {
            return true;
        }
        rest = &rest[at + 4..];
    }
    false
}

fn is_timing_line(line: &str) -> bool {
    let lower = line.to_lowercase();
    TIMING_KEYWORDS.iter().any(|k| lower.contains(k))
}

fn is_edge_line(line: &str) -> bool {
    let lower = line.to_lowercase();
    EDGE_KEYWORDS.iter().any(|k| lower.contains(k))
}

fn has_sentinel_default(line: &str) -> bool {
    SENTINEL_DEFAULTS.iter().any(|t| line.contains(t))
}

/// Lints one source file. `path_label` is used in diagnostics and to
/// decide whether the sweep-worker rule applies (files named `sweep.rs`).
pub fn lint_file(path_label: &str, text: &str) -> Vec<Diagnostic> {
    let scrubbed = scrub(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let is_sweep = path_label.ends_with("sweep.rs");
    // Files that touch sockets must bound their reads somewhere: either a
    // read deadline or non-blocking polling. Both are file-level
    // properties — the guard is usually armed once at accept/connect
    // time, far from the read call itself.
    let is_net_file = scrubbed.contains("TcpStream");
    let net_guarded = scrubbed.contains("set_read_timeout") || scrubbed.contains("set_nonblocking");
    let allowed = |idx: usize, code: &str| {
        line_allows(raw_lines[idx], code) || (idx > 0 && line_allows(raw_lines[idx - 1], code))
    };
    let mut diags = Vec::new();
    let mut depth: i64 = 0;
    // Depth to return to before leaving a skipped `#[cfg(test)]` item.
    let mut skip_until: Option<i64> = None;
    let mut pending_cfg_test = false;
    // (base depth, start line, saw the opening brace) of a worker closure.
    let mut worker: Option<(i64, usize, bool)> = None;
    for (idx, line) in scrubbed.lines().enumerate() {
        let depth_before = depth;
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(base) = skip_until {
            if depth <= base {
                skip_until = None;
            }
            continue;
        }
        let trimmed = line.trim();
        if pending_cfg_test {
            if trimmed.is_empty() || trimmed.starts_with("#[") {
                continue; // further attributes on the gated item
            }
            pending_cfg_test = false;
            if depth > depth_before {
                skip_until = Some(depth_before);
            }
            continue; // the gated item line itself is test code
        }
        if trimmed.contains("cfg(test") {
            if depth > depth_before {
                skip_until = Some(depth_before); // `#[cfg(test)] mod t {` inline
            } else {
                pending_cfg_test = true;
            }
            continue;
        }
        let loc = format!("{}:{}", path_label, idx + 1);
        if is_timing_line(line) && has_truncating_cast(line) && !allowed(idx, RULE_TRUNCATING_CAST)
        {
            diags.push(Diagnostic::error(
                RULE_TRUNCATING_CAST,
                loc.clone(),
                "narrowing `as` cast in timing arithmetic; cycle math is u64",
                "workspace rule (JEDEC counts exceed 32 bits within hours)",
            ));
        }
        if is_edge_line(line) && has_sentinel_default(line) && !allowed(idx, RULE_EDGE_OVERSHOOT) {
            diags.push(Diagnostic::error(
                RULE_EDGE_OVERSHOOT,
                loc.clone(),
                "`MAX`-sentinel default on an event-wheel edge; keep the edge \
                 as Option<Cycle> and fold with `min` so an absent edge can \
                 never be mistaken for (or overflow into) a real wake cycle",
                "workspace rule (sentinel edges overshoot quiet spans, DESIGN.md §5i)",
            ));
        }
        if is_net_file && !net_guarded && !allowed(idx, RULE_UNBOUNDED_NET_READ) {
            for call in NET_READ_CALLS {
                if line.contains(call) {
                    diags.push(Diagnostic::error(
                        RULE_UNBOUNDED_NET_READ,
                        loc.clone(),
                        format!(
                            "`{call}` in a socket-handling file with no \
                             `set_read_timeout`/`set_nonblocking` anywhere; a \
                             stalling peer pins this thread forever"
                        ),
                        "workspace rule (bound every socket read, DESIGN.md §5g)",
                    ));
                    break;
                }
            }
        }
        if is_sweep {
            if worker.is_none() && line.contains("let work") {
                worker = Some((depth_before, idx, false));
            }
            if let Some((base, start, entered)) = worker {
                for token in WORKER_PANIC_TOKENS {
                    if line.contains(token) && !allowed(idx, RULE_PANICKING_WORKER) {
                        diags.push(Diagnostic::error(
                            RULE_PANICKING_WORKER,
                            loc.clone(),
                            format!("`{token}` inside the sweep worker closure"),
                            "workspace rule (worker panics poison the whole sweep)",
                        ));
                        break;
                    }
                }
                let entered = entered || depth > base;
                worker = if entered && depth <= base {
                    None
                } else {
                    Some((base, start, entered))
                };
            }
        }
    }
    diags
}

/// Recursively collects the `.rs` files under `dir`, skipping `bin/`
/// sub-trees (binary targets surface errors to a terminal; panics there
/// are user-facing messages, not silent corruption).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every library source file of the workspace rooted at `root`:
/// all of `crates/*/src/**/*.rs` except `src/bin/`.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for krate in crate_dirs {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut diags = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file)?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        diags.extend(lint_file(&label, &text));
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \".unwrap()\"; // .unwrap()\n/* .expect( */ let y = 1;\n";
        let s = scrub(src);
        assert!(!s.contains(".unwrap()"));
        assert!(!s.contains(".expect("));
        assert!(s.contains("let x ="));
        assert!(s.contains("let y = 1;"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn scrub_handles_raw_strings_chars_and_lifetimes() {
        let src = "let p = r#\"panic!(\"#; let c = '{'; fn f<'a>(x: &'a str) {}\n";
        let s = scrub(src);
        assert!(!s.contains("panic!("));
        assert!(!s.contains('{') || s.matches('{').count() == 1, "{s}");
        assert!(s.contains("fn f<'a>"));
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { t_rcd as u16; }\n}\nfn more() { t_rp as u8; }\n";
        let d = lint_file("x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].location, "x.rs:6");
    }

    #[test]
    fn allow_directive_suppresses_on_same_or_previous_line() {
        let same = "let x = t_rcd as u16; // lint: allow(truncating-cast)\n";
        assert!(lint_file("x.rs", same).is_empty());
        let above = "// lint: allow(truncating-cast)\nlet x = t_rcd as u16;\n";
        assert!(lint_file("x.rs", above).is_empty());
        let wrong = "// lint: allow(edge-overshoot-guard)\nlet x = t_rcd as u16;\n";
        assert_eq!(lint_file("x.rs", wrong).len(), 1);
    }

    #[test]
    fn truncating_cast_needs_a_timing_context() {
        let timing = "let x = t_rcd as u16;\n";
        let d = lint_file("x.rs", timing);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, RULE_TRUNCATING_CAST);
        // Widening casts and non-timing lines pass.
        assert!(lint_file("x.rs", "let x = t_rcd as u64;\n").is_empty());
        assert!(lint_file("x.rs", "let x = color as u8;\n").is_empty());
        assert!(lint_file("x.rs", "let x = n as usize + t_faw_things;\n").is_empty());
    }

    #[test]
    fn sweep_worker_panics_are_flagged_only_in_sweep_files() {
        let src = "fn run() {\n    let work = |i: usize| {\n        let v = slots[i].lock();\n        panic!(\"boom\");\n    };\n    panic!(\"outside the worker is fine\");\n}\n";
        let d = lint_file("core/src/sweep.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, RULE_PANICKING_WORKER);
        assert_eq!(d[0].location, "core/src/sweep.rs:4");
        assert!(lint_file("core/src/other.rs", src).is_empty());
    }

    #[test]
    fn sentinel_edge_defaults_are_flagged_only_in_edge_context() {
        let bad = "let wake = self.next_event(now).unwrap_or(u64::MAX) + 1;\n";
        let d = lint_file("crates/x/src/lib.rs", bad);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, RULE_EDGE_OVERSHOOT);
        let map_or = "let due = edges.iter().map(|e| e.cycle).min().map_or(Cycle::MAX, |c| c);\n";
        assert_eq!(lint_file("x.rs", map_or).len(), 1);
        let retire = "let end = hint.retire_at.map_or(Cycle::MAX, |t| t / 4);\n";
        assert_eq!(lint_file("x.rs", retire).len(), 1);
        // The same sentinel outside edge computation is someone else's
        // problem, and Option-folded edge math is the endorsed shape.
        assert!(lint_file("x.rs", "let pages = limit.unwrap_or(u64::MAX);\n").is_empty());
        let folded = "let wake = [a, b].into_iter().flatten().min();\n";
        assert!(lint_file("x.rs", folded).is_empty());
        let allowed =
            "// lint: allow(edge-overshoot-guard)\nlet wake = edge.unwrap_or(u64::MAX);\n";
        assert!(lint_file("x.rs", allowed).is_empty());
    }

    #[test]
    fn unbounded_net_reads_need_a_guard_in_socket_files() {
        let bad = "use std::net::TcpStream;\nfn f(r: &mut impl std::io::BufRead) {\n    let mut line = String::new();\n    r.read_line(&mut line);\n}\n";
        let d = lint_file("crates/x/src/client.rs", bad);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, RULE_UNBOUNDED_NET_READ);
        assert_eq!(d[0].location, "crates/x/src/client.rs:4");
        // A file-level read deadline (or non-blocking mode) is the guard.
        let timed = bad.replace(
            "fn f",
            "fn g(s: &TcpStream) { s.set_read_timeout(None); }\nfn f",
        );
        assert!(lint_file("crates/x/src/client.rs", &timed).is_empty());
        let nb = bad.replace(
            "fn f",
            "fn g(s: &TcpStream) { s.set_nonblocking(true); }\nfn f",
        );
        assert!(lint_file("crates/x/src/client.rs", &nb).is_empty());
        // Without sockets, buffered line reads are not this rule's business.
        let file_io = "fn f(r: &mut impl std::io::BufRead) {\n    let mut text = String::new();\n    r.read_to_string(&mut text);\n}\n";
        assert!(lint_file("crates/x/src/config.rs", file_io).is_empty());
        // The escape hatch works like every other rule.
        let allowed = bad.replace(
            "    r.read_line(",
            "    // lint: allow(unbounded-net-read)\n    r.read_line(",
        );
        assert!(lint_file("crates/x/src/client.rs", &allowed).is_empty());
    }

    #[test]
    fn workspace_lint_walks_a_fabricated_tree() {
        let root = std::env::temp_dir().join(format!("mcr-lint-test-{}", std::process::id()));
        let src = root.join("crates/demo/src");
        let bin = src.join("bin");
        fs::create_dir_all(&bin).unwrap();
        fs::write(src.join("lib.rs"), "fn f() { t_rcd as u16; }\n").unwrap();
        fs::write(bin.join("main.rs"), "fn main() { t_rcd as u16; }\n").unwrap();
        let d = lint_workspace(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(d.len(), 1, "bin/ exempt, lib.rs flagged: {d:?}");
        assert!(d[0].location.ends_with("lib.rs:1"));
    }
}
