//! Replays every shipped counterexample script in `tests/counterexamples/`
//! through the independent protocol auditor. A script that stops
//! reproducing its violation class — because the auditor, the timing
//! tables, or the script codec changed — fails here instead of silently
//! shipping a stale counterexample.
//!
//! Scripts are read from disk, so `parse_script` is also mutation-fuzzed
//! (in the style of `mcr-serve`'s `protocol_fuzz.rs`): never a panic, and
//! an error caused by one line names it as `script line N: ...`. Every
//! fuzzed script that parses is also replayed, which must not panic
//! either.

use mcr_model::{parse_script, replay_script};
use sim_rng::SmallRng;
use std::path::PathBuf;

fn scripts_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/counterexamples")
}

fn shipped_scripts() -> Vec<PathBuf> {
    let dir = scripts_dir();
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("counterexamples dir {}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "script"))
        .collect();
    paths.sort();
    paths
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_shipped_counterexample_still_reproduces() {
    let paths = shipped_scripts();
    assert!(
        paths.len() >= 3,
        "expected at least 3 shipped scripts, found {}",
        paths.len()
    );
    for path in paths {
        let text = read(&path);
        let parsed =
            parse_script(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        let violations =
            replay_script(&parsed).unwrap_or_else(|e| panic!("replay {}: {e}", path.display()));
        assert!(violations > 0, "{}: empty violation set", path.display());
    }
}

#[test]
fn scripts_state_their_expectation_and_are_minimal_enough() {
    for path in shipped_scripts() {
        let text = read(&path);
        let parsed =
            parse_script(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        assert!(
            parsed.commands.len() <= 6,
            "{}: {} commands (shipped counterexamples stay minimized)",
            path.display(),
            parsed.commands.len()
        );
    }
}

/// A script that uses every key, command kind and token the format
/// knows; the fuzz seeds are it and the shipped scripts.
const FULL_SCRIPT: &str = "expect: RetentionViolation   # every key\n\
     geometry: ranks=2 banks=8\n\
     rows-per-bank: 128\n\
     classes: 11/28 8/18\n\
     retention-limit: 400\n\
     \n\
     cmd: ACT rank1 bank3 row8 class1 @0\n\
     cmd: RD rank1 bank3 row8 col4 @11\n\
     cmd: WR rank1 bank3 row8 col5 auto @20\n\
     cmd: PRE rank0 bank0 @40\n\
     cmd: REF rank0 bank0 trfc208 @60\n\
     cmd: MRS rank0 bank0 @300\n";

/// The errors that belong to the whole script rather than one line.
const WHOLE_SCRIPT_ERRORS: [&str; 2] = ["script has no `expect:` header", "script has no commands"];

/// `|`-separated tokens that hit the key, number and command checks.
const TOKENS: &str = "expect:|cmd:|:|#|=|/|@|ranks=|banks=300|row|class|trfc|auto|ACT|NOP|-1|\
                      18446744073709551616|TrcdViolation| |\u{e9}";

/// One to three edits of `line`: remove a character, overwrite or
/// insert an ASCII character (never a newline), or splice in a token.
fn mutate(rng: &mut SmallRng, line: &str) -> String {
    let tokens: Vec<&str> = TOKENS.split('|').collect();
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..chars.len() + 1);
        let c = match char::from(rng.gen_range(0..0x80u32) as u8) {
            '\n' => '\r',
            c => c,
        };
        match rng.gen_range(0..4u32) {
            0 if at < chars.len() => _ = chars.remove(at),
            1 if at < chars.len() => chars[at] = c,
            2 => chars.insert(at, c),
            _ => _ = chars.splice(at..at, tokens[rng.gen_range(0..tokens.len())].chars()),
        }
    }
    chars.into_iter().collect()
}

/// Parses `text`; an error must be a whole-script one or name a line
/// `ok_line` accepts, and a script that parses must replay without a
/// panic (reproducing its violation or not). Returns whether the script
/// was rejected.
fn check(text: &str, ok_line: impl Fn(usize) -> bool) -> bool {
    let e = match parse_script(text) {
        Ok(parsed) => {
            _ = replay_script(&parsed);
            return false;
        }
        Err(e) => e,
    };
    let line = e
        .strip_prefix("script line ")
        .and_then(|rest| rest.split_once(':'))
        .and_then(|(n, _)| n.parse::<usize>().ok());
    let whole = WHOLE_SCRIPT_ERRORS.contains(&e.as_str());
    assert!(whole || line.is_some_and(ok_line), "{e:?} for {text:?}");
    true
}

#[test]
fn a_mutated_script_line_fails_on_that_line() {
    let mut seeds: Vec<String> = shipped_scripts().iter().map(read).collect();
    seeds.push(FULL_SCRIPT.to_string());
    for seed in &seeds {
        parse_script(seed).unwrap_or_else(|e| panic!("unmutated seed: {e}\n{seed}"));
    }
    let mut rng = SmallRng::seed_from_u64(0x5c21_97f0);
    let mut rejected = 0usize;
    for _ in 0..4_000 {
        let seed = &seeds[rng.gen_range(0..seeds.len())];
        let mut lines: Vec<String> = seed.lines().map(str::to_string).collect();
        let at = rng.gen_range(0..lines.len());
        lines[at] = mutate(&mut rng, &lines[at]);
        rejected += usize::from(check(&lines.join("\n"), |line| line == at + 1));
    }
    // Both outcomes must be well exercised, or the fuzz proves little.
    assert!(
        (1_000..3_800).contains(&rejected),
        "{rejected} of 4000 rejected"
    );
}

#[test]
fn script_noise_never_panics() {
    let mut rng = SmallRng::seed_from_u64(2015);
    for _ in 0..2_000 {
        let n = rng.gen_range(0..200usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        check(&text, |line| (1..=text.lines().count()).contains(&line));
    }
}

/// Regression: an ACT at the last representable cycle used to parse,
/// and its replay then overflowed computing the bank's next-CAS cycle.
/// Such a cycle is now rejected on its line.
#[test]
fn act_at_the_last_cycle_is_rejected() {
    let text = "expect: TrcdViolation\ncmd: ACT rank0 bank0 row8 class0 @18446744073709551615\n";
    assert_eq!(
        parse_script(text).map(|_| ()),
        Err("script line 2: cycle out of range".to_string())
    );
}

/// Every number in every seed script, swapped one at a time for a
/// boundary value: whatever parses must replay without a panic.
#[test]
fn boundary_numbers_replay_without_panic() {
    const BOUNDARIES: [&str; 8] = [
        "0",
        "1",
        "255",
        "65535",
        "4294967295",
        "9223372036854775807",
        "18446744073709551614",
        "18446744073709551615",
    ];
    let mut seeds: Vec<String> = shipped_scripts().iter().map(read).collect();
    seeds.push(FULL_SCRIPT.to_string());
    let mut replayed = 0usize;
    for seed in &seeds {
        let lines: Vec<&str> = seed.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            let bytes = line.as_bytes();
            let mut start = 0;
            while start < bytes.len() {
                if !bytes[start].is_ascii_digit() {
                    start += 1;
                    continue;
                }
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                for value in BOUNDARIES {
                    let mut edited = lines.clone();
                    let swapped = format!("{}{value}{}", &line[..start], &line[end..]);
                    edited[at] = &swapped;
                    replayed += usize::from(!check(&edited.join("\n"), |l| l == at + 1));
                }
                start = end;
            }
        }
    }
    assert!(replayed > 100, "only {replayed} edited scripts parsed");
}
