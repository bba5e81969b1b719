//! Mutation fuzz for the service's request parser, seeded by `sim-rng`
//! (the workspace's deterministic PRNG), in the style of
//! `sim-json`'s proptests. Request lines come off the network, so
//! `protocol::parse_request` must turn anything into either a request
//! or a typed [`ProtocolError`] with a message, and the admission
//! checks (`point_count`, `trace_len`) must be total on whatever it
//! accepts.

use mcr_serve::protocol::parse_request;
use mcr_serve::Request;
use sim_json::Json;
use sim_rng::SmallRng;

/// One valid line per request kind, with the kind a job reports.
const SEEDS: [(&str, Option<&str>); 7] = [
    (r#"{"cmd": "ping", "id": "p"}"#, None),
    (r#"{"cmd": "stats"}"#, None),
    (r#"{"cmd": "shutdown"}"#, None),
    (
        r#"{"cmd": "run", "id": "r", "workload": "libq", "mode": "4/4x/100", "len": 2000,
            "alloc": 0.1, "seed": 3, "mechanisms": 2, "deadline_ms": 500, "metrics": true}"#,
        Some("run"),
    ),
    (
        r#"{"cmd": "sweep", "len": 1200, "workloads": ["libq", "comm1"], "mixes": ["mix01"],
            "modes": ["off", "2/4x/75"], "mechanisms": [1, 4], "allocs": [0.0, 0.2],
            "seeds": [1, 2]}"#,
        Some("sweep"),
    ),
    (
        r#"{"cmd": "campaign", "workload": "libq", "mode": "2/4x/100", "len": 4000,
            "rates": [0.0, 0.1], "fault_seed": 2015}"#,
        Some("campaign"),
    ),
    (
        r#"{"cmd": "compare", "workload": "libq", "len": 800, "seed": 9,
            "backends": ["mcr", "tldram"]}"#,
        Some("compare"),
    ),
];

/// Every member name the parser knows, plus near misses.
const KEYS: [&str; 24] = [
    "cmd",
    "id",
    "deadline_ms",
    "metrics",
    "workload",
    "mix",
    "mode",
    "len",
    "alloc",
    "row_cache",
    "seed",
    "mechanisms",
    "fault_rate",
    "fault_seed",
    "workloads",
    "mixes",
    "modes",
    "allocs",
    "seeds",
    "rates",
    "backends",
    "shard",
    "backend",
    "Len",
];

/// Values chosen to hit type, range and name checks.
const VALUES: [&str; 24] = [
    "null",
    "true",
    "0",
    "1",
    "-1",
    "0.5",
    "1.5",
    "4294967296",
    "9007199254740992",
    "18446744073709551616",
    "1e308",
    "-0",
    r#""""#,
    r#""off""#,
    r#""4/4x/100""#,
    r#""5/4x/100""#,
    r#""libq""#,
    r#""mix01""#,
    r#""bogus""#,
    r#""run""#,
    "[]",
    r#"["off", "1/2x/50"]"#,
    "[0, 1, 4294967296]",
    r#"{"index": 0, "count": 2}"#,
];

fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Member-level edits on a parsed seed: drop, add, or retype a member.
fn mutate_members(rng: &mut SmallRng, doc: &mut Json) {
    let Json::Obj(members) = doc else { return };
    for _ in 0..rng.gen_range(1..4usize) {
        let value = Json::parse(pick(rng, &VALUES)).expect("pool values are JSON");
        match rng.gen_range(0..3u32) {
            0 if !members.is_empty() => {
                members.remove(rng.gen_range(0..members.len()));
            }
            1 if !members.is_empty() => {
                let at = rng.gen_range(0..members.len());
                members[at].1 = value;
            }
            _ => {
                let key = pick(rng, &KEYS);
                if members.iter().all(|(k, _)| k != key) {
                    members.push((key.to_string(), value));
                }
            }
        }
    }
}

/// Byte-level edits: remove, overwrite or insert an ASCII byte.
fn mutate_bytes(rng: &mut SmallRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        let b = rng.gen_range(0..128u32) as u8;
        match rng.gen_range(0..3u32) {
            0 => {
                bytes.remove(at);
            }
            1 => bytes[at] = b,
            _ => bytes.insert(at, b),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `line` and checks the parser's contract; returns whether the
/// line was accepted.
fn check(line: &str) -> bool {
    match parse_request(line) {
        Ok(Request::Job(job)) => {
            let _ = (
                job.spec.point_count(),
                job.spec.trace_len(),
                job.spec.kind(),
            );
            true
        }
        Ok(_) => true,
        Err(e) => {
            assert!(!e.to_string().is_empty(), "empty error message for {line}");
            false
        }
    }
}

#[test]
fn unmutated_seeds_parse_as_their_kind() {
    for (line, kind) in SEEDS {
        let req = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        match (req, kind) {
            (Request::Job(job), Some(kind)) => assert_eq!(job.spec.kind(), kind, "{line}"),
            (Request::Ping | Request::Stats | Request::Shutdown, None) => {}
            (req, kind) => panic!("{line}: parsed as {req:?}, expected {kind:?}"),
        }
    }
}

#[test]
fn mutated_requests_parse_or_fail_typed() {
    let mut rng = SmallRng::seed_from_u64(0x5e12_f00d);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..4_000 {
        let (seed, _) = SEEDS[rng.gen_range(0..SEEDS.len())];
        let mut doc = Json::parse(seed).expect("seed is JSON");
        if rng.gen_bool(0.7) {
            mutate_members(&mut rng, &mut doc);
        }
        let mut line = doc.to_string();
        if rng.gen_bool(0.4) {
            line = mutate_bytes(&mut rng, &line);
        }
        if check(&line) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // Both outcomes must be well exercised, or the fuzz proves little.
    assert!(accepted > 200, "fuzz too harsh: only {accepted} accepted");
    assert!(rejected > 1_000, "fuzz too tame: only {rejected} rejected");
}

#[test]
fn ascii_noise_never_panics() {
    let mut rng = SmallRng::seed_from_u64(2015);
    for _ in 0..2_000 {
        let n = rng.gen_range(0..96usize);
        let text: String = (0..n)
            .map(|_| char::from(rng.gen_range(0x20..0x7fu32) as u8))
            .collect();
        assert!(!check(&text), "noise parsed as a request: {text}");
    }
}
