//! Property tests for the JSON codec, seeded by `sim-rng` (the
//! workspace's deterministic PRNG): round-trip identity over generated
//! documents, serialization stability, and a malformed-input fuzz loop
//! asserting the parser returns typed errors and never panics.

use sim_json::{Json, JsonError, Reader, Token, MAX_DEPTH};
use sim_rng::SmallRng;

/// Generates an arbitrary JSON value. Depth-bounded so containers
/// terminate; leaves exercise every scalar shape the serializer emits.
fn gen_value(rng: &mut SmallRng, depth: usize) -> Json {
    let pick = if depth >= 4 {
        rng.gen_range(0..4u32) // leaves only
    } else {
        rng.gen_range(0..6u32)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => gen_number(rng),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.gen_range(0..5usize);
            Json::Arr((0..n).map(|_| gen_value(rng, depth + 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..5usize);
            let mut members: Vec<(String, Json)> = Vec::new();
            for i in 0..n {
                // Unique keys (the parser rejects duplicates by design).
                let key = format!("{}-{i}", gen_string(rng));
                members.push((key, gen_value(rng, depth + 1)));
            }
            Json::Obj(members)
        }
    }
}

/// Numbers across the shapes that matter: small ints, large exact ints,
/// negatives, dyadic fractions (exactly representable), and arbitrary
/// finite doubles from the RNG stream.
fn gen_number(rng: &mut SmallRng) -> Json {
    match rng.gen_range(0..5u32) {
        0 => Json::Num(rng.gen_range(0..100u64) as f64),
        1 => Json::Num(-(rng.gen_range(0..1_000_000u64) as f64)),
        2 => Json::Num(rng.gen_range(0..(1u64 << 53)) as f64),
        3 => Json::Num(rng.gen_range(0..1024u64) as f64 / 64.0),
        _ => {
            let x = rng.gen_range(-1.0e12..=1.0e12);
            Json::Num(if x.is_finite() { x } else { 0.0 })
        }
    }
}

fn gen_string(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..12usize);
    (0..n)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => char::from_u32(rng.gen_range(0..0x20u32)).unwrap_or(' '),
            4 => ['é', '😀', 'Ж', '中'][rng.gen_range(0..4usize)],
            _ => char::from(b'a' + (rng.gen_range(0..26u32) as u8)),
        })
        .collect()
}

#[test]
fn parse_serialize_round_trips_generated_values() {
    let mut rng = SmallRng::seed_from_u64(0x5e1f_900d);
    for case in 0..2_000 {
        let v = gen_value(&mut rng, 0);
        let text = v.to_string();
        let back =
            Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} while parsing {text}"));
        assert_eq!(back, v, "case {case}: round trip diverged on {text}");
        // Serialization is a fixed point: one more cycle is byte-stable.
        assert_eq!(back.to_string(), text, "case {case}");
    }
}

#[test]
fn workspace_emitter_shapes_round_trip() {
    // The shapes the hand-rolled emitters produce: nested objects with
    // histogram arrays, hex-string keys, nulls for empty percentiles.
    let doc = r#"{"jobs": 2, "wall_ns": 123456789, "points": [{"label": "libq [4/4x/100%reg]", "key": "00ff00ff00ff00ff", "edp": 0.00012345, "p50": null, "buckets": [[40, 2], [60, 1]]}]}"#;
    let v = Json::parse(doc).expect("emitter-shaped doc parses");
    let again = Json::parse(&v.to_string()).expect("reparse");
    assert_eq!(again, v);
}

/// Mutation fuzz: take valid serialized documents, corrupt them with
/// byte-level edits, and require the parser to return (Ok or a typed
/// Err) without panicking. `should_panic` can't express "never panics",
/// so the loop simply runs — any panic fails the test.
#[test]
fn malformed_input_fuzz_yields_typed_errors_not_panics() {
    let mut rng = SmallRng::seed_from_u64(0xbad_f00d);
    let mut errors = 0usize;
    for _ in 0..2_000 {
        let v = gen_value(&mut rng, 0);
        let mut bytes = v.to_string().into_bytes();
        let edits = rng.gen_range(1..4usize);
        for _ in 0..edits {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3u32) {
                0 => {
                    bytes.remove(at);
                }
                1 => {
                    bytes[at] = rng.gen_range(0..128u32) as u8;
                }
                _ => {
                    let b = rng.gen_range(0..128u32) as u8;
                    bytes.insert(at, b);
                }
            }
        }
        // Mutations can break UTF-8; the parser takes &str, so lossy-fix
        // first (the protocol layer reads lines as Strings the same way).
        let text = String::from_utf8_lossy(&bytes);
        match Json::parse(&text) {
            Ok(_) => {}
            Err(JsonError { kind, offset }) => {
                errors += 1;
                assert!(
                    offset <= text.len(),
                    "error offset {offset} beyond input len {} ({kind:?})",
                    text.len()
                );
            }
        }
    }
    assert!(errors > 200, "fuzz too tame: only {errors} rejects");
}

/// Pure-noise fuzz: random ASCII soup must never panic either.
#[test]
fn random_noise_never_panics() {
    let mut rng = SmallRng::seed_from_u64(2015);
    for _ in 0..2_000 {
        let n = rng.gen_range(0..64usize);
        let text: String = (0..n)
            .map(|_| char::from(rng.gen_range(0x20..0x7fu32) as u8))
            .collect();
        let _ = Json::parse(&text);
    }
}

/// FNV-1a 64 over `bytes`, folded into `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Differential net on the reader's verdicts: `Json::parse` over a fixed
/// seeded set of generated-then-mutated documents, every outcome (the
/// re-serialized value, or the error's kind and byte offset, then the
/// exact integer of each number token the reader yields) folded into one
/// digest pinned from a known-good reader. A rewrite that accepts,
/// rejects, locates or reads any of these inputs differently fails here.
#[test]
fn parse_outcomes_match_the_pinned_digest() {
    let mut rng = SmallRng::seed_from_u64(0x00ff_5e75);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut oks, mut errs) = (0, 0);
    for _ in 0..4_000 {
        let doc = gen_value(&mut rng, 0).to_string();
        // Some documents sit in a wrapper that repeats a member name or
        // nests to about `MAX_DEPTH`, which generated values never do.
        let doc = match rng.gen_range(0..6u32) {
            0 => format!(r#"{{"k":{doc},"\u006b":0}}"#),
            1 => {
                let depth = MAX_DEPTH - 2 + rng.gen_range(0..4usize);
                format!("{}{doc}{}", "[".repeat(depth), "]".repeat(depth))
            }
            _ => doc,
        };
        let mut bytes = doc.into_bytes();
        for _ in 0..rng.gen_range(0..4usize) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..4u32) {
                0 => {
                    bytes.remove(at);
                }
                1 => bytes[at] = rng.gen_range(0..128u32) as u8,
                2 => bytes.insert(at, rng.gen_range(0..128u32) as u8),
                _ => bytes.truncate(at),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let mut outcome = match Json::parse(&text) {
            Ok(v) => {
                oks += 1;
                format!("ok {v}")
            }
            Err(JsonError { kind, offset }) => {
                errs += 1;
                format!("{kind:?} at {offset}")
            }
        };
        let mut reader = Reader::new(&text);
        while let Ok(Some(token)) = reader.next_token() {
            if let Token::Num(n) = token {
                outcome.push_str(&format!(" {:?}", n.as_u64()));
            }
        }
        digest = fnv(digest, outcome.as_bytes());
        digest = fnv(digest, b"\n");
    }
    assert!(oks > 500 && errs > 1_500, "{oks} accepted, {errs} rejected");
    assert_eq!(digest, 0x54b1_47a1_944c_132d, "parse outcomes moved");
}
