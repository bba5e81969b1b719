//! Lossless [`RunReport`] ↔ JSON text codec.
//!
//! The store persists *full* reports — every counter, histogram and
//! energy figure — and the determinism suite demands that a report
//! pulled off disk compares equal (`==`) to the one the simulator
//! produced. One member list, `walk_report`, names every stored member
//! in its stored order; [`report_to_json`] runs it to build the entry's
//! [`Json`] tree, and [`decode_report`] runs it to read the stored text
//! back in one pass over [`sim_json::Reader`] tokens, with no tree. So
//! the writer and the reader cannot disagree on a member's name, place
//! or kind. Three representational traps make that non-trivial with
//! JSON, and the decoder's token rules follow the writer on each:
//!
//! * **Full-range `u64`s.** Counters can saturate at `u64::MAX`, and an
//!   empty [`LatencyHistogram`] carries a `u64::MAX` min sentinel —
//!   both beyond the 2^53 window an `f64` holds exactly. Every `u64`
//!   goes through [`Json::from_u64_lossless`]: a plain integer token up
//!   to 2^53, a decimal string past it. The decoder reads integer tokens
//!   exactly ([`sim_json::Number::as_u64`], no float parse) and takes
//!   each value only in the spelling the writer gives it: no sign,
//!   fraction, exponent, leading zero, or string at or below 2^53.
//! * **Histogram internals.** `count`/`sum`/`min`/`max` are not
//!   derivable from the buckets, so histograms are persisted via
//!   [`LatencyHistogram::raw_parts`] and rebuilt with
//!   [`LatencyHistogram::from_raw_parts`], sentinels and all. The
//!   sparse buckets are `[index, count]` pairs with rising indexes and
//!   nonzero counts, as written.
//! * **Non-finite floats.** JSON has no `NaN`/`Infinity` literals (the
//!   serializer renders them as `null`); the codec sidesteps the hole
//!   by encoding non-finite values as the strings `"NaN"`, `"inf"` and
//!   `"-inf"`. Finite values ride the serializer's shortest-round-trip
//!   formatting; the decoder reads a number token bit-identically to
//!   `str::parse::<f64>` and refuses one that overflows to infinity.
//!
//! Decoding is total and typed: any missing, extra, reordered,
//! mistyped or out-of-range member yields a [`CodecError`] naming the
//! path, which the store maps to quarantine-and-recompute.

use mcr_dram::{BankCommandCounts, RunReport};
use mcr_telemetry::{Counter, LatencyHistogram, HISTOGRAM_BUCKETS};
use sim_json::{Json, Reader, Token, MAX_EXACT_INT};

/// Why a stored report failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Dotted path of the offending field (e.g. `report.telemetry.act_to_data.sum`).
    pub path: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode failed at `{}`: {}", self.path, self.reason)
    }
}

impl std::error::Error for CodecError {}

type Step = Result<(), CodecError>;

// ---- the member list ---------------------------------------------------

/// Writes or reads each member of the object at hand, in turn. Values
/// are passed `&mut` so one walk serves both: the encoder reads them, the
/// decoder fills them in.
trait Fields: Sized {
    fn u64(&mut self, name: &'static str, v: &mut u64) -> Step;
    fn f64(&mut self, name: &'static str, v: &mut f64) -> Step;
    fn bool(&mut self, name: &'static str, v: &mut bool) -> Step;
    fn u64s(&mut self, name: &'static str, v: &mut Vec<u64>) -> Step;
    fn f64s(&mut self, name: &'static str, v: &mut Vec<f64>) -> Step;
    /// Per-bank counts as `[channel, rank, bank, activates, reads,
    /// writes, precharges]` rows.
    fn banks(&mut self, name: &'static str, v: &mut Vec<BankCommandCounts>) -> Step;
    /// Histogram buckets as sparse `[index, count]` pairs.
    fn buckets(&mut self, name: &'static str, v: &mut [u64; HISTOGRAM_BUCKETS]) -> Step;
    /// An object, its members handled by `fields`.
    fn object(&mut self, name: &'static str, fields: impl FnOnce(&mut Self) -> Step) -> Step;
    /// An object, or `null` for `None`.
    fn nullable<T: Default>(
        &mut self,
        name: &'static str,
        v: &mut Option<T>,
        fields: impl FnOnce(&mut Self, &mut T) -> Step,
    ) -> Step;
}

fn counter<F: Fields>(f: &mut F, name: &'static str, c: &mut Counter) -> Step {
    let mut n = c.get();
    f.u64(name, &mut n)?;
    *c = Counter::new();
    c.add(n);
    Ok(())
}

fn histogram<F: Fields>(f: &mut F, name: &'static str, h: &mut LatencyHistogram) -> Step {
    let (buckets, count, sum, min, max) = h.raw_parts();
    let (mut buckets, mut parts) = (*buckets, [count, sum, min, max]);
    f.object(name, |f| {
        f.buckets("buckets", &mut buckets)?;
        for (name, v) in ["count", "sum", "min", "max"].into_iter().zip(&mut parts) {
            f.u64(name, v)?;
        }
        Ok(())
    })?;
    let [count, sum, min, max] = parts;
    *h = LatencyHistogram::from_raw_parts(buckets, count, sum, min, max);
    Ok(())
}

/// Every stored member of `r`, in the stored order. `r.exec`, how the
/// drive spent the run, is not part of the stored result.
fn walk_report<F: Fields>(f: &mut F, r: &mut RunReport) -> Step {
    f.u64("exec_cpu_cycles", &mut r.exec_cpu_cycles)?;
    f.u64s("per_core_cpu_cycles", &mut r.per_core_cpu_cycles)?;
    f.u64("total_mem_cycles", &mut r.total_mem_cycles)?;
    f.u64("reads_done", &mut r.reads_done)?;
    f.f64("avg_read_latency", &mut r.avg_read_latency)?;
    f.object("controller", |f| {
        let c = &mut r.controller;
        f.u64("reads_done", &mut c.reads_done)?;
        f.u64("writes_done", &mut c.writes_done)?;
        f.u64("read_latency_sum", &mut c.read_latency_sum)?;
        f.u64("row_hits", &mut c.row_hits)?;
        f.u64("row_misses", &mut c.row_misses)?;
        f.u64("row_conflicts", &mut c.row_conflicts)?;
        f.u64("drain_cycles", &mut c.drain_cycles)?;
        f.object("refresh", |f| {
            let s = &mut c.refresh;
            f.u64("normal", &mut s.normal)?;
            f.u64("fast", &mut s.fast)?;
            f.u64("skipped", &mut s.skipped)?;
            f.u64("dropped", &mut s.dropped)?;
            f.u64("late", &mut s.late)
        })?;
        f.u64("retention_retries", &mut c.retention_retries)?;
        f.u64("guardband_degrades", &mut c.guardband_degrades)?;
        f.u64("guardband_rearms", &mut c.guardband_rearms)?;
        f.u64(
            "guardband_degraded_cycles",
            &mut c.guardband_degraded_cycles,
        )
    })?;
    f.object("energy", |f| {
        let e = &mut r.energy;
        f.f64("act_pre_pj", &mut e.act_pre_pj)?;
        f.f64("read_pj", &mut e.read_pj)?;
        f.f64("write_pj", &mut e.write_pj)?;
        f.f64("refresh_pj", &mut e.refresh_pj)?;
        f.f64("background_pj", &mut e.background_pj)
    })?;
    f.f64("edp", &mut r.edp)?;
    f.u64("instructions", &mut r.instructions)?;
    f.nullable("cache", &mut r.cache, |f, c| {
        f.u64("hits", &mut c.hits)?;
        f.u64("misses", &mut c.misses)?;
        f.u64("promotions", &mut c.promotions)?;
        f.u64("evictions", &mut c.evictions)
    })?;
    f.f64s("per_core_read_latency", &mut r.per_core_read_latency)?;
    f.object("telemetry", |f| {
        let t = &mut r.telemetry;
        f.banks("banks", &mut t.banks)?;
        f.u64("refreshes_normal", &mut t.refreshes_normal)?;
        f.u64("refreshes_fast", &mut t.refreshes_fast)?;
        f.u64("powerdown_entries", &mut t.powerdown_entries)?;
        f.u64("mode_changes", &mut t.mode_changes)?;
        histogram(f, "act_to_data", &mut t.act_to_data)?;
        f.object("controller", |f| {
            let c = &mut t.controller;
            histogram(f, "read_queue_depth", &mut c.read_queue_depth)?;
            histogram(f, "write_queue_depth", &mut c.write_queue_depth)?;
            histogram(f, "read_latency", &mut c.read_latency)?;
            counter(f, "sched_cas_read", &mut c.sched_cas_read)?;
            counter(f, "sched_cas_write", &mut c.sched_cas_write)?;
            counter(f, "sched_activates", &mut c.sched_activates)?;
            counter(f, "sched_precharges", &mut c.sched_precharges)?;
            counter(f, "sched_refreshes", &mut c.sched_refreshes)?;
            counter(f, "retention_retries", &mut c.retention_retries)?;
            counter(f, "guardband_degrades", &mut c.guardband_degrades)?;
            counter(f, "guardband_rearms", &mut c.guardband_rearms)
        })?;
        histogram(f, "core_read_latency", &mut t.core_read_latency)?;
        f.u64("retention_checks", &mut t.retention_checks)?;
        f.u64("retention_violations", &mut t.retention_violations)?;
        f.u64("retention_escapes", &mut t.retention_escapes)?;
        histogram(
            f,
            "retention_detect_latency",
            &mut t.retention_detect_latency,
        )
    })?;
    f.object("reliability", |f| {
        let r = &mut r.reliability;
        f.bool("fault_injection", &mut r.fault_injection)?;
        f.u64("fault_seed", &mut r.fault_seed)?;
        f.u64("retention_retries", &mut r.retention_retries)?;
        f.u64("refresh_dropped", &mut r.refresh_dropped)?;
        f.u64("refresh_late", &mut r.refresh_late)?;
        f.u64("guardband_degrades", &mut r.guardband_degrades)?;
        f.u64("guardband_rearms", &mut r.guardband_rearms)?;
        f.u64(
            "guardband_degraded_cycles",
            &mut r.guardband_degraded_cycles,
        )?;
        f.u64("retention_checks", &mut r.retention_checks)?;
        f.u64("retention_violations", &mut r.retention_violations)?;
        f.u64("retention_escapes", &mut r.retention_escapes)
    })
}

// ---- encoding ----------------------------------------------------------

fn ju(n: u64) -> Json {
    Json::from_u64_lossless(n)
}

fn jf(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else if x.is_nan() {
        Json::str("NaN")
    } else if x > 0.0 {
        Json::str("inf")
    } else {
        Json::str("-inf")
    }
}

/// Collects the members of the object being written.
struct Encoder(Vec<(String, Json)>);

impl Encoder {
    fn put(&mut self, name: &str, value: Json) -> Step {
        self.0.push((name.to_string(), value));
        Ok(())
    }
}

impl Fields for Encoder {
    fn u64(&mut self, name: &'static str, v: &mut u64) -> Step {
        self.put(name, ju(*v))
    }

    fn f64(&mut self, name: &'static str, v: &mut f64) -> Step {
        self.put(name, jf(*v))
    }

    fn bool(&mut self, name: &'static str, v: &mut bool) -> Step {
        self.put(name, Json::Bool(*v))
    }

    fn u64s(&mut self, name: &'static str, v: &mut Vec<u64>) -> Step {
        self.put(name, Json::Arr(v.iter().map(|&n| ju(n)).collect()))
    }

    fn f64s(&mut self, name: &'static str, v: &mut Vec<f64>) -> Step {
        self.put(name, Json::Arr(v.iter().map(|&x| jf(x)).collect()))
    }

    fn banks(&mut self, name: &'static str, v: &mut Vec<BankCommandCounts>) -> Step {
        let row = |b: &BankCommandCounts| {
            let row = [
                b.channel as u64,
                b.rank as u64,
                b.bank as u64,
                b.activates,
                b.reads,
                b.writes,
                b.precharges,
            ];
            Json::Arr(row.map(ju).to_vec())
        };
        self.put(name, Json::Arr(v.iter().map(row).collect()))
    }

    fn buckets(&mut self, name: &'static str, v: &mut [u64; HISTOGRAM_BUCKETS]) -> Step {
        let pairs = (v.iter().enumerate())
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![ju(i as u64), ju(n)]));
        self.put(name, Json::Arr(pairs.collect()))
    }

    fn object(&mut self, name: &'static str, fields: impl FnOnce(&mut Self) -> Step) -> Step {
        let outer = std::mem::take(&mut self.0);
        fields(self)?;
        let members = std::mem::replace(&mut self.0, outer);
        self.put(name, Json::Obj(members))
    }

    fn nullable<T: Default>(
        &mut self,
        name: &'static str,
        v: &mut Option<T>,
        fields: impl FnOnce(&mut Self, &mut T) -> Step,
    ) -> Step {
        match v {
            None => self.put(name, Json::Null),
            Some(inner) => self.object(name, |e| fields(e, inner)),
        }
    }
}

/// Encodes a full [`RunReport`] — every scalar, histogram and section —
/// as a [`Json`] value whose text [`decode_report`] inverts exactly.
pub fn report_to_json(r: &RunReport) -> Json {
    let mut e = Encoder(Vec::new());
    // Writing never fails; the walk takes `&mut` for the decoder's sake.
    let _ = walk_report(&mut e, &mut r.clone());
    Json::Obj(e.0)
}

// ---- decoding ----------------------------------------------------------

/// The `u64` that [`ju`] wrote as `token`, in the one spelling it uses.
#[inline]
fn token_u64(token: &Token<'_>) -> Option<u64> {
    match token {
        Token::Num(n) => n.as_u64().filter(|&n| n <= MAX_EXACT_INT),
        Token::Str(s) if !s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit()) => {
            s.parse().ok().filter(|&n| n > MAX_EXACT_INT)
        }
        _ => None,
    }
}

/// The `f64` that [`jf`] wrote as `token`.
#[inline]
fn token_f64(token: &Token<'_>) -> Option<f64> {
    match token {
        Token::Num(n) => Some(n.as_f64()).filter(|x| x.is_finite()),
        Token::Str(s) => match &**s {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

/// Accepts exactly `want`, a `{` or a `[`.
fn opener(token: Token<'_>, want: Token<'_>) -> Result<(), &'static str> {
    if token == want {
        Ok(())
    } else if want == Token::BeginObject {
        Err("not an object")
    } else {
        Err("not an array")
    }
}

/// Reads one report document, member by member, in the writer's order.
/// Each step matches the token where it pulls it: the reader's
/// `next_token` inlines there, so no token is moved or re-wrapped.
struct Decoder<'a> {
    reader: Reader<'a>,
    /// Member names from the root down to the object being read.
    path: Vec<&'static str>,
}

impl<'a> Decoder<'a> {
    /// An error at `field` of the object being read (at the object
    /// itself when `field` is empty).
    #[cold]
    #[inline(never)]
    fn fail(&self, field: &str, reason: &'static str) -> CodecError {
        let mut path = self.path.join(".");
        if !field.is_empty() {
            path.push('.');
            path.push_str(field);
        }
        CodecError { path, reason }
    }

    /// The next token as `want` reads it; the end of the input, a
    /// malformed one or `want`'s refusal is an error at `field`.
    #[inline(always)]
    fn pull<T>(
        &mut self,
        field: &str,
        want: impl FnOnce(Token<'a>) -> Result<T, &'static str>,
    ) -> Result<T, CodecError> {
        let reason = match self.reader.next_token() {
            Ok(Some(token)) => match want(token) {
                Ok(value) => return Ok(value),
                Err(reason) => reason,
            },
            Ok(None) => "unexpected end of input",
            Err(_) => "malformed JSON",
        };
        Err(self.fail(field, reason))
    }

    /// The value of the member that must come next, `name`, as `want`
    /// reads it.
    #[inline(always)]
    fn member<T>(
        &mut self,
        name: &'static str,
        want: impl FnOnce(Token<'a>) -> Result<T, &'static str>,
    ) -> Result<T, CodecError> {
        self.pull(name, |token| match token {
            Token::Key(key) if key == name => Ok(()),
            Token::Key(_) => Err("another member in its place"),
            _ => Err("missing member"),
        })?;
        self.pull(name, want)
    }

    /// The members of an object read by `fields` after its `{`, then its
    /// `}`; a member after those is an error.
    fn members(&mut self, name: &'static str, fields: impl FnOnce(&mut Self) -> Step) -> Step {
        self.path.push(name);
        fields(self)?;
        match self.reader.next_token() {
            Ok(Some(Token::EndObject)) => {}
            Ok(Some(Token::Key(key))) => return Err(self.fail(&key, "unexpected member")),
            Ok(None) => return Err(self.fail("", "unexpected end of input")),
            _ => return Err(self.fail("", "malformed JSON")),
        }
        self.path.pop();
        Ok(())
    }

    /// Reads the array member `name`, each element by `item` from its
    /// first token; `None` from `item` fails at that element for the
    /// reason `what`.
    fn array<T>(
        &mut self,
        name: &'static str,
        what: &'static str,
        mut item: impl FnMut(&mut Self, Token<'a>) -> Option<T>,
    ) -> Result<Vec<T>, CodecError> {
        self.member(name, |token| opener(token, Token::BeginArray))?;
        let mut items = Vec::new();
        loop {
            let token = self.pull(name, Ok)?;
            if token == Token::EndArray {
                return Ok(items);
            }
            match item(self, token) {
                Some(value) => items.push(value),
                None => return Err(self.fail(&format!("{name}[{}]", items.len()), what)),
            }
        }
    }

    /// Reads an array of exactly `N` lossless `u64`s whose `[` is `first`.
    fn row<const N: usize>(&mut self, first: Token<'a>) -> Option<[u64; N]> {
        if first != Token::BeginArray {
            return None;
        }
        let mut out = [0; N];
        for slot in &mut out {
            *slot = token_u64(&self.reader.next_token().ok()??)?;
        }
        (self.reader.next_token().ok()? == Some(Token::EndArray)).then_some(out)
    }
}

impl Fields for Decoder<'_> {
    fn u64(&mut self, name: &'static str, v: &mut u64) -> Step {
        *v = self.member(name, |token| token_u64(&token).ok_or("not a lossless u64"))?;
        Ok(())
    }

    fn f64(&mut self, name: &'static str, v: &mut f64) -> Step {
        *v = self.member(name, |token| token_f64(&token).ok_or("not an f64"))?;
        Ok(())
    }

    fn bool(&mut self, name: &'static str, v: &mut bool) -> Step {
        *v = self.member(name, |token| match token {
            Token::Bool(b) => Ok(b),
            _ => Err("not a bool"),
        })?;
        Ok(())
    }

    fn u64s(&mut self, name: &'static str, v: &mut Vec<u64>) -> Step {
        *v = self.array(name, "not a lossless u64", |_, t| token_u64(&t))?;
        Ok(())
    }

    fn f64s(&mut self, name: &'static str, v: &mut Vec<f64>) -> Step {
        *v = self.array(name, "not an f64", |_, t| token_f64(&t))?;
        Ok(())
    }

    fn banks(&mut self, name: &'static str, v: &mut Vec<BankCommandCounts>) -> Step {
        let what = "not a [channel, rank, bank, activates, reads, writes, precharges] row";
        *v = self.array(name, what, |d, token| {
            let [channel, rank, bank, activates, reads, writes, precharges] = d.row(token)?;
            Some(BankCommandCounts {
                channel: usize::try_from(channel).ok()?,
                rank: usize::try_from(rank).ok()?,
                bank: usize::try_from(bank).ok()?,
                activates,
                reads,
                writes,
                precharges,
            })
        })?;
        Ok(())
    }

    fn buckets(&mut self, name: &'static str, v: &mut [u64; HISTOGRAM_BUCKETS]) -> Step {
        *v = [0; HISTOGRAM_BUCKETS];
        // The lowest index the next pair may name.
        let mut next = 0;
        let what = "not an [index, count] pair with a rising index and a nonzero count";
        self.array(name, what, |d, token| {
            let [i, n] = d.row(token)?;
            let i = usize::try_from(i)
                .ok()
                .filter(|&i| (next..HISTOGRAM_BUCKETS).contains(&i) && n > 0)?;
            v[i] = n;
            next = i + 1;
            Some(())
        })?;
        Ok(())
    }

    fn object(&mut self, name: &'static str, fields: impl FnOnce(&mut Self) -> Step) -> Step {
        self.member(name, |token| opener(token, Token::BeginObject))?;
        self.members(name, fields)
    }

    fn nullable<T: Default>(
        &mut self,
        name: &'static str,
        v: &mut Option<T>,
        fields: impl FnOnce(&mut Self, &mut T) -> Step,
    ) -> Step {
        let null = self.member(name, |token| match token {
            Token::Null => Ok(true),
            token => opener(token, Token::BeginObject).map(|()| false),
        })?;
        *v = if null {
            None
        } else {
            let mut inner = T::default();
            self.members(name, |d| fields(d, &mut inner))?;
            Some(inner)
        };
        Ok(())
    }
}

/// Decodes the JSON text of a [`report_to_json`] document back into the
/// identical (`==`) [`RunReport`], in one pass with no tree. Members must
/// come in the writer's order, each in the writer's spelling.
///
/// # Errors
///
/// [`CodecError`] naming the first malformed, missing, extra, reordered
/// or mistyped member.
pub fn decode_report(text: &str) -> Result<RunReport, CodecError> {
    let mut d = Decoder {
        reader: Reader::new(text),
        path: Vec::new(),
    };
    let mut report = RunReport::default();
    d.pull("report", |token| opener(token, Token::BeginObject))?;
    d.members("report", |d| walk_report(d, &mut report))?;
    match d.reader.next_token() {
        Ok(None) => Ok(report),
        _ => Err(d.fail("report", "trailing data")),
    }
}

/// Parses the canonical 16-hex-digit key rendering (`{:016x}`).
pub fn parse_key_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcr_dram::SystemConfig;

    #[test]
    fn real_report_round_trips_exactly() {
        let cfg = SystemConfig::single_core("libq", 1_500);
        let report = mcr_dram::System::try_build(&cfg)
            .expect("valid config")
            .run();
        let text = report_to_json(&report).to_string();
        let decoded = decode_report(&text).expect("decodes");
        assert_eq!(decoded, report);
        // Decoding is exact: the report re-encodes to the same bytes.
        assert_eq!(report_to_json(&decoded).to_string(), text);
    }

    #[test]
    fn missing_member_names_its_path() {
        let cfg = SystemConfig::single_core("libq", 1_000);
        let report = mcr_dram::System::try_build(&cfg)
            .expect("valid config")
            .run();
        let mut j = report_to_json(&report);
        j.set("edp", Json::Null);
        let err = decode_report(&j.to_string()).expect_err("null edp must fail");
        assert_eq!(err.path, "report.edp");
    }

    #[test]
    fn only_the_writers_spellings_decode() {
        let cfg = SystemConfig::single_core("libq", 1_000);
        let report = mcr_dram::System::try_build(&cfg)
            .expect("valid config")
            .run();
        let text = report_to_json(&report).to_string();
        // `text` with the value of `name` spelled `value`.
        let with = |name: &str, value: &str| {
            let start = text.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
            let end = start + text[start..].find([',', '}']).expect("a value end");
            decode_report(&format!("{}{value}{}", &text[..start], &text[end..]))
        };
        // A u64 is a plain integer up to 2^53 and a canonical decimal
        // string past it; a float is a finite number or a named string.
        for (name, value) in [
            ("exec_cpu_cycles", "9007199254740992"),
            ("exec_cpu_cycles", "\"9007199254740993\""),
            ("exec_cpu_cycles", "\"18446744073709551615\""),
            ("edp", "\"-inf\""),
            ("edp", "1e300"),
        ] {
            assert!(with(name, value).is_ok(), "{name}: {value}");
        }
        for (name, value) in [
            ("exec_cpu_cycles", "9007199254740993"),
            ("exec_cpu_cycles", "\"5\""),
            ("exec_cpu_cycles", "\"09007199254740993\""),
            ("exec_cpu_cycles", "\"18446744073709551616\""),
            ("exec_cpu_cycles", "5.0"),
            ("exec_cpu_cycles", "5e0"),
            ("exec_cpu_cycles", "-0"),
            ("edp", "1e400"),
            ("edp", "\"Infinity\""),
        ] {
            let err = with(name, value).expect_err(value);
            assert_eq!(err.path, format!("report.{name}"), "{value}");
        }
        // Histogram pairs have rising indexes and nonzero counts.
        let hist = "\"act_to_data\":{\"buckets\":[";
        let start = text.find(hist).expect("act_to_data") + hist.len();
        let end = start + text[start..].find("],\"count\"").expect("count");
        let buckets =
            |pairs: &str| decode_report(&format!("{}{pairs}{}", &text[..start], &text[end..]));
        assert!(buckets("[3,1],[4,1]").is_ok());
        for (pairs, at) in [
            ("[3,0]", 0),
            ("[3,1],[3,1]", 1),
            ("[4,1],[3,1]", 1),
            ("[48,1]", 0),
            ("[3]", 0),
            ("[3,1,1]", 0),
        ] {
            let err = buckets(pairs).expect_err(pairs);
            let path = format!("report.telemetry.act_to_data.buckets[{at}]");
            assert_eq!(err.path, path, "{pairs}");
        }
    }

    #[test]
    fn key_hex_is_strict() {
        assert_eq!(parse_key_hex("00000000000000ff"), Some(255));
        assert_eq!(parse_key_hex("ff"), None, "short");
        assert_eq!(parse_key_hex("00000000000000zz"), None, "non-hex");
        assert_eq!(parse_key_hex("00000000000000ff0"), None, "long");
    }
}
