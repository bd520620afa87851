//! The request-parse equivalence battery. The server parses `/query`
//! and `/query_batch` bodies with one pull reader that hashes each key
//! as it is read ([`api::HashedRequest`], [`api::HashedBatch`]); the
//! coordinator, the bench bins and the oracles parse the same grammar
//! into strings ([`api::QueryRequest`], [`api::BatchRequest`]) and build
//! the query sketch with [`IndexSnapshot::build_query`]. Over generated
//! bodies — field order, whitespace, every escape form including
//! surrogate pairs, non-ASCII keys, duplicate fields, repeated keys —
//! and every sketch configuration (each aggregation, fixed-size and
//! threshold selection, 64- and 32-bit hashers), the two must agree bit
//! for bit: same fingerprint, same sketch, same parameters and trace
//! flag.
//!
//! Both must also accept exactly the bodies a tree-based reference
//! accepts — `json::parse` plus the field rules the server applied
//! before the reader existed, kept here — under hostile mutations
//! (truncation, byte flips, nesting bombs in unknown fields), without
//! panicking; and the fingerprint must equal the reference encoding, so
//! cache keys are unchanged.

use correlation_sketches::json::{self, Obj, Value};
use correlation_sketches::{CorrelationSketch, SelectionStrategy, SketchBuilder, SketchConfig};
use proptest::prelude::*;
use proptest::TestRng;
use sketch_hashing::{murmur3_x64_128, TupleHasher};
use sketch_index::{PlanMode, SketchIndex};
use sketch_server::api::{self, BatchRequest, HashedBatch, HashedRequest, QueryBody, QueryRequest};
use sketch_server::{HttpClient, IndexSnapshot, QueryParams, ServerConfig};
use sketch_table::{Aggregation, ColumnPair};

// ---------------------------------------------------------------------
// The reference: the tree-based request rules.
// ---------------------------------------------------------------------

mod reference {
    use super::*;

    fn err(e: impl std::fmt::Display) -> String {
        e.to_string()
    }

    fn bounded(v: &Value, field: &str) -> Result<usize, String> {
        let n = usize::try_from(v.as_u64(field).map_err(err)?).map_err(err)?;
        if n > api::MAX_SELECTION {
            return Err(format!("{field} too large"));
        }
        Ok(n)
    }

    fn open_unit(v: &Value, field: &str) -> Result<f64, String> {
        let x = v.as_f64(field).map_err(err)?;
        if !(x > 0.0 && x < 1.0) {
            return Err(format!("{field} out of range"));
        }
        Ok(x)
    }

    fn params(obj: Obj<'_>, defaults: &QueryParams) -> Result<QueryParams, String> {
        let mut p = *defaults;
        if let Some(v) = obj.opt("k") {
            p.k = bounded(v, "k")?;
        }
        if let Some(v) = obj.opt("candidates") {
            p.candidates = bounded(v, "candidates")?;
        }
        if let Some(v) = obj.opt("estimator") {
            p.estimator = v.as_str("estimator").map_err(err)?.parse()?;
        }
        if let Some(v) = obj.opt("min_sample") {
            p.min_sample = usize::try_from(v.as_u64("min_sample").map_err(err)?).map_err(err)?;
        }
        if let Some(v) = obj.opt("alpha") {
            p.alpha = open_unit(v, "alpha")?;
        }
        if let Some(v) = obj.opt("scorer") {
            p.scorer = v.as_str("scorer").map_err(err)?.parse()?;
        }
        if let Some(v) = obj.opt("confidence") {
            p.confidence = open_unit(v, "confidence")?;
        }
        if let Some(v) = obj.opt("plan") {
            p.plan = v.as_str("plan").map_err(err)?.parse()?;
        }
        Ok(p)
    }

    fn trace(obj: Obj<'_>) -> Result<bool, String> {
        obj.opt("trace")
            .map_or(Ok(false), |v| v.as_bool("trace").map_err(err))
    }

    fn body(obj: Obj<'_>) -> Result<QueryBody, String> {
        let id = match obj.opt("id") {
            Some(v) => v.as_str("id").map_err(err)?.to_string(),
            None => "query".to_string(),
        };
        let keys = obj
            .get("keys")
            .and_then(|v| v.as_array("keys"))
            .map_err(err)?
            .iter()
            .map(|v| v.as_str("keys[]").map(str::to_string))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let values = obj
            .get("values")
            .and_then(|v| v.as_array("values"))
            .map_err(err)?
            .iter()
            .map(|v| v.as_f64("values[]"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        if keys.len() != values.len() || keys.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return Err("bad column".into());
        }
        Ok(QueryBody { id, keys, values })
    }

    fn object(body: &[u8]) -> Result<Value, String> {
        json::parse(std::str::from_utf8(body).map_err(err)?)
    }

    pub fn query(body: &[u8], defaults: &QueryParams) -> Result<QueryRequest, String> {
        let value = object(body)?;
        let obj = value.as_object("request").map_err(err)?;
        Ok(QueryRequest {
            body: self::body(obj)?,
            params: params(obj, defaults)?,
            trace: trace(obj)?,
        })
    }

    pub fn batch(body: &[u8], defaults: &QueryParams) -> Result<BatchRequest, String> {
        let value = object(body)?;
        let obj = value.as_object("request").map_err(err)?;
        let queries = obj
            .get("queries")
            .and_then(|v| v.as_array("queries"))
            .map_err(err)?
            .iter()
            .map(|v| v.as_object("queries[]").map_err(err).and_then(self::body))
            .collect::<Result<Vec<_>, _>>()?;
        if queries.is_empty() {
            return Err("empty batch".into());
        }
        Ok(BatchRequest {
            queries,
            params: params(obj, defaults)?,
            trace: trace(obj)?,
        })
    }

    fn push_params(bytes: &mut Vec<u8>, p: &QueryParams) {
        bytes.extend_from_slice(&(p.k as u64).to_le_bytes());
        bytes.extend_from_slice(&(p.candidates as u64).to_le_bytes());
        bytes.extend_from_slice(p.estimator.name().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(p.min_sample as u64).to_le_bytes());
        bytes.extend_from_slice(&p.alpha.to_bits().to_le_bytes());
        bytes.extend_from_slice(p.scorer.name().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&p.confidence.to_bits().to_le_bytes());
        bytes.extend_from_slice(p.plan.name().as_bytes());
        bytes.push(0);
        let plan_confidence = match p.plan {
            PlanMode::Exhaustive => 0.0,
            PlanMode::TwoPass { confidence } => confidence,
        };
        bytes.extend_from_slice(&plan_confidence.to_bits().to_le_bytes());
    }

    fn push_query(bytes: &mut Vec<u8>, q: &QueryBody) {
        bytes.extend_from_slice(&(q.id.len() as u64).to_le_bytes());
        bytes.extend_from_slice(q.id.as_bytes());
        bytes.extend_from_slice(&(q.keys.len() as u64).to_le_bytes());
        for (k, v) in q.keys.iter().zip(&q.values) {
            bytes.extend_from_slice(&(k.len() as u64).to_le_bytes());
            bytes.extend_from_slice(k.as_bytes());
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn hash(bytes: &[u8]) -> u128 {
        let (h1, h2) = murmur3_x64_128(bytes, 0x5e7e_5e7e_5e7e_5e7e);
        (u128::from(h1) << 64) | u128::from(h2)
    }

    /// The cache key encoding of `/query`.
    pub fn query_fingerprint(req: &QueryRequest) -> u128 {
        let mut bytes = b"query\x00".to_vec();
        push_params(&mut bytes, &req.params);
        push_query(&mut bytes, &req.body);
        hash(&bytes)
    }

    /// The cache key encoding of `/query_batch`.
    pub fn batch_fingerprint(req: &BatchRequest) -> u128 {
        let mut bytes = b"batch\x00".to_vec();
        push_params(&mut bytes, &req.params);
        for q in &req.queries {
            push_query(&mut bytes, q);
        }
        hash(&bytes)
    }
}

// ---------------------------------------------------------------------
// Body generation.
// ---------------------------------------------------------------------

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len())]
}

fn chance(rng: &mut TestRng, p: f64) -> bool {
    rng.unit_f64() < p
}

fn ws(rng: &mut TestRng) -> &'static str {
    const WS: [&str; 6] = ["", "", " ", "\n", "\t ", "\r\n  "];
    WS[rng.below(WS.len())]
}

/// Key characters: escapes the writer must use, escapes it may use,
/// multi-byte and astral code points.
const CHARS: &[char] = &[
    'a', 'b', 'k', 'z', '0', '7', ' ', '-', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}',
    '\u{7f}', 'é', 'ß', '中', '\u{2028}', '😀', '𝄞',
];

fn text(rng: &mut TestRng, max_len: usize) -> String {
    (0..rng.below(max_len + 1))
        .map(|_| *pick(rng, CHARS))
        .collect()
}

fn unicode_escape(out: &mut String, c: char, upper: bool) {
    let mut units = [0u16; 2];
    for unit in c.encode_utf16(&mut units) {
        if upper {
            out.push_str(&format!("\\u{unit:04X}"));
        } else {
            out.push_str(&format!("\\u{unit:04x}"));
        }
    }
}

/// `s` as a JSON string literal, each character written in a randomly
/// chosen legal form.
fn encode(rng: &mut TestRng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let style = rng.below(4);
        match c {
            '"' if style > 0 => out.push_str("\\\""),
            '\\' if style > 0 => out.push_str("\\\\"),
            '\n' if style > 0 => out.push_str("\\n"),
            '\t' if style > 0 => out.push_str("\\t"),
            '/' if style == 1 => out.push_str("\\/"),
            c if c == '"' || c == '\\' || u32::from(c) < 0x20 || style == 0 => {
                unicode_escape(&mut out, c, chance(rng, 0.5));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in one of the spellings clients send.
fn number(rng: &mut TestRng) -> String {
    let v = (rng.unit_f64() - 0.5) * 10f64.powi(i32::try_from(rng.below(7)).unwrap() - 3);
    match rng.below(5) {
        0 => format!("{}", rng.below(2000)),
        1 => format!("-{}", rng.below(50)),
        2 => format!("{v:e}"),
        3 => format!("{v:E}"),
        _ => format!("{v:?}"),
    }
}

/// A random JSON value for an unknown or duplicated field.
fn junk(rng: &mut TestRng, depth: usize) -> String {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => "null".into(),
        1 => pick(rng, &["true", "false"]).to_string(),
        2 => number(rng),
        3 => {
            let s = text(rng, 4);
            encode(rng, &s)
        }
        4 => "[]".into(),
        5 => {
            let items: Vec<String> = (0..rng.below(4)).map(|_| junk(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let fields: Vec<String> = (0..rng.below(3))
                .map(|_| {
                    let name = text(rng, 3);
                    format!("{}:{}", encode(rng, &name), junk(rng, depth - 1))
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// A valid value for a named parameter field.
fn param_value(rng: &mut TestRng, name: &str) -> String {
    let s = |rng: &mut TestRng, options: &[&str]| {
        let v = *pick(rng, options);
        encode(rng, v)
    };
    match name {
        "k" => format!("{}", 1 + rng.below(20)),
        "candidates" => format!("{}", 1 + rng.below(200)),
        "estimator" => s(
            rng,
            &["pearson", "spearman", "rin", "qn", "pm1", "kendall", "dcor"],
        ),
        "min_sample" => format!("{}", rng.below(10)),
        "alpha" | "confidence" => format!("{:?}", 0.01 + 0.98 * rng.unit_f64()),
        "scorer" => s(rng, &["s1", "s2", "s3", "s4", "rp*cih"]),
        "plan" => s(rng, &["exhaustive", "two-pass", "two-pass@0.99"]),
        _ => pick(rng, &["true", "false"]).to_string(),
    }
}

const PARAMS: [&str; 9] = [
    "k",
    "candidates",
    "estimator",
    "min_sample",
    "alpha",
    "scorer",
    "confidence",
    "plan",
    "trace",
];

/// A field name in a randomly chosen legal spelling.
fn name(rng: &mut TestRng, name: &str) -> String {
    let mut out = String::from("\"");
    for c in name.chars() {
        if chance(rng, 0.1) {
            unicode_escape(&mut out, c, false);
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// A query column's fields: keys drawn from a small pool (so keys
/// repeat), values in mixed spellings, an optional id.
fn column_fields(rng: &mut TestRng) -> Vec<(String, String)> {
    let pool: Vec<String> = (0..1 + rng.below(12)).map(|_| text(rng, 6)).collect();
    let rows = 1 + rng.below(40);
    let keys: Vec<String> = (0..rows)
        .map(|_| {
            let k = pick(rng, &pool).clone();
            encode(rng, &k)
        })
        .collect();
    // Rarely one value short: the length rule must reject both ways.
    let value_count = if chance(rng, 0.03) { rows - 1 } else { rows };
    let values: Vec<String> = (0..value_count).map(|_| number(rng)).collect();
    let sep = |rng: &mut TestRng| format!("{},{}", ws(rng), ws(rng));
    let keys = keys.join(&sep(rng));
    let values = values.join(&sep(rng));
    let mut fields = vec![
        (
            "keys".to_string(),
            format!("[{}{keys}{}]", ws(rng), ws(rng)),
        ),
        ("values".to_string(), format!("[{values}]")),
    ];
    if chance(rng, 0.6) {
        let id = text(rng, 8);
        fields.push(("id".to_string(), encode(rng, &id)));
    }
    fields
}

/// Shuffle, add unknown and duplicate fields, and render an object.
fn render_object(rng: &mut TestRng, mut fields: Vec<(String, String)>, unknown: &[&str]) -> String {
    for _ in 0..rng.below(3) {
        let field = pick(rng, unknown).to_string();
        let value = junk(rng, 3);
        fields.push((field, value));
    }
    if chance(rng, 0.3) && !fields.is_empty() {
        // A repeat of a known field: the first occurrence wins, whatever
        // the repeat holds.
        let field = pick(rng, &fields).0.clone();
        let value = if chance(rng, 0.5) {
            junk(rng, 2)
        } else {
            param_value(rng, &field)
        };
        fields.push((field, value));
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.below(i + 1));
    }
    let rendered: Vec<String> = fields
        .iter()
        .map(|(n, v)| format!("{}{}{}:{}{v}", ws(rng), name(rng, n), ws(rng), ws(rng)))
        .collect();
    format!("{{{}{}}}", rendered.join(","), ws(rng))
}

fn param_fields(rng: &mut TestRng) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    for p in PARAMS {
        if chance(rng, 0.3) {
            fields.push((p.to_string(), param_value(rng, p)));
        }
    }
    fields
}

fn query_body(rng: &mut TestRng) -> String {
    let mut fields = column_fields(rng);
    fields.extend(param_fields(rng));
    render_object(
        rng,
        fields,
        &["junk", "Keys", "queries", "docs", "ke\u{1f}ys"],
    )
}

fn batch_body(rng: &mut TestRng) -> String {
    let queries: Vec<String> = (0..rng.below(4))
        .map(|_| {
            let mut fields = column_fields(rng);
            // Parameters inside a batch element are ignored.
            fields.extend(param_fields(rng));
            render_object(rng, fields, &["junk", "queries"])
        })
        .collect();
    let mut fields = vec![("queries".to_string(), format!("[{}]", queries.join(",")))];
    fields.extend(param_fields(rng));
    render_object(rng, fields, &["junk", "keys", "values", "id"])
}

/// One hostile mutation of a body.
fn mutate(rng: &mut TestRng, body: &str) -> Vec<u8> {
    let mut bytes = body.as_bytes().to_vec();
    match rng.below(5) {
        0 => bytes.truncate(rng.below(bytes.len() + 1)),
        1 => {
            let tail = *pick(rng, &[&b" x"[..], b"}", b",", b"{}", b" 1", b"\n\t"]);
            bytes.extend_from_slice(tail);
        }
        2 => {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] = *pick(
                    rng,
                    &[
                        b'{', b'}', b'[', b']', b'"', b'\\', b',', b':', b' ', b'0', b'-', b'e',
                        b'.', b'u', b'a', 0x00, 0x1f, 0x80, 0xc3, 0xff,
                    ],
                );
            }
        }
        3 => {
            // A nesting bomb in an unknown field, around the depth limit
            // or far past it, balanced or not.
            let depth = *pick(rng, &[61, 62, 63, 64, 65, 200, 100_000]);
            let open = if chance(rng, 0.5) { "[" } else { "{\"a\":" };
            let close = if open == "[" { "]" } else { "}" };
            let mut bomb = format!(",\"junk\":{}", open.repeat(depth));
            if chance(rng, 0.8) {
                if open == "[" {
                    bomb.push_str(&close.repeat(depth));
                } else {
                    bomb.push('1');
                    bomb.push_str(&close.repeat(depth));
                }
            }
            let at = bytes.len() - 1;
            bytes.splice(at..at, bomb.bytes());
        }
        _ => {
            let at = rng.below(bytes.len() + 1);
            let junk = *pick(
                rng,
                &[&b"\\u"[..], b"\"", b",", b"]", b"}", b"\\ud83d", b" x"],
            );
            bytes.splice(at..at, junk.iter().copied());
        }
    }
    bytes
}

// ---------------------------------------------------------------------
// Sketch configurations.
// ---------------------------------------------------------------------

/// A snapshot whose corpus (one sketch) fixes a random sketch
/// configuration for the query sketches built against it.
fn snapshot(rng: &mut TestRng) -> IndexSnapshot {
    let strategy = if chance(rng, 0.5) {
        SelectionStrategy::FixedSize(rng.below(24))
    } else {
        SelectionStrategy::Threshold(0.05 + 0.95 * rng.unit_f64())
    };
    let hasher = match rng.below(3) {
        0 => TupleHasher::default(),
        1 => TupleHasher::new_64(rng.next_u64()),
        _ => TupleHasher::paper_32(u32::try_from(rng.next_u64() >> 32).unwrap()),
    };
    let config = SketchConfig {
        strategy,
        hasher,
        aggregation: *pick(rng, &Aggregation::ALL),
    };
    let corpus = SketchBuilder::new(config).build(&ColumnPair::new(
        "corpus",
        "k",
        "v",
        vec!["a".into(), "b".into()],
        vec![1.0, 2.0],
    ));
    let snap = IndexSnapshot::new(SketchIndex::from_sketches([corpus]).unwrap());
    assert_eq!(snap.query_config(), config);
    snap
}

fn built(snap: &IndexSnapshot, q: &QueryBody) -> CorrelationSketch {
    snap.build_query(&q.id, q.keys.clone(), q.values.clone())
}

/// Check one `/query` body: the three parsers agree on accept/reject,
/// and on an accepted body the fused path equals parse-then-build.
fn check_query(snap: &IndexSnapshot, body: &[u8], defaults: &QueryParams) -> TestCaseResult {
    let tree = reference::query(body, defaults);
    let strings = QueryRequest::parse(body, defaults);
    let hashed = HashedRequest::parse_with(body, defaults, snap.query_config());
    let shown = String::from_utf8_lossy(body);
    prop_assert_eq!(
        tree.is_ok(),
        strings.is_ok(),
        "{:?} vs {:?} on {}",
        tree,
        strings,
        shown
    );
    prop_assert_eq!(
        strings.is_ok(),
        hashed.is_ok(),
        "{:?} on {}",
        strings,
        shown
    );
    if let (Ok(tree), Ok(strings), Ok(hashed)) = (tree, strings, hashed) {
        prop_assert_eq!(&tree, &strings);
        let fingerprint = reference::query_fingerprint(&tree);
        prop_assert_eq!(strings.fingerprint(), fingerprint);
        prop_assert_eq!(hashed.fingerprint(), fingerprint);
        prop_assert_eq!(hashed.params, strings.params);
        prop_assert_eq!(hashed.trace, strings.trace);
        prop_assert_eq!(&hashed.body.id, &strings.body.id);
        prop_assert_eq!(&hashed.body.values, &strings.body.values);
        prop_assert_eq!(hashed.body.sketch(), built(snap, &strings.body));
    }
    Ok(())
}

fn check_batch(snap: &IndexSnapshot, body: &[u8], defaults: &QueryParams) -> TestCaseResult {
    let tree = reference::batch(body, defaults);
    let strings = BatchRequest::parse(body, defaults);
    let hashed = HashedBatch::parse_with(body, defaults, snap.query_config());
    let shown = String::from_utf8_lossy(body);
    prop_assert_eq!(
        tree.is_ok(),
        strings.is_ok(),
        "{:?} vs {:?} on {}",
        tree,
        strings,
        shown
    );
    prop_assert_eq!(
        strings.is_ok(),
        hashed.is_ok(),
        "{:?} on {}",
        strings,
        shown
    );
    if let (Ok(tree), Ok(strings), Ok(hashed)) = (tree, strings, hashed) {
        prop_assert_eq!(&tree, &strings);
        let fingerprint = reference::batch_fingerprint(&tree);
        prop_assert_eq!(strings.fingerprint(), fingerprint);
        prop_assert_eq!(hashed.fingerprint(), fingerprint);
        prop_assert_eq!(hashed.params, strings.params);
        prop_assert_eq!(hashed.trace, strings.trace);
        prop_assert_eq!(hashed.queries.len(), strings.queries.len());
        for (h, s) in hashed.queries.iter().zip(&strings.queries) {
            prop_assert_eq!(h.sketch(), built(snap, s));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn fused_query_parse_equals_parse_then_build(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let snap = snapshot(&mut rng);
        let defaults = QueryParams::default();
        for _ in 0..8 {
            let body = query_body(&mut rng);
            check_query(&snap, body.as_bytes(), &defaults)?;
            let hostile = mutate(&mut rng, &body);
            check_query(&snap, &hostile, &defaults)?;
        }
    }

    #[test]
    fn fused_batch_parse_equals_parse_then_build(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let snap = snapshot(&mut rng);
        let defaults = QueryParams::default();
        for _ in 0..4 {
            let body = batch_body(&mut rng);
            check_batch(&snap, body.as_bytes(), &defaults)?;
            let hostile = mutate(&mut rng, &body);
            check_batch(&snap, &hostile, &defaults)?;
        }
    }
}

proptest! {
    #[test]
    fn escaped_keys_decode_to_the_generated_keys(seed in any::<u64>()) {
        // An oracle independent of the decoder both parsers share: the
        // keys as generated, before `encode` chose their escapes.
        let mut rng = TestRng::new(seed);
        let snap = snapshot(&mut rng);
        let keys: Vec<String> = (0..1 + rng.below(30)).map(|_| text(&mut rng, 8)).collect();
        let values: Vec<f64> = (0..keys.len()).map(|i| i as f64 * 0.5).collect();
        let encoded: Vec<String> = keys.iter().map(|k| encode(&mut rng, k)).collect();
        let rendered: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        let body = format!(
            "{{\"keys\":[{}],\"values\":[{}]}}",
            encoded.join(","),
            rendered.join(",")
        );
        let strings = QueryRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
        prop_assert_eq!(&strings.body.keys, &keys);
        let hashed = HashedRequest::parse_with(
            body.as_bytes(),
            &QueryParams::default(),
            snap.query_config(),
        )
        .unwrap();
        prop_assert_eq!(hashed.body.sketch(), snap.build_query("query", keys, values));
    }
}

#[test]
fn generated_bodies_are_mostly_accepted() {
    // The battery is only as strong as its accepted share: most
    // unmutated bodies must parse, or the equality half checks little.
    let mut rng = TestRng::new(7);
    let defaults = QueryParams::default();
    let accepted = (0..400)
        .filter(|_| QueryRequest::parse(query_body(&mut rng).as_bytes(), &defaults).is_ok())
        .count();
    assert!(accepted > 200, "{accepted} of 400 accepted");
    let accepted = (0..400)
        .filter(|_| BatchRequest::parse(batch_body(&mut rng).as_bytes(), &defaults).is_ok())
        .count();
    assert!(accepted > 150, "{accepted} of 400 accepted");
}

#[test]
fn duplicate_fields_first_occurrence_wins() {
    let snap = IndexSnapshot::new(SketchIndex::new());
    let defaults = QueryParams::default();
    for body in [
        &br#"{"keys":["a"],"values":[1],"keys":[7],"values":"x","k":3,"k":"x"}"#[..],
        br#"{"k":4,"keys":["a","a"],"k":[],"values":[1,2],"trace":true,"trace":1}"#,
        "{\"id\":\"x\",\"id\":null,\"keys\":[\"😀\"],\"values\":[1e2]}".as_bytes(),
    ] {
        check_query(&snap, body, &defaults).unwrap();
        assert!(QueryRequest::parse(body, &defaults).is_ok());
    }
    let req = QueryRequest::parse(
        br#"{"k":4,"keys":["a","a"],"k":[],"values":[1,2],"trace":true,"trace":1}"#,
        &defaults,
    )
    .unwrap();
    assert_eq!(req.params.k, 4);
    assert!(req.trace);
}

// ---------------------------------------------------------------------
// Over HTTP: request errors name the field fault, nothing internal.
// ---------------------------------------------------------------------

#[test]
fn bad_requests_answer_400_naming_only_the_field_fault() {
    let dir = std::env::temp_dir().join(format!("sketch-prop-parse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sketches: Vec<_> = (0..3)
        .map(|t| {
            SketchBuilder::new(SketchConfig::with_size(16)).build(&ColumnPair::new(
                format!("t{t}"),
                "k",
                "v",
                (0..20).map(|i| format!("key-{i}")).collect(),
                (0..20).map(f64::from).collect(),
            ))
        })
        .collect();
    sketch_store::pack_corpus(&dir, &sketches, &sketch_store::PackOptions::default()).unwrap();
    let server = sketch_server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for (path, body, fault) in [
        (
            "/query",
            r#"{"keys":[1],"values":[1]}"#,
            "keys[]: expected string",
        ),
        (
            "/query",
            r#"{"keys":["a"],"values":["x"]}"#,
            "values[]: expected number",
        ),
        (
            "/query",
            r#"{"keys":"a","values":[1]}"#,
            "keys: expected array",
        ),
        ("/query", r#"{"keys":["a"],"values":[1],"k":-1}"#, "k: "),
        (
            "/query",
            r#"{"keys":["a"],"values":[1],"trace":1}"#,
            "trace: expected bool",
        ),
        ("/query", "[1]", "request: expected object"),
        ("/query", r#"{"values":[1]}"#, "missing field 'keys'"),
        (
            "/query_batch",
            r#"{"queries":[1]}"#,
            "queries[0]: queries[]: expected object",
        ),
        (
            "/query_batch",
            r#"{"queries":[{"keys":[true],"values":[1]}]}"#,
            "queries[0]: keys[]: expected string",
        ),
        (
            "/query_batch",
            r#"{"queries":{}}"#,
            "queries: expected array",
        ),
        (
            "/query_batch",
            r#"{"queries":[{"keys":["a"],"values":[1]}],"alpha":"x"}"#,
            "alpha: ",
        ),
    ] {
        let response = client.post(path, body).unwrap();
        assert_eq!(response.status, 400, "{path} {body}: {}", response.body);
        assert!(
            !response.body.contains("corrupt sketch data"),
            "{path} {body}: {}",
            response.body
        );
        let message = json::parse(&response.body).unwrap();
        let message = message
            .as_object("response")
            .unwrap()
            .get("error")
            .unwrap()
            .as_str("error")
            .unwrap()
            .to_string();
        assert!(message.starts_with(fault), "{path} {body}: {message}");
    }
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
