//! Property tests of the scenario-spec wire format and its canonical
//! hashing: `ScenarioSpec → JSON → ScenarioSpec` is the identity, equal
//! specs hash equal, and unequal specs hash unequal. The second half feeds
//! malformed input to the three parsers a request passes through (HTTP
//! framing, JSON, spec fields): none may panic, and each must answer with
//! its documented error.

use mule_serve::api::{spec_from_body, spec_to_json};
use mule_serve::http::{read_request, HttpError, MAX_BODY_BYTES};
use mule_serve::{json, ApiError};
use mule_workload::ScenarioSpec;
use proptest::prelude::*;

/// Characters the planner-name strategy draws from: realistic names plus
/// everything that stresses JSON escaping and canonical-form delimiting.
const NAME_CHARS: &[char] = &[
    'a', 'b', 'z', '0', '9', '-', '_', ' ', ';', '=', ':', ',', '"', '\\', '/', '\n', '\t',
    '\u{1}', 'é', 'λ', '🦀',
];

fn planner_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NAME_CHARS.len(), 0..=12)
        .prop_map(|indices| indices.into_iter().map(|i| NAME_CHARS[i]).collect())
}

#[allow(clippy::type_complexity)]
fn spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        // Not 0..=u64::MAX: the rand shim's span arithmetic rejects the
        // full-width range. MAX-1 still exercises seeds far above 2^53.
        (0..500usize, 0..16usize, 0..=u64::MAX - 1, 0..8usize),
        (1..10u32, 0..2usize, planner_name(), 0.0..100_000.0f64),
        0..3usize,
    )
        .prop_map(
            |((targets, mules, seed, vips), (vip_weight, recharge, planner, horizon_s), metric)| {
                ScenarioSpec {
                    targets,
                    mules,
                    seed,
                    vips,
                    vip_weight,
                    recharge: recharge == 1,
                    planner,
                    horizon_s,
                    metric: match metric {
                        0 => mule_workload::MetricSpec::Euclidean,
                        1 => mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Grid),
                        _ => mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Planar),
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spec_to_json_to_spec_is_identity(spec in spec()) {
        let compact = spec_to_json(&spec).to_json_string();
        let back = spec_from_body(compact.as_bytes())
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(&back, &spec, "compact roundtrip");

        let pretty = spec_to_json(&spec).to_pretty_string();
        let back_pretty = spec_from_body(pretty.as_bytes())
            .map_err(|e| TestCaseError::fail(format!("pretty parse failed: {e}")))?;
        prop_assert_eq!(&back_pretty, &spec, "pretty roundtrip");
    }

    #[test]
    fn equal_specs_hash_equal(spec in spec()) {
        let twin = spec.clone();
        prop_assert_eq!(spec.fingerprint(), twin.fingerprint());
        prop_assert_eq!(spec.canonical_string(), twin.canonical_string());
        // Hashing is stable across the JSON round trip too (the server
        // fingerprints the *parsed* spec).
        let reparsed = spec_from_body(spec_to_json(&spec).to_json_string().as_bytes()).unwrap();
        prop_assert_eq!(reparsed.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn unequal_specs_hash_unequal(a in spec(), b in spec()) {
        prop_assume!(a != b);
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
        prop_assert_ne!(a.canonical_string(), b.canonical_string());
    }

    #[test]
    fn single_field_mutations_change_the_fingerprint(base in spec(), delta in 1..1000u64) {
        let mutated = base.clone().with_seed(base.seed.wrapping_add(delta));
        prop_assert_ne!(base.fingerprint(), mutated.fingerprint());
        let mutated = base.clone().with_targets(base.targets + delta as usize);
        prop_assert_ne!(base.fingerprint(), mutated.fingerprint());
        let mutated = ScenarioSpec { recharge: !base.recharge, ..base.clone() };
        prop_assert_ne!(base.fingerprint(), mutated.fingerprint());
    }
}

/// Arbitrary bytes, up to 512 of them.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0..=255u8, 0..=512)
}

/// Bytes JSON is made of, weighted towards nesting and delimiters so the
/// parser gets past the first byte.
const JSON_CHARS: &[u8] = b"[[[{{{]]]}}}\"\"\"::,,,0123456789.eE+-truefalsn \\/ubt\n";

fn json_like() -> impl Strategy<Value = String> {
    prop::collection::vec(0..JSON_CHARS.len(), 0..=512)
        .prop_map(|indices| indices.into_iter().map(|i| JSON_CHARS[i] as char).collect())
}

/// Header lines a fuzzed request head carries next to `Content-Length`:
/// ordinary, empty-valued, colon-free, nameless, non-UTF-8, a second
/// length and a `Transfer-Encoding` the server does not implement.
const HEADER_LINES: &[&[u8]] = &[
    b"Host: localhost",
    b"Connection: close",
    b"X-Empty:",
    b"no colon here",
    b": no name",
    b"X-Bytes: \xff\xfe",
    b"Content-Length: 3",
    b"Transfer-Encoding: chunked",
];

/// A `Content-Length` value: plain (small, up to twice `MAX_BODY_BYTES`,
/// or within two bytes of it), signed, padded, overflowing, hex or
/// non-numeric.
fn content_length() -> impl Strategy<Value = String> {
    (0..9usize, 0..=2 * MAX_BODY_BYTES as u64).prop_map(|(form, n)| match form {
        0 => n.to_string(),
        1 => (n % 64).to_string(),
        2 => (MAX_BODY_BYTES as u64 - 2 + n % 5).to_string(),
        3 => format!("-{n}"),
        4 => format!("+{n}"),
        5 => format!(" {n} "),
        6 => format!("{n}00000000000000000000"),
        7 => format!("0x{n:x}"),
        _ => "abc".to_string(),
    })
}

/// A well-formed request line followed by fuzzed headers, a fuzzed
/// `Content-Length` and a body: short random bytes, or as many bytes as a
/// numeric length declares, so bodies at and past the limit arrive whole.
fn fuzzed_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(0..HEADER_LINES.len(), 0..=3),
        content_length(),
        prop::collection::vec(0..=255u8, 0..=64),
        0..2usize,
    )
        .prop_map(|(headers, length, body, whole)| {
            let body = match length.trim().parse::<usize>() {
                Ok(n) if whole == 1 => vec![b'x'; n],
                _ => body,
            };
            let mut raw = b"POST /v1/plan HTTP/1.1\r\n".to_vec();
            for i in headers {
                raw.extend_from_slice(HEADER_LINES[i]);
                raw.extend_from_slice(b"\r\n");
            }
            raw.extend_from_slice(format!("Content-Length: {length}\r\n\r\n").as_bytes());
            raw.extend_from_slice(&body);
            raw
        })
}

/// A spec object whose fields hold values of every JSON type, including
/// negative, fractional and out-of-range numbers.
fn spec_like() -> impl Strategy<Value = String> {
    const KEYS: &[&str] = &[
        "targets",
        "mules",
        "seed",
        "vips",
        "vip_weight",
        "recharge",
        "planner",
        "horizon_s",
        "metric",
    ];
    const VALUES: &[&str] = &[
        "0",
        "12",
        "-1",
        "1.5",
        "1e308",
        "4294967296",
        "18446744073709551616",
        "true",
        "null",
        "\"b-tctp\"",
        "\"road-grid\"",
        "\"\"",
        "[]",
        "{}",
    ];
    prop::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..=6).prop_map(|fields| {
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("\"{}\": {}", KEYS[k], VALUES[v]))
            .collect();
        format!("{{{}}}", body.join(", "))
    })
}

/// Reads one request from `raw` held in memory and checks the framing
/// properties: an in-memory reader cannot fail, so no `Io` error, and an
/// accepted body never exceeds the limit.
fn check_framing(raw: &[u8]) -> Result<(), TestCaseError> {
    match read_request(&mut &raw[..]) {
        Err(HttpError::Io(e)) => Err(TestCaseError::fail(format!("i/o error in memory: {e}"))),
        Ok(Some(req)) => {
            prop_assert!(
                req.body.len() <= MAX_BODY_BYTES,
                "body of {} bytes",
                req.body.len()
            );
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Parses `body` as a spec: every rejection must be `BadRequest`, which
/// the server answers with a 400.
fn check_spec(body: &[u8]) -> Result<(), TestCaseError> {
    if let Err(e) = spec_from_body(body) {
        prop_assert!(matches!(e, ApiError::BadRequest(_)), "{e}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_break_request_framing(raw in bytes()) {
        check_framing(&raw)?;
    }

    #[test]
    fn fuzzed_heads_never_break_request_framing(raw in fuzzed_request()) {
        check_framing(&raw)?;
    }

    #[test]
    fn arbitrary_input_never_panics_the_json_parser(raw in bytes(), text in json_like()) {
        let _ = json::parse(&String::from_utf8_lossy(&raw));
        let _ = json::parse(&text);
    }

    #[test]
    fn malformed_specs_are_bad_requests(
        raw in bytes(),
        text in json_like(),
        doc in spec_like(),
    ) {
        check_spec(&raw)?;
        check_spec(text.as_bytes())?;
        check_spec(doc.as_bytes())?;
    }
}
