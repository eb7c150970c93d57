// Golden JSON corpus helpers and decoder fuzzing inputs, shared by
// `tests/json_corpus.rs` and the service store's unit tests (which reach
// its private entry types). Included with `include!`, so this file
// holds items only.
//
// A corpus is plain text built from blocks: `== <name>` headers, each
// followed by a sample's compact and pretty encodings, or by one decode
// input (as a Rust string literal) and its outcome — `-> err`, or
// `-> ok` with the decoded value re-encoded compactly.

/// Appends one sample's compact and pretty encodings.
fn corpus_sample<T: serde::Serialize>(out: &mut String, name: &str, value: &T) {
    let compact = serde_json::to_string(value).expect("compact encoding");
    let pretty = serde_json::to_string_pretty(value).expect("pretty encoding");
    out.push_str(&format!(
        "== {name} compact\n{compact}\n== {name} pretty\n{pretty}\n"
    ));
}

/// Appends one decode case: the input and what it decoded to as `T`.
fn corpus_decode<T: serde::Serialize + serde::Deserialize>(
    out: &mut String,
    name: &str,
    input: &str,
) {
    let outcome = match serde_json::from_str::<T>(input) {
        Ok(v) => format!("ok {}", serde_json::to_string(&v).expect("re-encoding")),
        Err(_) => "err".to_string(),
    };
    out.push_str(&format!("== {name}\n{input:?}\n-> {outcome}\n"));
}

/// Number spellings covering every class the lexer knows (unsigned,
/// negative, float, out of range, and malformed).
const CORPUS_NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-1",
    "7",
    "255",
    "256",
    "4294967296",
    "1.0",
    "1e2",
    "-1.5e-3",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "-9223372036854775808",
    "-9223372036854775809",
    "01",
    "-",
    "1.",
    "1e",
    "+1",
    ".5",
    "1.5.5",
    "-0.0",
    "1e400",
];

/// Edge inputs derived from the compact encoding of one object sample:
/// each field dropped or nulled, unknown fields (valid and invalid),
/// duplicate keys, an escaped key, every number class in the first
/// integer field, trailing bytes, non-objects, and nesting at and past
/// the 128-level limit. Returns `(case name, input)` pairs.
fn corpus_object_edges(compact: &str) -> Vec<(String, String)> {
    use serde::Value;
    let Ok(Value::Map(pairs)) = serde_json::from_str::<Value>(compact) else {
        panic!("object sample expected, got {compact}");
    };
    let encode = |pairs: Vec<(String, Value)>| serde_json::to_string(&Value::Map(pairs)).unwrap();
    let body = &compact[..compact.len() - 1];
    let mut edges = Vec::new();
    for (i, (key, _)) in pairs.iter().enumerate() {
        let mut dropped = pairs.clone();
        dropped.remove(i);
        edges.push((format!("drop:{key}"), encode(dropped)));
        let mut nulled = pairs.clone();
        nulled[i].1 = Value::Null;
        edges.push((format!("null:{key}"), encode(nulled)));
    }
    let unknown = Value::Seq(vec![
        Value::UInt(1),
        Value::Map(vec![("a".to_string(), Value::Null)]),
    ]);
    let mut with_unknown = pairs.clone();
    with_unknown.push(("zz_unknown".to_string(), unknown));
    edges.push(("unknown-field".to_string(), encode(with_unknown)));
    for (name, raw) in [
        ("unknown-invalid-array", "[1,]"),
        ("unknown-bad-escape", r#""\ud800""#),
        ("unknown-bad-keyword", "nul"),
    ] {
        edges.push((name.to_string(), format!(r#"{body},"zz_unknown":{raw}}}"#)));
    }
    for (name, depth) in [("depth-128", 127), ("depth-129", 128)] {
        let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        edges.push((name.to_string(), format!(r#"{body},"zz_unknown":{nest}}}"#)));
    }
    if let Some((first, _)) = pairs.first() {
        let mut dup_after = pairs.clone();
        dup_after.push((first.clone(), Value::Str("dup".to_string())));
        edges.push(("dup-later-ignored".to_string(), encode(dup_after)));
        let mut dup_before = pairs.clone();
        dup_before.insert(0, (first.clone(), Value::Str("dup".to_string())));
        edges.push(("dup-first-wins".to_string(), encode(dup_before)));
        let escaped = format!(r#"{{"\u{:04x}{}"#, first.as_bytes()[0], &compact[3..]);
        edges.push(("escaped-key".to_string(), escaped));
    }
    if let Some(at) = pairs.iter().position(|(_, v)| matches!(v, Value::UInt(_))) {
        for number in CORPUS_NUMBERS {
            let mut marked = pairs.clone();
            marked[at].1 = Value::Str("@@".to_string());
            let text = encode(marked).replace(r#""@@""#, number);
            edges.push((format!("number:{}={number}", pairs[at].0), text));
        }
    }
    edges.push(("trailing-junk".to_string(), format!("{compact} x")));
    edges.push(("trailing-value".to_string(), format!("{compact}{{}}")));
    edges.push(("trailing-ws".to_string(), format!("{compact} \n\t\r")));
    edges.push(("leading-ws".to_string(), format!(" \n{compact}")));
    edges.push(("truncated".to_string(), body.to_string()));
    for other in ["{}", "[]", "null", "0", r#""s""#, "[{}]", ""] {
        edges.push((format!("other:{other}"), other.to_string()));
    }
    edges
}

/// Appends a sample's encodings plus every edge input derived from it,
/// decoded as `T`.
fn corpus_object<T: serde::Serialize + serde::Deserialize>(
    out: &mut String,
    name: &str,
    value: &T,
) {
    corpus_sample(out, name, value);
    let compact = serde_json::to_string(value).unwrap();
    for (case, input) in corpus_object_edges(&compact) {
        corpus_decode::<T>(out, &format!("{name} {case}"), &input);
    }
}

/// Asserts `rendered` equals the committed corpus text, naming the first
/// differing line.
fn assert_corpus_matches(rendered: &str, committed: &str, file: &str) {
    for (i, (got, want)) in rendered.lines().zip(committed.lines()).enumerate() {
        assert!(
            got == want,
            "{file}:{} differs from the golden corpus\n got: {got}\nwant: {want}",
            i + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        committed.lines().count(),
        "{file}: line count differs from the golden corpus"
    );
}

/// Asserts that no type `decode` tries accepts a strict prefix of the
/// corpus line `line`, or `line` with a 100 000-deep run of `[` (or of
/// `{"a":`) in an unknown field. `decode` returns how many types
/// accepted its input; a stack overflow would abort the test.
fn assert_corpus_line_rejects_damage(line: &str, decode: impl Fn(&[u8]) -> usize) {
    for cut in 0..line.len() {
        let prefix = &line.as_bytes()[..cut];
        assert_eq!(
            decode(prefix),
            0,
            "truncated line {:?} decoded",
            String::from_utf8_lossy(prefix)
        );
    }
    let body = &line[..line.len() - 1];
    for opener in ["[", r#"{"a":"#] {
        let hostile = format!(r#"{body},"zz_unknown":{}}}"#, opener.repeat(100_000));
        assert_eq!(decode(hostile.as_bytes()), 0, "deep nesting decoded");
    }
}

/// `line` with one byte overwritten, or inserted when `insert` is set or
/// `at` (taken modulo the length plus one) is the end.
fn corpus_line_mutation(line: &str, at: usize, byte: u8, insert: bool) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    if insert || at == bytes.len() {
        bytes.insert(at, byte);
    } else {
        bytes[at] = byte;
    }
    bytes
}
