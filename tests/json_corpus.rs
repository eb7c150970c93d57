//! The golden JSON corpus: the exact compact and pretty text of every
//! serialized type, and which edge inputs each type accepts or rejects.
//!
//! `tests/fixtures/json_corpus.txt` is the committed record. Every
//! sample must encode to the same bytes, and every edge input (missing,
//! null, unknown and duplicate fields, each number class, trailing
//! bytes, nesting at and past the limit) must decode to the same value
//! or fail the same way. The store's private entry types keep their own
//! corpus next to them (`crates/service/src/store.rs`).
//!
//! `tests/fixtures/store_layout.txt` records one more input in the same
//! block format: the path (relative to the store root) and exact bytes of
//! every file a store root holds after one entry of each kind is written
//! through the public API.

use std::collections::{BTreeMap, BTreeSet};

use act_campaign::{Checkpoint, Coverage};
use act_fpc::FpcStats;
use act_runtime::{FaultEvent, FaultPlan, Trace, TraceArtifact};
use act_service::{
    FpcCache, Response, ScrubReport, ServeFaultEvent, ServeFaultPlan, StatsBody, StoreKey,
    StoredVerdict, TowerKey, TowerStore, VerdictStore,
};
use act_topology::{ColorSet, Complex};
use fact::RunReport;
use serde::{Deserialize, Serialize, Value};

include!("common/json_corpus.rs");

const CORPUS: &str = include_str!("fixtures/json_corpus.txt");

/// A unit struct: encodes as `null`, decodes from any value.
#[derive(Serialize, Deserialize)]
struct UnitProbe;

/// A 2-tuple struct: an array of its fields.
#[derive(Serialize, Deserialize)]
struct PairProbe(u32, String);

/// A newtype struct: transparent over its field.
#[derive(Serialize, Deserialize)]
struct NewtypeProbe(u64);

fn stats_body() -> StatsBody {
    StatsBody {
        hits: 12,
        misses: 3,
        engine_runs: 3,
        merkle_root: format!("{:032x}", 0xabcdef_u128),
        merkle_entries: 4,
        workers: 2,
        ..StatsBody::default()
    }
}

fn fpc_stats() -> FpcStats {
    FpcStats {
        spec: "fpc:32:8:berserk".to_string(),
        runs: 200,
        seed: 7,
        agreement_failures: 0,
        termination_failures: 1,
        rounds_p50: 4,
        rounds_p99: 9,
        rounds_max: 11,
        mean_rounds_milli: 4_250,
        fingerprint: "00ff00ff00ff00ff".to_string(),
    }
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut proof = Response::solve(9, "solvable", 2, 40, "engine", true);
    proof.proof_entry = Some(format!("{:032x}", 1));
    proof.proof_file = Some(format!("{:032x}", 2));
    proof.proof_path = Some(vec!["l:00ff".to_string(), "r:ff00".to_string()]);
    proof.merkle_root = Some(format!("{:032x}", 3));
    let scrub = ScrubReport {
        checked: 5,
        corrupt: 1,
        repaired: 1,
        quarantined: 0,
        refreshed: 2,
    };
    vec![
        (
            "solve",
            Response::solve(7, "solvable", 1, 12, "store", true),
        ),
        (
            "solve-timed-out",
            Response::solve(0, "timed-out", 3, 0, "engine", false),
        ),
        ("solve-proof", proof),
        (
            "error",
            Response::error(4, 2, "bad JSON: \"quoted\"\n\ttab \\ \u{1} é"),
        ),
        ("backpressure", Response::backpressure(5, 30)),
        ("root", Response::root(1, u128::MAX, 17)),
        ("entries", Response::entries(2, &[(1, 2), (u128::MAX, 0)])),
        (
            "fetch",
            Response::fetch(3, Some(r#"{"format":1}"#.to_string())),
        ),
        ("fetch-miss", Response::fetch(3, None)),
        ("replicate", Response::replicate(6, false)),
        ("scrub", Response::scrub(8, scrub, 99)),
        ("sync", Response::sync(10, 4, 5)),
        ("fpc", Response::fpc(11, fpc_stats(), "engine")),
        ("stats", Response::stats(12, stats_body())),
        ("shutdown", Response::shutdown(u64::MAX)),
    ]
}

fn checkpoint() -> Checkpoint {
    let coverage = Coverage {
        runs: 10,
        steps: 345,
        live: 9,
        violations: 1,
        injected_violations: 1,
        deduped: 0,
        faulted_runs: 2,
        faults_applied: 5,
        facets: BTreeSet::from([3, 17, u64::MAX]),
        invariant_violations: BTreeMap::from([
            ("fair-liveness".to_string(), 1),
            ("trace-wellformed".to_string(), 0),
        ]),
    };
    Checkpoint {
        schema: 1,
        fingerprint: "0123456789abcdef".to_string(),
        cursor: 10,
        done: false,
        coverage,
        artifact_sigs: vec!["sig-a".to_string()],
        artifacts_written: 1,
    }
}

fn traces() -> Vec<(&'static str, Trace)> {
    let bare = Trace {
        participants: ColorSet::full(3),
        steps: vec![0, 1, 2, 0, 1, 2],
        correct: None,
        crash_budgets: None,
        fault_plan: None,
    };
    let adversarial = Trace {
        participants: ColorSet::from_indices([0, 1, 2]),
        steps: vec![2, 0, 0, 1, 2, 2, 0],
        correct: Some(ColorSet::from_indices([0, 2])),
        crash_budgets: Some(vec![None, Some(1), None]),
        fault_plan: None,
    };
    let plan = FaultPlan {
        seed: 0x2a,
        events: vec![
            FaultEvent::Crash {
                step: 3,
                process: 1,
            },
            FaultEvent::Stall {
                process: 0,
                from_step: 1,
                duration: 4,
            },
            FaultEvent::Perturb { step: 5, offset: 2 },
        ],
    };
    let faulted = adversarial.clone().with_fault_plan(plan);
    vec![
        ("bare", bare),
        ("adversarial", adversarial),
        ("faulted", faulted),
    ]
}

fn run_report() -> RunReport {
    let event = |pairs: Vec<(&str, Value)>| {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    RunReport {
        schema_version: 1,
        command: "solve".to_string(),
        model: "t-res:3:1".to_string(),
        ok: true,
        verdict: Some("solvable".to_string()),
        counters: BTreeMap::from([("solver.done".to_string(), 1), ("tower".to_string(), 2)]),
        timings_us: BTreeMap::from([("solver.done".to_string(), 1234)]),
        events: vec![
            event(vec![
                ("ev", Value::Str("solver.done".to_string())),
                ("seq", Value::UInt(0)),
                ("elapsed_us", Value::UInt(1234)),
            ]),
            event(vec![
                ("ev", Value::Str("floats".to_string())),
                ("seq", Value::UInt(1)),
                ("half", Value::Float(0.5)),
                ("whole", Value::Float(3.0)),
                ("neg_zero", Value::Float(-0.0)),
                ("big", Value::Float(1e21)),
                ("tiny", Value::Float(1e-7)),
                ("nan", Value::Float(f64::NAN)),
                ("inf", Value::Float(f64::NEG_INFINITY)),
                ("neg", Value::Int(-42)),
                ("min", Value::Int(i64::MIN)),
                ("max", Value::UInt(u64::MAX)),
            ]),
            event(vec![
                ("ev", Value::Str("text".to_string())),
                ("seq", Value::UInt(2)),
                (
                    "s",
                    Value::Str("\"\\/\u{8}\u{c}\n\r\t\u{0}\u{1f}\u{7f}é😀".to_string()),
                ),
                ("empty", Value::Seq(vec![])),
                ("empty_map", Value::Map(vec![])),
                (
                    "nested",
                    Value::Seq(vec![
                        Value::Null,
                        Value::Bool(false),
                        Value::Seq(vec![Value::Bool(true)]),
                    ]),
                ),
            ]),
        ],
    }
}

fn serve_fault_plan() -> ServeFaultPlan {
    ServeFaultPlan {
        seed: 9,
        events: vec![
            ServeFaultEvent::DropConnection { at_request: 1 },
            ServeFaultEvent::DelayReply {
                at_request: 2,
                delay_ms: 50,
            },
            ServeFaultEvent::CloseAfterReply { at_request: 3 },
            ServeFaultEvent::TornWrite {
                at_put: 1,
                keep_bytes: 20,
            },
            ServeFaultEvent::KillPeer { at_request: 4 },
        ],
    }
}

/// Inputs decoded into every scalar and container target.
const SCALAR_INPUTS: &[&str] = &[
    "true",
    "false",
    "null",
    "nul",
    "truex",
    r#""abc""#,
    r#""é\n\"\\\/\b\f\r\t""#,
    r#""\u0000\u001F""#,
    r#""\ud83d""#,
    r#""\u12""#,
    r#""\u+abc""#,
    r#""\x""#,
    r#""unterminated"#,
    "\"raw é 😀 \t\"",
    r#""""#,
    "",
    "   ",
    "[]",
    "[1,2,2]",
    "[1,]",
    "[1 2]",
    " [ 1 , 2 ] ",
    "[null,1]",
    "[-0]",
    "[[1]]",
    "{}",
    r#"{"a":1,"b":2}"#,
    r#"{"a":1,"a":2}"#,
    r#"{"a":1,}"#,
    r#"{"a" 1}"#,
    r#"{1:2}"#,
    r#"{"a":null}"#,
    "[1]x",
];

fn render_corpus() -> String {
    let mut out = String::new();
    // Every reply shape's bytes; the edge inputs on one plain reply and
    // on the two that carry a nested object and a list.
    for (name, response) in responses() {
        let full = matches!(name, "solve" | "fpc" | "entries");
        let name = format!("Response/{name}");
        if full {
            corpus_object(&mut out, &name, &response);
        } else {
            corpus_sample(&mut out, &name, &response);
        }
    }
    corpus_object(&mut out, "Checkpoint", &checkpoint());
    corpus_object(&mut out, "Coverage", &checkpoint().coverage);
    for (name, trace) in traces() {
        corpus_object(&mut out, &format!("Trace/{name}"), &trace);
        let artifact = TraceArtifact {
            schema_version: 1,
            reason: "liveness-failure".to_string(),
            max_steps: 64,
            trace,
        };
        corpus_object(&mut out, &format!("TraceArtifact/{name}"), &artifact);
    }
    corpus_object(
        &mut out,
        "FaultPlan",
        &traces()[2].1.fault_plan.clone().unwrap(),
    );
    corpus_object(&mut out, "ServeFaultPlan", &serve_fault_plan());
    corpus_object(&mut out, "FpcStats", &fpc_stats());
    corpus_object(&mut out, "RunReport", &run_report());
    corpus_object(&mut out, "StatsBody", &stats_body());

    corpus_sample(&mut out, "UnitProbe", &UnitProbe);
    corpus_sample(&mut out, "PairProbe", &PairProbe(3, "x".to_string()));
    corpus_sample(&mut out, "NewtypeProbe", &NewtypeProbe(5));
    let deep = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let unit_inputs = [
        "null".to_string(),
        "{}".to_string(),
        r#"[1,{"a":2}]"#.to_string(),
        "[1,]".to_string(),
        "5".to_string(),
        deep(128),
        deep(129),
    ];
    for input in &unit_inputs {
        corpus_decode::<UnitProbe>(&mut out, "UnitProbe", input);
    }
    for input in [
        r#"[1,"a"]"#.to_string(),
        r#"[1,"a",3]"#.to_string(),
        format!(r#"[1,"a",{}]"#, deep(127)),
        format!(r#"[1,"a",{}]"#, deep(128)),
        r#"[1,"a",]"#.to_string(),
        r#"[1,"a",nul]"#.to_string(),
        "[1]".to_string(),
        r#"["a",1]"#.to_string(),
        r#"{"0":1,"1":"a"}"#.to_string(),
        "null".to_string(),
    ] {
        corpus_decode::<PairProbe>(&mut out, "PairProbe", &input);
    }
    for number in CORPUS_NUMBERS {
        corpus_decode::<NewtypeProbe>(&mut out, "NewtypeProbe", number);
        corpus_decode::<ColorSet>(&mut out, "ColorSet", number);
    }

    let inputs = SCALAR_INPUTS
        .iter()
        .chain(CORPUS_NUMBERS)
        .map(|s| s.to_string())
        .chain([
            deep(128),
            deep(129),
            format!("[{}]", "{\"a\":".repeat(64) + "1" + &"}".repeat(64)),
        ]);
    for input in inputs {
        corpus_decode::<u8>(&mut out, "u8", &input);
        corpus_decode::<u32>(&mut out, "u32", &input);
        corpus_decode::<u64>(&mut out, "u64", &input);
        corpus_decode::<i8>(&mut out, "i8", &input);
        corpus_decode::<i64>(&mut out, "i64", &input);
        corpus_decode::<f64>(&mut out, "f64", &input);
        corpus_decode::<f32>(&mut out, "f32", &input);
        corpus_decode::<bool>(&mut out, "bool", &input);
        corpus_decode::<String>(&mut out, "String", &input);
        corpus_decode::<Option<u32>>(&mut out, "Option<u32>", &input);
        corpus_decode::<Vec<u32>>(&mut out, "Vec<u32>", &input);
        corpus_decode::<Vec<Option<u8>>>(&mut out, "Vec<Option<u8>>", &input);
        corpus_decode::<BTreeSet<u64>>(&mut out, "BTreeSet<u64>", &input);
        corpus_decode::<BTreeMap<String, u64>>(&mut out, "BTreeMap<String,u64>", &input);
        corpus_decode::<Value>(&mut out, "Value", &input);
    }
    out
}

#[test]
fn every_type_encodes_and_decodes_as_the_golden_corpus_records() {
    assert_corpus_matches(&render_corpus(), CORPUS, "tests/fixtures/json_corpus.txt");
}

/// The compact encoding of every object sample in the corpus.
fn corpus_lines() -> Vec<String> {
    fn line<T: Serialize>(lines: &mut Vec<String>, value: &T) {
        lines.push(serde_json::to_string(value).unwrap());
    }
    let mut lines = Vec::new();
    for (_, response) in responses() {
        line(&mut lines, &response);
    }
    line(&mut lines, &checkpoint());
    for (_, trace) in traces() {
        line(&mut lines, &trace);
    }
    line(&mut lines, &serve_fault_plan());
    line(&mut lines, &fpc_stats());
    line(&mut lines, &run_report());
    lines
}

/// Decodes `bytes` as every corpus type and as a `Value`; returns how
/// many accepted it. Any panic fails the calling test.
fn decode_as_every_type(bytes: &[u8]) -> usize {
    fn ok<T: Deserialize>(bytes: &[u8]) -> usize {
        usize::from(serde_json::from_slice::<T>(bytes).is_ok())
    }
    ok::<Response>(bytes)
        + ok::<StatsBody>(bytes)
        + ok::<ScrubReport>(bytes)
        + ok::<Checkpoint>(bytes)
        + ok::<Coverage>(bytes)
        + ok::<Trace>(bytes)
        + ok::<TraceArtifact>(bytes)
        + ok::<FaultPlan>(bytes)
        + ok::<ServeFaultPlan>(bytes)
        + ok::<FpcStats>(bytes)
        + ok::<RunReport>(bytes)
        + ok::<UnitProbe>(bytes)
        + ok::<PairProbe>(bytes)
        + ok::<NewtypeProbe>(bytes)
        + ok::<Value>(bytes)
}

const STORE_LAYOUT: &str = include_str!("fixtures/store_layout.txt");

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-store-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The verdict entries of the layout sample. Keys are literals, so an
/// engine-schema bump does not move the fixture.
fn layout_verdicts() -> Vec<(StoreKey, StoredVerdict)> {
    let key = |level| StoreKey {
        model: "t-res:3:1".to_string(),
        task: "set-consensus:3:1".to_string(),
        level,
        engine_schema: 4,
    };
    let solvable = StoredVerdict {
        verdict: "solvable".to_string(),
        iterations: 2,
        witness: vec![(0, 1), (3, 2)],
    };
    let no_map = StoredVerdict {
        verdict: "no-map".to_string(),
        iterations: 3,
        witness: Vec::new(),
    };
    vec![(key(2), solvable), (key(3), no_map)]
}

fn layout_tower() -> (TowerKey, Complex) {
    let key = TowerKey {
        affine_hash: 0x1234,
        inputs_hash: u128::MAX,
        level: 1,
    };
    (key, Complex::standard(2))
}

fn layout_fpc() -> (act_fpc::FpcSpec, FpcStats) {
    let spec = act_fpc::FpcSpec::parse("fpc:32:8:berserk").unwrap();
    let stats = FpcStats {
        spec: spec.canonical_string(),
        ..fpc_stats()
    };
    (spec, stats)
}

/// Every file under `root` as `== <relative path>` plus its bytes, in
/// path order.
fn render_store_files(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    let mut named: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let name = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read_to_string(path).unwrap())
        })
        .collect();
    named.sort();
    let mut out = String::new();
    for (name, bytes) in named {
        out.push_str(&format!("== {name}\n{bytes}\n"));
    }
    out
}

#[test]
fn a_store_root_holds_the_recorded_files_byte_for_byte() {
    let root = temp_root("write");
    let verdicts = VerdictStore::open(&root).unwrap();
    for (key, verdict) in layout_verdicts() {
        assert!(verdicts.put(&key, &verdict));
    }
    let (tower_key, complex) = layout_tower();
    TowerStore::open(&root).unwrap().put(&tower_key, &complex);
    let (spec, stats) = layout_fpc();
    FpcCache::open(&root)
        .unwrap()
        .put(&spec, stats.runs, stats.seed, &stats);
    let rendered = render_store_files(&root);
    let file = "tests/fixtures/store_layout.txt";
    assert_corpus_matches(&rendered, STORE_LAYOUT, file);
    assert!(
        rendered == STORE_LAYOUT,
        "{file} differs in its line endings"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_recorded_store_root_loads_every_entry() {
    let root = temp_root("load");
    for block in STORE_LAYOUT.split("== ").skip(1) {
        let (name, bytes) = block.split_once('\n').unwrap();
        let path = root.join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    }
    let verdicts = VerdictStore::open(&root).unwrap();
    assert_eq!(verdicts.merkle_len(), 2);
    for (key, verdict) in layout_verdicts() {
        assert_eq!(verdicts.get(&key), Some(verdict));
    }
    let (tower_key, complex) = layout_tower();
    assert_eq!(
        TowerStore::open(&root).unwrap().get(&tower_key),
        Some(complex)
    );
    let (spec, stats) = layout_fpc();
    assert_eq!(
        FpcCache::open(&root)
            .unwrap()
            .get(&spec, stats.runs, stats.seed),
        Some(stats)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn damaged_corpus_lines_are_errors_not_panics_or_stack_overflows() {
    for line in corpus_lines() {
        assert_corpus_line_rejects_damage(&line, decode_as_every_type);
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..200)
    ) {
        decode_as_every_type(&bytes);
    }

    #[test]
    fn mutated_corpus_lines_never_panic_a_decoder(
        mutation in (0usize..64, 0usize..4_000, 0u8..=255, 0u8..=1)
    ) {
        // One byte overwritten or inserted somewhere in a real line:
        // reaches the field and element decoders, which random bytes
        // almost never do.
        let (which, at, byte, insert) = mutation;
        let lines = corpus_lines();
        let bytes = corpus_line_mutation(&lines[which % lines.len()], at, byte, insert == 1);
        decode_as_every_type(&bytes);
    }
}
