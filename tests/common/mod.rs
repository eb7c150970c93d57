//! Helpers shared by the campaign integration tests.

use std::collections::BTreeMap;
use std::path::Path;

/// Asserts that `out` holds exactly the files of `tests/fixtures/<fixture>`
/// (same names, same bytes) — the committed record of a campaign's
/// checkpoint lines and artifacts.
pub fn assert_matches_fixture(out: &Path, fixture: &str) {
    let fixture_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(fixture);
    let files = |dir: &Path| -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("reading {dir:?}: {e}"))
            .map(|entry| {
                let path = entry.expect("directory entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("readable file"))
            })
            .collect()
    };
    let (got, want) = (files(out), files(&fixture_dir));
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "file names under {out:?} differ from fixture {fixture}"
    );
    for (name, bytes) in &want {
        assert!(
            got[name] == *bytes,
            "{name} differs from fixture {fixture}; got:\n{}",
            String::from_utf8_lossy(&got[name])
        );
    }
}
