//! The canonical tower key is computed by encoding each color-permuted
//! image directly, without building it. These tests pin it against the
//! materializing definition (build `π · K` for every `π ∈ S_n`, encode,
//! keep the smallest) on the complexes the solver actually keys: `R_A` of
//! every zoo model at `n ≤ 4` — asymmetric `fig5b`, `custom:` and `alpha:`
//! tables included — its `ℓ ≤ 2` towers at `n = 3`, and the rainbow
//! inputs. Any drift would move every persisted tower's store key.

use act_affine::fair_affine_task;
use act_topology::{canonical_complex, canonical_pair_hashes, permute_complex, ColorPerm, Complex};
use fact::{affine_domain, ModelSpec, TaskSpec};

fn materialized_canonical(c: &Complex) -> (Vec<u8>, ColorPerm) {
    let mut best: Option<(Vec<u8>, ColorPerm)> = None;
    for perm in ColorPerm::all(c.num_processes()) {
        let bytes = permute_complex(c, &perm).encode_portable();
        if best.as_ref().is_none_or(|(b, _)| bytes < *b) {
            best = Some((bytes, perm));
        }
    }
    best.expect("S_n is non-empty")
}

fn materialized_pair_hashes(a: &Complex, b: &Complex) -> (u128, u128, ColorPerm) {
    let mut best: Option<(Vec<u8>, Vec<u8>, ColorPerm)> = None;
    for perm in ColorPerm::all(a.num_processes()) {
        let ba = permute_complex(a, &perm).encode_portable();
        let bb = permute_complex(b, &perm).encode_portable();
        if best
            .as_ref()
            .is_none_or(|(xa, xb, _)| (&ba, &bb) < (xa, xb))
        {
            best = Some((ba, bb, perm));
        }
    }
    let (ba, bb, perm) = best.expect("S_n is non-empty");
    (
        act_obs::content_hash128(&ba),
        act_obs::content_hash128(&bb),
        perm,
    )
}

fn assert_canonical_matches(c: &Complex, what: &str) {
    let (image, perm) = canonical_complex(c);
    let (bytes, want_perm) = materialized_canonical(c);
    assert_eq!(perm, want_perm, "{what}: canonical permutation");
    assert!(image.encode_portable() == bytes, "{what}: canonical image");
}

fn assert_pair_matches(a: &Complex, b: &Complex, what: &str) {
    assert_eq!(
        canonical_pair_hashes(a, b),
        materialized_pair_hashes(a, b),
        "{what}: canonical pair key"
    );
}

fn rainbow_inputs(n: usize) -> Vec<Complex> {
    (1..n)
        .map(|k| {
            TaskSpec::set_consensus(n, k)
                .unwrap()
                .task()
                .rainbow_inputs()
        })
        .collect()
}

const ZOO: &[&str] = &[
    "wait-free:2",
    "wait-free:3",
    "t-res:3:1",
    "k-of:3:1",
    "k-of:3:2",
    "fig5b",
    "custom:3:{p1};{p2,p3}",
    "custom:3:{p1,p2};{p2,p3}",
    "custom:3:{p2};{p1,p3}",
    // Asymmetric α tables (digit i is α of the set with bitmask i).
    "alpha:3:01111122",
    "alpha:3:01121112",
    "alpha:3:00011112",
    "wait-free:4",
    "t-res:4:1",
    "t-res:4:2",
    "k-of:4:1",
    "k-of:4:2",
    "custom:4:{p1};{p2,p3,p4}",
];

#[test]
fn r_a_keys_match_the_materializing_oracle_across_the_zoo() {
    for spec in ZOO {
        let model = ModelSpec::parse(spec, false).unwrap();
        let n = model.num_processes();
        let r_a = fair_affine_task(&model.agreement_function());
        assert_canonical_matches(r_a.complex(), spec);
        for inputs in rainbow_inputs(n) {
            assert_pair_matches(r_a.complex(), &inputs, spec);
        }
    }
}

#[test]
fn tower_and_input_keys_match_the_materializing_oracle_at_n3() {
    for spec in ZOO
        .iter()
        .filter(|s| ModelSpec::parse(s, false).unwrap().num_processes() == 3)
    {
        let r_a = fair_affine_task(&ModelSpec::parse(spec, false).unwrap().agreement_function());
        for inputs in rainbow_inputs(3) {
            assert_canonical_matches(&inputs, "rainbow inputs");
            for level in 1..=2 {
                let tower = affine_domain(&r_a, &inputs, level);
                let what = format!("{spec} at ℓ = {level}");
                assert_canonical_matches(&tower, &what);
                assert_pair_matches(&tower, &inputs, &what);
            }
        }
    }
}
