//! Sperner-lemma impossibility certificates.
//!
//! Backtracking can *find* maps, and exhausts small unsolvable instances,
//! but parity-type impossibilities (the heart of the ACT lower bounds) are
//! invisible to local consistency: the search space explodes. For the key
//! case — `(n−1)`-set consensus over the rainbow input — unsolvability
//! follows from the chromatic Sperner lemma, whose *preconditions* are
//! checkable on the concrete domain complex:
//!
//! 1. the domain is a pure `(n−1)`-dimensional chromatic pseudomanifold
//!    subdividing the input simplex: every `(n−2)`-face lies in exactly
//!    two facets, except boundary faces (those whose carrier misses some
//!    process), which lie in exactly one;
//! 2. any carried map induces a Sperner labeling: a vertex's decided value
//!    is a proposal of its carrier, i.e. a *color of its carrier*.
//!
//! Under (1) and (2), Sperner's lemma yields an odd — hence non-zero —
//! number of rainbow facets (all `n` values decided), which violates
//! `(n−1)`-agreement. So no carried map exists, at *any* subdivision
//! depth whose domain satisfies (1).
//!
//! The checker also computationally confirms the parity statement itself
//! on the two canonical labelings (each has an odd number of rainbow
//! facets), tying the certificate back to an executable check.
//!
//! Both the precondition and the parity counts come from one pass over the
//! facets ([`scan`]): every `(n−2)`-face becomes a fixed-width row of
//! vertex ids, a radix sort brings the copies of each face together, and
//! the canonical labels are read off each vertex's carrier colors, so
//! nothing is allocated per face or per vertex.

use std::collections::HashMap;

use act_topology::{ColorSet, Complex, ProcessId, VertexId};

/// Whether `domain` is a pure chromatic `(n−1)`-pseudomanifold whose
/// boundary faces are exactly those with incomplete carriers — the shape
/// of a genuine subdivision of the standard simplex (precondition of the
/// Sperner certificate). Every vertex's carrier must also contain its own
/// color, as in every chromatic subdivision.
pub fn is_subdivided_simplex(domain: &Complex) -> bool {
    scan(domain).is_some()
}

/// The rainbow-facet counts of the first-color and own-color labelings,
/// or `None` when `domain` is not a subdivided simplex
/// ([`is_subdivided_simplex`]) — the precondition and the parity check in
/// one pass over the facets.
fn scan(domain: &Complex) -> Option<(usize, usize)> {
    let n = domain.num_processes();
    let full = ColorSet::full(n);
    if domain.is_void() {
        return None;
    }
    // Every (n−2)-face — a facet without one of its vertices — as a row
    // of n − 1 vertex ids.
    let width = n - 1;
    let facets = domain.facets();
    let mut rows: Vec<u32> = Vec::with_capacity(facets.len() * n * width);
    let mut first = 0;
    for facet in facets {
        let vertices = facet.vertices();
        if vertices.len() != n {
            return None;
        }
        let (mut colors, mut first_labels) = (ColorSet::EMPTY, ColorSet::EMPTY);
        for &v in vertices {
            let seen = domain.base_colors_of_vertex(v);
            let color = domain.color(v);
            if !seen.contains(color) {
                return None;
            }
            colors = colors.with(color);
            first_labels = first_labels.with(seen.min().expect("carriers are non-empty"));
        }
        if colors.len() != n {
            return None;
        }
        first += usize::from(first_labels == full);
        for slot in 0..n {
            let face = vertices[..slot].iter().chain(&vertices[slot + 1..]);
            rows.extend(face.map(|v| v.index() as u32));
        }
    }
    // Own colors make every chromatic facet rainbow.
    let own = facets.len();
    if width == 0 {
        return Some((first, own));
    }
    let row = |r: u32| &rows[r as usize * width..][..width];
    // An LSD radix sort, one counting sort per column, brings the copies
    // of each face together.
    let count = u32::try_from(rows.len() / width).expect("face count fits in u32");
    let mut order: Vec<u32> = (0..count).collect();
    let mut sorted = vec![0; order.len()];
    let mut start = vec![0usize; domain.num_vertices() + 1];
    for column in (0..width).rev() {
        start.fill(0);
        for &r in &order {
            start[row(r)[column] as usize + 1] += 1;
        }
        for v in 1..start.len() {
            start[v] += start[v - 1];
        }
        for &r in &order {
            let v = row(r)[column] as usize;
            sorted[start[v]] = r;
            start[v] += 1;
        }
        std::mem::swap(&mut order, &mut sorted);
    }
    // Each run of equal rows is one face; its length is the face's facet
    // incidence count.
    let pseudomanifold = order.chunk_by(|&a, &b| row(a) == row(b)).all(|run| {
        let seen = row(run[0]).iter().fold(ColorSet::EMPTY, |acc, &v| {
            acc.union(domain.base_colors_of_vertex(VertexId::from_index(v as usize)))
        });
        run.len() == if seen == full { 2 } else { 1 }
    });
    pseudomanifold.then_some((first, own))
}

/// A Sperner labeling of the domain: one process (color) per vertex,
/// constrained to the colors of the vertex's carrier.
pub type SpernerLabeling = HashMap<usize, ProcessId>;

/// Generates the "first-color" Sperner labeling (every vertex labeled with
/// the smallest color of its carrier) — a canonical valid labeling used to
/// exercise the parity check.
pub fn first_color_labeling(domain: &Complex) -> SpernerLabeling {
    domain
        .used_vertices()
        .into_iter()
        .map(|v| {
            let carrier = domain.base_colors_of_vertex(v);
            (v.index(), carrier.min().expect("carriers are non-empty"))
        })
        .collect()
}

/// The "own-color-if-possible" labeling: a vertex takes its own color when
/// the carrier contains it (always true for subdivisions), making every
/// facet rainbow — the other extreme of the spectrum.
pub fn own_color_labeling(domain: &Complex) -> SpernerLabeling {
    domain
        .used_vertices()
        .into_iter()
        .map(|v| (v.index(), domain.color(v)))
        .collect()
}

/// Counts the rainbow facets (all `n` labels distinct) of a labeling.
///
/// # Panics
///
/// Panics if a used vertex has no label or a label violates the Sperner
/// condition (label not a carrier color).
pub fn rainbow_facets(domain: &Complex, labeling: &SpernerLabeling) -> usize {
    let n = domain.num_processes();
    for v in domain.used_vertices() {
        let label = labeling[&v.index()];
        assert!(
            domain.base_colors_of_vertex(v).contains(label),
            "labeling violates the Sperner condition at vertex {v:?}"
        );
    }
    domain
        .facets()
        .iter()
        .filter(|f| {
            let labels: ColorSet = f.vertices().iter().map(|&v| labeling[&v.index()]).collect();
            labels.len() == n
        })
        .count()
}

/// The Sperner certificate: `true` when the domain satisfies the
/// pseudomanifold precondition, so that **every** carried map for
/// `(n−1)`-set consensus on the rainbow input is impossible (any such map
/// would be a Sperner labeling with zero rainbow facets, contradicting the
/// lemma's odd count).
///
/// As an executable sanity check, the canonical labelings are also
/// verified to have an odd number of rainbow facets. The precondition is
/// evaluated once, in the same pass as the counts.
pub fn sperner_certificate(domain: &Complex) -> bool {
    scan(domain).is_some_and(|(first, own)| {
        debug_assert_eq!(
            first % 2,
            1,
            "Sperner parity violated by first-color labeling"
        );
        debug_assert_eq!(own % 2, 1, "Sperner parity violated by own-color labeling");
        first % 2 == 1 && own % 2 == 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_topology::Simplex;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn standard_simplex_is_a_subdivided_simplex() {
        for n in 2..=4 {
            assert!(is_subdivided_simplex(&Complex::standard(n)));
        }
    }

    #[test]
    fn chr_iterates_stay_pseudomanifolds() {
        for n in 2..=3 {
            for m in 1..=2 {
                let c = Complex::standard(n).iterated_subdivision(m);
                assert!(is_subdivided_simplex(&c), "Chr^{m} of s, n = {n}");
            }
        }
    }

    #[test]
    fn proper_subcomplexes_are_rejected() {
        let chr = Complex::standard(3).chromatic_subdivision();
        // Drop one facet: some interior edge now has incidence 1.
        let most: Vec<_> = chr.facets().iter().skip(1).cloned().collect();
        let sub = chr.sub_complex(most);
        assert!(!is_subdivided_simplex(&sub));
    }

    #[test]
    fn sperner_parity_holds_for_canonical_labelings() {
        for n in 2..=3 {
            for m in 1..=2 {
                let c = Complex::standard(n).iterated_subdivision(m);
                let first = rainbow_facets(&c, &first_color_labeling(&c));
                let own = rainbow_facets(&c, &own_color_labeling(&c));
                assert_eq!(first % 2, 1, "n = {n}, m = {m}");
                assert_eq!(own % 2, 1, "n = {n}, m = {m}");
                // Own-color labels make every facet rainbow.
                assert_eq!(own, c.facet_count());
            }
        }
    }

    #[test]
    fn sperner_parity_holds_for_random_labelings() {
        // The lemma quantifies over all labelings; sample many random ones.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for n in 2..=3 {
            let c = Complex::standard(n).iterated_subdivision(2);
            for _ in 0..100 {
                let labeling: SpernerLabeling = c
                    .used_vertices()
                    .into_iter()
                    .map(|v| {
                        let carrier: Vec<ProcessId> = c.base_colors_of_vertex(v).iter().collect();
                        let pick = carrier[rng.gen_range(0..carrier.len())];
                        (v.index(), pick)
                    })
                    .collect();
                let rainbow = rainbow_facets(&c, &labeling);
                assert_eq!(rainbow % 2, 1, "odd rainbow count, n = {n}");
            }
        }
    }

    /// The former precondition, kept as the reference the one-pass
    /// [`scan`] is checked against: facet incidences of every
    /// `(n−2)`-face counted in a `HashMap`.
    fn oracle_is_subdivided_simplex(domain: &Complex) -> bool {
        let n = domain.num_processes();
        if !domain.is_pure() || domain.dim() != n as isize - 1 || !domain.is_chromatic() {
            return false;
        }
        let mut incidence: HashMap<Simplex, usize> = HashMap::new();
        for facet in domain.facets() {
            for face in facet.non_empty_faces() {
                if face.dim() == n as isize - 2 {
                    *incidence.entry(face).or_insert(0) += 1;
                }
            }
        }
        let full = ColorSet::full(n);
        incidence.iter().all(|(face, &count)| {
            let boundary = domain.carrier_colors(face) != full;
            if boundary {
                count == 1
            } else {
                count == 2
            }
        })
    }

    /// `domain`, and `domain` without its middle facet.
    fn with_one_facet_dropped(domain: &Complex) -> [Complex; 2] {
        let drop = domain.facet_count() / 2;
        let rest = domain
            .facets()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, f)| f.clone());
        [domain.clone(), domain.sub_complex(rest)]
    }

    /// The one-pass precondition equals the oracle, and on subdivided
    /// simplices its counts equal [`rainbow_facets`] of both labelings.
    fn assert_scan_matches_oracle(domain: &Complex, what: &str) {
        let expected = oracle_is_subdivided_simplex(domain);
        assert_eq!(is_subdivided_simplex(domain), expected, "{what}");
        let Some((first, own)) = scan(domain) else {
            return;
        };
        assert_eq!(
            first,
            rainbow_facets(domain, &first_color_labeling(domain)),
            "{what}"
        );
        assert_eq!(
            own,
            rainbow_facets(domain, &own_color_labeling(domain)),
            "{what}"
        );
        assert_eq!(sperner_certificate(domain), first % 2 == 1 && own % 2 == 1);
    }

    #[test]
    fn one_pass_scan_matches_the_oracle_on_chr_iterates() {
        for n in 2..=4 {
            for m in 0..=2 {
                let c = Complex::standard(n).iterated_subdivision(m);
                for (i, d) in with_one_facet_dropped(&c).iter().enumerate() {
                    assert_scan_matches_oracle(d, &format!("Chr^{m} s, n = {n}, variant {i}"));
                }
            }
        }
    }

    #[test]
    fn one_pass_scan_matches_the_oracle_on_the_n3_zoo() {
        use act_adversary::{zoo, AgreementFunction};
        let mut subdivided = 0;
        for adversary in zoo::all_fair_adversaries(3) {
            let alpha = AgreementFunction::of_adversary(&adversary);
            if alpha.alpha(ColorSet::full(3)) == 0 {
                continue;
            }
            let affine = act_affine::fair_affine_task(&alpha);
            let mut domain = Complex::standard(3);
            for level in 1..=2 {
                domain = affine.apply_to(&domain);
                subdivided += usize::from(is_subdivided_simplex(&domain));
                for (i, d) in with_one_facet_dropped(&domain).iter().enumerate() {
                    assert_scan_matches_oracle(d, &format!("{alpha:?}, ℓ = {level}, variant {i}"));
                }
            }
        }
        // Only the wait-free R_A = Chr² s subdivides the simplex.
        assert_eq!(subdivided, 2);
    }

    #[test]
    fn long_faces_over_sparse_vertex_tables() {
        let s = Complex::standard(64);
        assert!(is_subdivided_simplex(&s));
        assert!(sperner_certificate(&s));
        // 20 processes over a 200-vertex table: two facets glued along a
        // boundary face, which is then counted twice.
        let mut vertices: Vec<(ProcessId, u64)> = (0..20).map(|p| (ProcessId::new(p), 0)).collect();
        vertices.resize(200, (ProcessId::new(19), 1));
        let glued = Complex::from_labeled_vertices(
            20,
            vertices,
            vec![(0..20).collect(), (0..19).chain([20]).collect()],
        );
        assert!(!oracle_is_subdivided_simplex(&glued));
        assert!(!is_subdivided_simplex(&glued));
    }

    #[test]
    fn certificate_accepts_subdivisions() {
        let c = Complex::standard(3).iterated_subdivision(1);
        assert!(sperner_certificate(&c));
    }
}
