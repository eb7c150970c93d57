//! The components certificate: consensus no-maps without a search.
//!
//! A carried map for consensus decides one value on every simplex of the
//! domain, so it is constant on each connected component; validity makes
//! that value an input of every vertex carrier in the component. A
//! component whose carriers share no input value therefore proves that no
//! carried map exists. The converse holds too — decide the shared value,
//! component by component — so for consensus the certificate is exact: it
//! exists iff the carried-map search answers `Unsolvable`.
//!
//! The certificate speaks about input *values* (the labels of the base
//! complex), not process ids, so it holds for any assignment of values to
//! processes. It shares no code with the CSP:
//!
//! * [`find`] runs a union-find over facet vertices and ANDs a bitmask of
//!   input values per vertex carrier within each component;
//! * [`check`] re-verifies a certificate on its own: every tree edge is an
//!   edge of the domain, the tree spans the claimed vertices, and the
//!   carriers' input values, recomputed from the base labels, share
//!   nothing.

use act_topology::{Complex, Simplex, VertexId};

/// A connected set of domain vertices whose carriers share no input value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentsCertificate {
    /// The vertices of the component, in increasing id order.
    pub vertices: Vec<VertexId>,
    /// A spanning tree of [`vertices`](Self::vertices): one edge per
    /// vertex but the first, each with the index of a facet of the domain
    /// that carries it.
    pub tree: Vec<(VertexId, VertexId, usize)>,
    /// How many connected components the domain has (telemetry; [`check`]
    /// does not rely on it).
    pub components: usize,
}

/// A component of `domain` whose vertex carriers share no input value, or
/// `None` when every component has a shared value (consensus is then
/// solvable on `domain`) or the base has more than 64 distinct input
/// values.
///
/// The component reported is the one holding the smallest vertex id among
/// the candidates, so the result is deterministic.
pub fn find(domain: &Complex) -> Option<ComponentsCertificate> {
    // One bit per distinct input value of the base complex.
    let base = domain.base();
    let labels: Vec<u64> = (0..base.num_vertices())
        .map(|i| base.vertex(VertexId::from_index(i)).label)
        .collect();
    let mut values = labels.clone();
    values.sort_unstable();
    values.dedup();
    if values.len() > 64 {
        return None;
    }
    let value_bit: Vec<u64> = labels
        .iter()
        .map(|l| 1u64 << values.binary_search(l).expect("every label is a value"))
        .collect();

    let mut parent: Vec<u32> = (0..domain.num_vertices() as u32).collect();
    let mut used = vec![false; domain.num_vertices()];
    let mut edges = Vec::new();
    for (f, facet) in domain.facets().iter().enumerate() {
        let Some((&first, rest)) = facet.vertices().split_first() else {
            continue;
        };
        used[first.index()] = true;
        for &v in rest {
            used[v.index()] = true;
            if union(&mut parent, first.index(), v.index()) {
                edges.push((first, v, f));
            }
        }
    }

    let mut shared = vec![u64::MAX; domain.num_vertices()];
    let mut components = 0;
    for v in (0..used.len()).filter(|&v| used[v]) {
        let root = root(&mut parent, v);
        if root == v {
            components += 1;
        }
        let carrier = &domain.vertex(VertexId::from_index(v)).base_carrier;
        shared[root] &= carrier
            .vertices()
            .iter()
            .fold(0, |acc, b| acc | value_bit[b.index()]);
    }
    let target = (0..used.len()).find(|&v| used[v] && shared[root(&mut parent, v)] == 0)?;
    let target = root(&mut parent, target);
    let vertices = (0..used.len())
        .filter(|&v| used[v] && root(&mut parent, v) == target)
        .map(VertexId::from_index)
        .collect();
    let tree = edges
        .into_iter()
        .filter(|&(u, _, _)| root(&mut parent, u.index()) == target)
        .collect();
    Some(ComponentsCertificate {
        vertices,
        tree,
        components,
    })
}

/// The representative of `v`'s set, halving the path on the way.
fn root(parent: &mut [u32], mut v: usize) -> usize {
    while parent[v] as usize != v {
        let up = parent[parent[v] as usize];
        parent[v] = up;
        v = up as usize;
    }
    v
}

/// Merges the sets of `a` and `b`; `false` when they were already one.
fn union(parent: &mut [u32], a: usize, b: usize) -> bool {
    let (ra, rb) = (root(parent, a), root(parent, b));
    if ra == rb {
        return false;
    }
    parent[ra.max(rb)] = ra.min(rb) as u32;
    true
}

/// Whether `certificate` proves that consensus has no carried map on
/// `domain`: each tree edge lies in the facet it names, the tree spans
/// exactly the certificate's vertices, and the input values of those
/// vertices' carriers have an empty intersection.
pub fn check(domain: &Complex, certificate: &ComponentsCertificate) -> bool {
    let (vertices, tree) = (&certificate.vertices, &certificate.tree);
    if vertices.is_empty()
        || tree.len() + 1 != vertices.len()
        || vertices.windows(2).any(|w| w[0] >= w[1])
    {
        return false;
    }
    if vertices.len() == 1 && !domain.contains_simplex(&Simplex::vertex(vertices[0])) {
        return false;
    }
    // The tree as adjacency lists over positions in `vertices`.
    let position = |v: VertexId| vertices.binary_search(&v).ok();
    let mut ends = Vec::with_capacity(tree.len());
    let mut start = vec![0usize; vertices.len() + 1];
    for &(u, v, f) in tree {
        let carried = domain
            .facets()
            .get(f)
            .is_some_and(|facet| facet.contains(u) && facet.contains(v));
        let (Some(a), Some(b)) = (position(u), position(v)) else {
            return false;
        };
        if a == b || !carried {
            return false;
        }
        start[a + 1] += 1;
        start[b + 1] += 1;
        ends.push((a, b));
    }
    for a in 1..start.len() {
        start[a] += start[a - 1];
    }
    let mut next = start.clone();
    let mut adjacent = vec![0; 2 * tree.len()];
    for &(a, b) in &ends {
        adjacent[next[a]] = b;
        next[a] += 1;
        adjacent[next[b]] = a;
        next[b] += 1;
    }
    // |V| − 1 edges reaching every vertex from the first: a spanning tree.
    let mut reached = vec![false; vertices.len()];
    reached[0] = true;
    let mut stack = vec![0];
    while let Some(a) = stack.pop() {
        for &b in &adjacent[start[a]..start[a + 1]] {
            if !reached[b] {
                reached[b] = true;
                stack.push(b);
            }
        }
    }
    if reached.contains(&false) {
        return false;
    }
    // The values every carrier proposes, intersected vertex by vertex.
    let base = domain.base();
    let values = |v: VertexId| {
        domain
            .vertex(v)
            .base_carrier
            .vertices()
            .iter()
            .map(|&b| base.vertex(b).label)
    };
    let mut shared: Vec<u64> = values(vertices[0]).collect();
    for &v in &vertices[1..] {
        if shared.is_empty() {
            break;
        }
        shared.retain(|&x| values(v).any(|label| label == x));
    }
    shared.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{consensus, find_carried_map, Task};
    use act_topology::ProcessId;

    /// Disjoint edges, one proposing 0 on both ends, one proposing 1 —
    /// two components, each with a shared value — plus `extra` facets.
    fn agreeing_edges(extra: &[[usize; 2]]) -> Complex {
        let p = ProcessId::new;
        let mut facets = vec![vec![0, 1], vec![2, 3]];
        facets.extend(extra.iter().map(|e| e.to_vec()));
        Complex::from_labeled_vertices(2, vec![(p(0), 0), (p(1), 0), (p(0), 1), (p(1), 1)], facets)
    }

    /// The index of the facet of `domain` holding vertices `a` and `b`.
    fn facet_of(domain: &Complex, a: usize, b: usize) -> usize {
        let edge = Simplex::from_vertices([a, b].map(VertexId::from_index));
        domain
            .facets()
            .iter()
            .position(|f| edge.is_face_of(f))
            .expect("an edge of the domain")
    }

    #[test]
    fn flp_path_is_certified_and_checked() {
        // Two-process consensus on Chr^m of the rainbow edge: one path
        // from the value-0 end to the value-1 end.
        let t = consensus(2, &[0, 1]);
        for m in 1..=3 {
            let domain = t.rainbow_inputs().iterated_subdivision(m);
            let cert = find(&domain).expect("the path's ends propose different values");
            assert_eq!(cert.components, 1);
            assert_eq!(cert.vertices.len(), domain.used_vertices().len());
            assert!(check(&domain, &cert), "m = {m}");
            assert!(find_carried_map(&t, &domain, 1_000_000).is_unsolvable());
        }
    }

    #[test]
    fn components_with_shared_values_give_no_certificate() {
        assert_eq!(find(&agreeing_edges(&[])), None);
        let t = consensus(2, &[0, 1]);
        let solo = t.inputs().sub_complex(vec![t.inputs().facets()[0].clone()]);
        assert_eq!(find(&solo.iterated_subdivision(2)), None);
    }

    #[test]
    fn dropping_the_facets_under_a_tree_edge_is_rejected() {
        let t = consensus(2, &[0, 1]);
        let domain = t.rainbow_inputs().iterated_subdivision(2);
        let cert = find(&domain).expect("certified");
        for &(u, v, _) in &cert.tree {
            let edge = Simplex::from_vertices([u, v]);
            let rest: Vec<Simplex> = domain
                .facets()
                .iter()
                .filter(|f| !edge.is_face_of(f))
                .cloned()
                .collect();
            assert!(!check(&domain.sub_complex(rest), &cert), "{u:?}–{v:?}");
        }
    }

    #[test]
    fn merged_components_and_malformed_claims_are_rejected() {
        let v = VertexId::from_index;
        // Joined by the edge 1–2, the two components are one and share no
        // value: a genuine certificate.
        let joined = agreeing_edges(&[[1, 2]]);
        let certificate = |domain: &Complex, bridge: usize| ComponentsCertificate {
            vertices: (0..4).map(v).collect(),
            tree: vec![
                (v(0), v(1), facet_of(domain, 0, 1)),
                (v(2), v(3), facet_of(domain, 2, 3)),
                (v(1), v(2), bridge),
            ],
            components: 1,
        };
        assert!(check(
            &joined,
            &certificate(&joined, facet_of(&joined, 1, 2))
        ));
        assert_eq!(find(&joined), Some(certificate(&joined, 2)));
        // Without that edge, no facet the claim can name carries it.
        let split = agreeing_edges(&[]);
        for bridge in 0..3 {
            assert!(!check(&split, &certificate(&split, bridge)), "{bridge}");
        }
        let mut repeated = certificate(&split, 0);
        repeated.tree[2] = repeated.tree[0];
        assert!(!check(&split, &repeated));
        // A real component whose values are shared is no certificate.
        let agreeing = ComponentsCertificate {
            vertices: vec![v(0), v(1)],
            tree: vec![(v(0), v(1), facet_of(&split, 0, 1))],
            components: 2,
        };
        assert!(!check(&split, &agreeing));
        // Unsorted, repeated or foreign vertices.
        for vertices in [vec![v(1), v(0)], vec![v(0), v(0)], vec![v(0), v(9)]] {
            let claim = ComponentsCertificate {
                vertices,
                ..agreeing.clone()
            };
            assert!(!check(&split, &claim));
        }
    }
}
