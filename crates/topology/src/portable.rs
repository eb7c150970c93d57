//! Portable binary encoding of complexes.
//!
//! A [`Complex`] is a chain of subdivision levels sharing `Arc`ed vertex
//! tables. This module flattens the whole chain — base first — into a
//! versioned, length-prefixed little-endian byte stream, and rebuilds a
//! structurally equal (`==`) chain from it. The encoding is the canonical
//! byte form behind [`Complex::content_hash`], and the payload the service
//! layer persists when it stores `R_A^ℓ` domain towers.
//!
//! Decoding is paranoid: every index is bounds-checked against the level it
//! refers to, so a truncated or bit-flipped payload yields a
//! [`PortableError`], never a panic or an out-of-range complex.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::color::{ColorSet, ProcessId, MAX_PROCESSES};
use crate::complex::{Complex, Structure, VertexData};
use crate::simplex::{Simplex, VertexId};
use crate::symmetry::ColorPerm;

/// Magic prefix of the portable encoding (`ACTC`: act-topology complex).
const MAGIC: [u8; 4] = *b"ACTC";

/// Version of the portable byte layout. Bump on any change to the field
/// order or widths below — a mismatch is a decode error, so persisted
/// towers from an older layout degrade to clean rebuilds.
pub const PORTABLE_FORMAT_VERSION: u32 = 1;

/// A malformed portable payload: wrong magic/version, truncation, or an
/// out-of-range index. Carries a short human-readable reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableError(pub String);

impl fmt::Display for PortableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "portable complex: {}", self.0)
    }
}

impl std::error::Error for PortableError {}

fn err<T>(msg: impl Into<String>) -> Result<T, PortableError> {
    Err(PortableError(msg.into()))
}

struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn simplex(&mut self, s: &Simplex) {
        self.u32(s.len() as u32);
        for v in s.vertices() {
            self.u32(v.index() as u32);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, PortableError> {
        match self.bytes.get(self.at..self.at + 4) {
            Some(b) => {
                self.at += 4;
                Ok(u32::from_le_bytes(b.try_into().unwrap()))
            }
            None => err("truncated (u32)"),
        }
    }

    fn u64(&mut self) -> Result<u64, PortableError> {
        match self.bytes.get(self.at..self.at + 8) {
            Some(b) => {
                self.at += 8;
                Ok(u64::from_le_bytes(b.try_into().unwrap()))
            }
            None => err("truncated (u64)"),
        }
    }

    /// Reads a length-prefixed simplex whose vertex ids must fall below
    /// `bound` (the vertex count of the level the simplex lives in).
    fn simplex(&mut self, bound: usize, what: &str) -> Result<Simplex, PortableError> {
        let len = self.u32()? as usize;
        if len > bound {
            return err(format!("{what} longer than its vertex table"));
        }
        let mut verts = Vec::with_capacity(len);
        for _ in 0..len {
            let v = self.u32()? as usize;
            if v >= bound {
                return err(format!("{what} vertex {v} out of range (< {bound})"));
            }
            verts.push(VertexId::from_index(v));
        }
        Ok(Simplex::from_vertices(verts))
    }
}

impl Complex {
    /// Whether two complexes share the same underlying representation
    /// (`Arc`-identical vertex table and facet list).
    ///
    /// This is a pointer check: `true` implies `==`, but two structurally
    /// equal complexes built independently report `false`. Callers use it
    /// as an O(1) fast path before a content-hash or structural compare.
    pub fn same_representation(&self, other: &Complex) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure) && Arc::ptr_eq(&self.facets, &other.facets)
    }

    /// Encodes the whole subdivision chain (base first) into the versioned
    /// portable byte form. `decode_portable` round-trips to an `==` chain.
    pub fn encode_portable(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_chain(&mut out, |p| p, |cs| cs);
        out
    }

    /// Writes the encoding of the relabeled complex `π · self` into `out`
    /// (cleared first) without building it: byte-equal to
    /// `permute_complex(self, perm).encode_portable()`. A color
    /// permutation moves only each vertex's color and `base_colors`;
    /// carriers, labels and facets are vertex-id sets and are written
    /// unchanged. This is the inner loop of the canonical forms in
    /// [`crate::symmetry`], which encode one image per element of `S_n`.
    pub(crate) fn encode_portable_permuted(&self, perm: &ColorPerm, out: &mut Vec<u8>) {
        out.clear();
        self.encode_chain(out, |p| perm.apply(p), |cs| perm.apply_colors(cs));
    }

    fn encode_chain(
        &self,
        out: &mut Vec<u8>,
        color: impl Fn(ProcessId) -> ProcessId,
        colors: impl Fn(ColorSet) -> ColorSet,
    ) {
        // Collect the chain base-first.
        let mut chain: Vec<&Complex> = Vec::new();
        let mut cur = Some(self);
        while let Some(c) = cur {
            chain.push(c);
            cur = c.parent();
        }
        chain.reverse();

        let mut w = Writer { out };
        w.out.extend_from_slice(&MAGIC);
        w.u32(PORTABLE_FORMAT_VERSION);
        w.u32(self.num_processes() as u32);
        w.u32(chain.len() as u32);
        for level in &chain {
            let verts = &level.structure.vertices;
            w.u32(verts.len() as u32);
            for v in verts {
                w.u32(color(v.color).index() as u32);
                w.u64(v.label);
                w.simplex(&v.carrier);
                w.simplex(&v.base_carrier);
                w.u64(colors(v.base_colors).bits());
            }
            w.u32(level.facets.len() as u32);
            for f in level.facets.iter() {
                w.simplex(f);
            }
        }
    }

    /// Rebuilds a complex from [`Complex::encode_portable`] bytes.
    ///
    /// The result is structurally equal (`==`) to the encoded complex:
    /// every level's vertex table, facet list, and parent link are
    /// reproduced, and the derived key/star indices are rebuilt. Any
    /// truncation, version mismatch, or out-of-range index is a
    /// [`PortableError`].
    pub fn decode_portable(bytes: &[u8]) -> Result<Complex, PortableError> {
        let mut r = Reader { bytes, at: 0 };
        if bytes.get(..4) != Some(&MAGIC[..]) {
            return err("bad magic");
        }
        r.at = 4;
        let version = r.u32()?;
        if version != PORTABLE_FORMAT_VERSION {
            return err(format!(
                "format {version} != {PORTABLE_FORMAT_VERSION} (re-encode required)"
            ));
        }
        let n = r.u32()? as usize;
        if !(1..=MAX_PROCESSES).contains(&n) {
            return err(format!("process count {n} out of range"));
        }
        let num_levels = r.u32()? as usize;
        if num_levels == 0 {
            return err("empty chain");
        }
        // A subdivision chain deeper than 64 levels is far beyond anything
        // this system builds; treat it as corruption, not a work order.
        if num_levels > 64 {
            return err(format!("implausible chain depth {num_levels}"));
        }

        let mut parent: Option<Complex> = None;
        let mut base_count = 0usize;
        for level in 0..num_levels {
            let vertex_count = r.u32()? as usize;
            if r.bytes.len() - r.at < vertex_count {
                // Cheap plausibility bound before allocating: each vertex
                // occupies at least one byte of payload.
                return err("vertex table longer than payload");
            }
            if level == 0 {
                base_count = vertex_count;
            }
            let parent_count = parent.as_ref().map_or(0, Complex::num_vertices);
            // Base carriers index the level-0 table; at the base itself
            // that table is the one being read.
            let base_bound = if level == 0 { vertex_count } else { base_count };
            let mut vertices = Vec::with_capacity(vertex_count);
            for _ in 0..vertex_count {
                let color_idx = r.u32()? as usize;
                if color_idx >= n {
                    return err(format!("vertex color {color_idx} out of range (< {n})"));
                }
                let label = r.u64()?;
                let carrier = r.simplex(parent_count, "carrier")?;
                if level == 0 && !carrier.is_empty() {
                    return err("base vertex with a non-empty carrier");
                }
                let base_carrier = r.simplex(base_bound, "base carrier")?;
                let base_colors = ColorSet::from_bits(r.u64()?);
                vertices.push(VertexData {
                    color: ProcessId::new(color_idx),
                    carrier,
                    base_carrier,
                    base_colors,
                    label,
                });
            }
            let facet_count = r.u32()? as usize;
            if r.bytes.len() - r.at < facet_count {
                return err("facet list longer than payload");
            }
            let mut facets = Vec::with_capacity(facet_count);
            for _ in 0..facet_count {
                facets.push(r.simplex(vertex_count, "facet")?);
            }
            // The key index is derived: empty at the base (carriers are
            // empty there), canonical (color, carrier) → id above it —
            // exactly what the subdivision arena produces.
            let key_index: HashMap<(ProcessId, Simplex), VertexId> = if level == 0 {
                HashMap::new()
            } else {
                vertices
                    .iter()
                    .enumerate()
                    .map(|(i, v)| ((v.color, v.carrier.clone()), VertexId::from_index(i)))
                    .collect()
            };
            let structure = Arc::new(Structure {
                n,
                level,
                parent: parent.clone(),
                vertices,
                key_index,
            });
            parent = Some(Complex::assemble(structure, facets));
        }
        if r.at != bytes.len() {
            return err("trailing bytes after chain");
        }
        Ok(parent.expect("num_levels >= 1"))
    }

    /// A 128-bit content hash of the complex (over the portable byte
    /// form), suitable as a cache or store key: equal complexes hash
    /// equal, and unequal ones collide with probability ~2⁻¹²⁸.
    pub fn content_hash(&self) -> u128 {
        act_obs::content_hash128(&self.encode_portable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_tower() -> Complex {
        Complex::standard(3)
            .chromatic_subdivision()
            .chromatic_subdivision()
    }

    #[test]
    fn encode_decode_round_trips_to_equality() {
        let chr2 = two_level_tower();
        let bytes = chr2.encode_portable();
        let back = Complex::decode_portable(&bytes).expect("decodes");
        assert_eq!(back, chr2);
        assert_eq!(back.level(), 2);
        assert_eq!(back.facet_count(), 169);
        // Derived indices work: carrier lookups and star queries agree.
        assert_eq!(back.content_hash(), chr2.content_hash());
    }

    #[test]
    fn round_trip_preserves_labels_and_restricted_facets() {
        let inputs = Complex::from_labeled_vertices(
            2,
            vec![(ProcessId::new(0), 7), (ProcessId::new(1), 9)],
            vec![vec![0, 1], vec![0]],
        );
        let chr = inputs.chromatic_subdivision();
        let back = Complex::decode_portable(&chr.encode_portable()).expect("decodes");
        assert_eq!(back, chr);
        assert_eq!(*back.base(), inputs);
    }

    #[test]
    fn content_hash_separates_unequal_complexes() {
        let a = Complex::standard(3);
        let b = Complex::standard(2);
        assert_ne!(a.content_hash(), b.content_hash());
        let chr = a.chromatic_subdivision();
        assert_ne!(a.content_hash(), chr.content_hash());
    }

    #[test]
    fn same_representation_is_pointer_identity() {
        let a = Complex::standard(3);
        let b = a.clone();
        assert!(a.same_representation(&b));
        let rebuilt = Complex::decode_portable(&a.encode_portable()).unwrap();
        assert_eq!(rebuilt, a);
        assert!(!a.same_representation(&rebuilt));
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        let chr = Complex::standard(3).chromatic_subdivision();
        let good = chr.encode_portable();

        assert!(Complex::decode_portable(&[]).is_err());
        assert!(Complex::decode_portable(&good[..good.len() / 2]).is_err());
        assert!(Complex::decode_portable(&good[1..]).is_err());

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Complex::decode_portable(&trailing).is_err());

        // Flip bytes all over the payload: every outcome must be a clean
        // error or a decode — never a panic — and a successful decode of a
        // tampered payload must not hash like the original.
        for at in (0..good.len()).step_by(7) {
            let mut bad = good.clone();
            bad[at] ^= 0xff;
            if let Ok(c) = Complex::decode_portable(&bad) {
                assert_ne!(c.content_hash(), chr.content_hash());
            }
        }
    }

    #[test]
    fn version_bump_is_a_decode_error() {
        let mut bytes = Complex::standard(2).encode_portable();
        bytes[4] = bytes[4].wrapping_add(1); // version lives after the magic
        let e = Complex::decode_portable(&bytes).unwrap_err();
        assert!(e.to_string().contains("format"));
    }
}
