//! Output checks and digests, run outside the timed region.

use planar_embedding::{verify_embedding, Certification};
use planar_graph::{Graph, RotationSystem, VertexId};

/// FNV-1a over 64-bit words: a digest of rotations and outcomes that two
/// runs of the same seed can be diffed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest of a rotation system: vertex count, then every
    /// clockwise order.
    pub fn of_rotation(rot: &RotationSystem) -> Digest {
        let mut d = Digest::default();
        d.word(rot.vertex_count() as u64);
        for v in 0..rot.vertex_count() {
            let order = rot.order_at(VertexId::from_index(v));
            d.word(order.len() as u64);
            for w in order {
                d.word(u64::from(w.0));
            }
        }
        d
    }

    /// The digest as a number.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Hex form for the record.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Why an embedding failed its check, or `None` if it passed: the
/// rotation must be a genus-0 rotation system of `g`, and its
/// certification must be present and accepted by every node.
pub fn embedding_fault(
    g: &Graph,
    rot: &RotationSystem,
    cert: Option<&Certification>,
) -> Option<String> {
    if let Err(e) = verify_embedding(g, rot) {
        return Some(format!("rotation fails verify_embedding: {e}"));
    }
    match cert {
        None => Some("certification missing".into()),
        Some(c) if !c.accepted() => Some(format!(
            "certification rejected by {} node(s)",
            c.report.rejections.len()
        )),
        Some(_) => None,
    }
}

/// Confirms that `g` is not planar. An edge count above `3n - 6` settles
/// it by Euler's formula alone; otherwise `planar_lib::is_planar` decides,
/// which runs the same DMP code as the embedder's epilogue and is
/// therefore not an independent oracle.
pub fn confirm_nonplanar(g: &Graph) -> NonPlanarEvidence {
    let n = g.vertex_count();
    if n >= 3 && g.edge_count() > 3 * n - 6 {
        NonPlanarEvidence::Density
    } else if !planar_lib::is_planar(g) {
        NonPlanarEvidence::Dmp
    } else {
        NonPlanarEvidence::Planar
    }
}

/// How [`confirm_nonplanar`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonPlanarEvidence {
    /// `m > 3n - 6`: non-planar by Euler's formula.
    Density,
    /// `planar_lib::is_planar` says non-planar.
    Dmp,
    /// The graph is planar: the rejection was wrong.
    Planar,
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    #[test]
    fn digests_separate_mirrored_rotations() {
        let g = gen::wheel(6);
        let rot = planar_lib::embed(&g).unwrap();
        assert_eq!(Digest::of_rotation(&rot), Digest::of_rotation(&rot.clone()));
        assert_ne!(
            Digest::of_rotation(&rot),
            Digest::of_rotation(&rot.mirrored())
        );
    }

    #[test]
    fn checks_catch_bad_embeddings_and_planar_rejections() {
        let g = gen::grid(3, 3);
        let rot = planar_lib::embed(&g).unwrap();
        let cfg = planar_embedding::EmbedderConfig::default();
        let cert = planar_embedding::certify_embedding(&g, &rot, &cfg).unwrap();
        assert_eq!(embedding_fault(&g, &rot, Some(&cert)), None);
        assert!(embedding_fault(&g, &rot, None).is_some());
        assert!(embedding_fault(&gen::grid(3, 4), &rot, Some(&cert)).is_some());

        assert_eq!(
            confirm_nonplanar(&gen::complete(5)),
            NonPlanarEvidence::Density
        );
        let mut k33 = planar_graph::Graph::new(6);
        for a in 0..3 {
            for b in 3..6 {
                k33.add_edge(VertexId(a), VertexId(b)).unwrap();
            }
        }
        assert_eq!(confirm_nonplanar(&k33), NonPlanarEvidence::Dmp);
        assert_eq!(confirm_nonplanar(&g), NonPlanarEvidence::Planar);
    }
}
