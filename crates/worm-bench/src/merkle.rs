//! Merkle hash tree — the baseline the paper's window scheme replaces.
//!
//! §2.3 and §4.1 argue that Merkle trees, the standard tool for
//! authenticated storage, impose O(log n) hashing per update and are
//! therefore a bottleneck for a constantly-growing compliance store. This
//! module implements that baseline so ablation A1 can measure the claim:
//! an appendable Merkle tree with authenticated updates, inclusion proofs,
//! and an operation counter exposing exactly how many hash evaluations each
//! mutation cost.

use wormcrypt::{Digest, Sha256};

/// Leaf/interior domain separation prefixes (RFC 6962 style).
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// An in-memory Merkle tree over binary leaves.
///
/// The tree is stored as a flat vector of levels; level 0 holds leaf hashes.
/// Appends and updates rehash one root-path (O(log n) hash ops), which the
/// built-in [`MerkleTree::hash_ops`] counter makes measurable.
///
/// ```
/// use worm_bench::merkle::MerkleTree;
/// let mut t = MerkleTree::new();
/// let i = t.append(b"record");
/// let proof = t.prove(i).unwrap();
/// assert!(MerkleTree::verify(&t.root(), i, b"record", &proof));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, `levels.last()` = root (length 1).
    levels: Vec<Vec<[u8; 32]>>,
    hash_ops: u64,
}

impl MerkleTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, |l| l.len())
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total hash evaluations performed since construction (for ablation
    /// measurements).
    pub fn hash_ops(&self) -> u64 {
        self.hash_ops
    }

    /// Resets the operation counter and returns the previous value.
    pub fn take_hash_ops(&mut self) -> u64 {
        std::mem::take(&mut self.hash_ops)
    }

    fn leaf_hash(&mut self, data: &[u8]) -> [u8; 32] {
        self.hash_ops += 1;
        let mut h = Sha256::new();
        h.update(&[LEAF_PREFIX]);
        h.update(data);
        let d = h.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&d);
        out
    }

    fn node_hash(&mut self, left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
        self.hash_ops += 1;
        let mut h = Sha256::new();
        h.update(&[NODE_PREFIX]);
        h.update(left);
        h.update(right);
        let d = h.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&d);
        out
    }

    /// Appends a leaf, returning its index.
    pub fn append(&mut self, data: &[u8]) -> usize {
        let leaf = self.leaf_hash(data);
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(leaf);
        let idx = self.levels[0].len() - 1;
        self.rebuild_path(idx);
        idx
    }

    /// Replaces the leaf at `index` (used to model in-place revocation
    /// marks; the WORM layer itself never mutates committed data).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn update(&mut self, index: usize, data: &[u8]) {
        assert!(index < self.len(), "leaf index {index} out of bounds");
        let leaf = self.leaf_hash(data);
        self.levels[0][index] = leaf;
        self.rebuild_path(index);
    }

    /// Rehashes the path from leaf `index` up to the root.
    ///
    /// Only the ancestors of `index` can change on an append or update (an
    /// appended leaf's parent slot is always the newly grown one), so this
    /// is O(log n) hash evaluations.
    fn rebuild_path(&mut self, index: usize) {
        let mut idx = index;
        let mut level = 0;
        while self.levels[level].len() > 1 {
            let len = self.levels[level].len();
            let parent_count = len.div_ceil(2);
            if self.levels.len() <= level + 1 {
                self.levels.push(vec![[0u8; 32]; parent_count]);
            } else {
                self.levels[level + 1].resize(parent_count, [0u8; 32]);
            }
            let pair = idx & !1;
            let left = self.levels[level][pair];
            let right = if pair + 1 < len {
                self.levels[level][pair + 1]
            } else {
                // Odd node promotes by duplicating itself.
                left
            };
            let parent = self.node_hash(&left, &right);
            self.levels[level + 1][idx / 2] = parent;
            idx /= 2;
            level += 1;
        }
        self.levels.truncate(level + 1);
    }

    /// Current root hash (all-zero for an empty tree).
    pub fn root(&self) -> [u8; 32] {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or([0u8; 32])
    }

    /// Builds the inclusion proof (sibling path) for leaf `index`.
    ///
    /// Returns `None` if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> Option<Vec<[u8; 32]>> {
        if index >= self.len() {
            return None;
        }
        let mut proof = Vec::new();
        let mut idx = index;
        for level in 0..self.levels.len() - 1 {
            let nodes = &self.levels[level];
            let sibling = if idx.is_multiple_of(2) {
                if idx + 1 < nodes.len() {
                    nodes[idx + 1]
                } else {
                    nodes[idx] // odd duplicate
                }
            } else {
                nodes[idx - 1]
            };
            proof.push(sibling);
            idx /= 2;
        }
        Some(proof)
    }

    /// Verifies an inclusion proof against a root.
    pub fn verify(root: &[u8; 32], index: usize, data: &[u8], proof: &[[u8; 32]]) -> bool {
        let mut h = Sha256::new();
        h.update(&[LEAF_PREFIX]);
        h.update(data);
        let d = h.finalize();
        let mut cur = [0u8; 32];
        cur.copy_from_slice(&d);
        let mut idx = index;
        for sib in proof {
            let mut h = Sha256::new();
            h.update(&[NODE_PREFIX]);
            if idx.is_multiple_of(2) {
                h.update(&cur);
                h.update(sib);
            } else {
                h.update(sib);
                h.update(&cur);
            }
            let d = h.finalize();
            cur.copy_from_slice(&d);
            idx /= 2;
        }
        cur == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = MerkleTree::new();
        assert!(t.is_empty());
        assert_eq!(t.root(), [0u8; 32]);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf() {
        let mut t = MerkleTree::new();
        let i = t.append(b"only");
        assert_eq!(i, 0);
        assert_eq!(t.len(), 1);
        let proof = t.prove(0).unwrap();
        assert!(proof.is_empty());
        assert!(MerkleTree::verify(&t.root(), 0, b"only", &proof));
    }

    #[test]
    fn proofs_for_all_sizes() {
        for n in 1..=33usize {
            let mut t = MerkleTree::new();
            let data: Vec<Vec<u8>> = (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect();
            for d in &data {
                t.append(d);
            }
            let root = t.root();
            for (i, d) in data.iter().enumerate() {
                let proof = t.prove(i).unwrap();
                assert!(MerkleTree::verify(&root, i, d, &proof), "n={n} leaf={i}");
                // Wrong data fails.
                assert!(!MerkleTree::verify(&root, i, b"bogus", &proof));
                // Wrong index fails (except degenerate single-leaf tree).
                if n > 1 {
                    assert!(!MerkleTree::verify(&root, (i + 1) % n, d, &proof));
                }
            }
        }
    }

    #[test]
    fn update_changes_root_and_reproves() {
        let mut t = MerkleTree::new();
        for i in 0..10 {
            t.append(format!("v{i}").as_bytes());
        }
        let old_root = t.root();
        t.update(3, b"patched");
        assert_ne!(t.root(), old_root);
        let proof = t.prove(3).unwrap();
        assert!(MerkleTree::verify(&t.root(), 3, b"patched", &proof));
        // Siblings still verify under the new root.
        let proof2 = t.prove(7).unwrap();
        assert!(MerkleTree::verify(&t.root(), 7, b"v7", &proof2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn update_out_of_bounds_panics() {
        MerkleTree::new().update(0, b"x");
    }

    #[test]
    fn update_cost_is_logarithmic() {
        let mut t = MerkleTree::new();
        for i in 0..1024 {
            t.append(format!("{i}").as_bytes());
        }
        t.take_hash_ops();
        t.update(100, b"new");
        let ops = t.take_hash_ops();
        // 1 leaf hash + 10 levels of interior hashing.
        assert!((10..=12).contains(&ops), "ops={ops}");
    }

    #[test]
    fn append_is_logarithmic_amortized() {
        let mut t = MerkleTree::new();
        for i in 0..4096 {
            t.append(format!("{i}").as_bytes());
        }
        let total = t.hash_ops();
        // ~ n * (log2(n) + 1); far below n^2, sanity bound at 20n.
        assert!(total < 20 * 4096, "total={total}");
    }

    #[test]
    fn proof_against_stale_root_fails() {
        let mut t = MerkleTree::new();
        t.append(b"a");
        t.append(b"b");
        let stale_root = t.root();
        let stale_proof = t.prove(0).unwrap();
        t.append(b"c");
        // Old proof still verifies against old root but not new one.
        assert!(MerkleTree::verify(&stale_root, 0, b"a", &stale_proof));
        assert!(!MerkleTree::verify(&t.root(), 0, b"a", &stale_proof));
    }
}
