//! Property-based tests for ablation A1's Merkle baseline.

use proptest::prelude::*;
use worm_bench::merkle::MerkleTree;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merkle_proofs_verify_for_random_trees(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..40)) {
        let mut t = MerkleTree::new();
        for l in &leaves {
            t.append(l);
        }
        let root = t.root();
        for (i, l) in leaves.iter().enumerate() {
            let proof = t.prove(i).unwrap();
            prop_assert!(MerkleTree::verify(&root, i, l, &proof));
            prop_assert!(!MerkleTree::verify(&root, i, b"not the leaf!", &proof));
        }
    }

    #[test]
    fn merkle_update_preserves_sibling_proofs(n in 2usize..30, target in 0usize..30) {
        let target = target % n;
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.append(format!("leaf{i}").as_bytes());
        }
        t.update(target, b"updated");
        let root = t.root();
        for i in 0..n {
            let data = if i == target {
                b"updated".to_vec()
            } else {
                format!("leaf{i}").into_bytes()
            };
            let proof = t.prove(i).unwrap();
            prop_assert!(MerkleTree::verify(&root, i, &data, &proof), "leaf {i}");
        }
    }
}
