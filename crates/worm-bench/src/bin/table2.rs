//! Table 2 reproduction: cryptographic primitive rates.
//!
//! Columns: the calibrated IBM 4764 model, the modeled P4 @ 3.4 GHz /
//! OpenSSL host, and this repository's own from-scratch implementations
//! measured on the build machine. Absolute rates on column 3 differ from
//! the paper's hardware, but the *ratios* across key widths and block
//! sizes — which drive every design decision in the paper — are
//! reproduced. Column 3 also has a row the paper does not: two signatures
//! under one key issued together, which is how a write's `metasig` and
//! `datasig` are made.
//!
//! Usage: `table2 [--json]`

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{CostModel, Op};
use worm_bench::{rate_mb_per_sec, rate_per_sec, to_json_lines, Table2Row};
use wormcrypt::{Digest, HashAlg, RsaPrivateKey, Sha1};

/// Timed repetitions of each RSA and copy row.
const ITERS: usize = 32;
/// Timed repetitions of the SHA-1 rows, whose single run is much shorter.
const SHA_ITERS: usize = 64;

fn measure_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let dev = CostModel::ibm4764();
    let host = CostModel::host_p4();
    let mut rng = StdRng::seed_from_u64(2);
    let msg = b"table2 benchmark message";

    let mut rows = Vec::new();

    // RSA signature rows.
    for bits in [512usize, 1024, 2048] {
        eprintln!("table2: generating {bits}-bit key ...");
        let key = RsaPrivateKey::generate(&mut rng, bits);
        let mine = measure_ns(ITERS, || {
            key.sign(msg, HashAlg::Sha256).expect("modulus sized");
        });
        // Two signatures under one key issued together (a write's `metasig`
        // and `datasig`), as signatures per second. The models charge a
        // pair as two signatures.
        let pair = measure_ns(ITERS, || {
            key.sign_pair([msg, msg], HashAlg::Sha256)
                .expect("modulus sized");
        });
        for (function, ns) in [("RSA sig.", mine), ("RSA sig., pair", pair / 2.0)] {
            rows.push(Table2Row {
                function: function.into(),
                context: format!("{bits} bits"),
                ibm4764: rate_per_sec(dev.cost_ns(Op::RsaSign { bits }) as f64),
                p4_model: rate_per_sec(host.cost_ns(Op::RsaSign { bits }) as f64),
                this_machine: rate_per_sec(ns),
            });
        }
    }

    // SHA-1 rows.
    for (label, block) in [("1KB blk.", 1usize << 10), ("64 KB blk.", 64 << 10)] {
        let buf = vec![0xABu8; block];
        let mine = measure_ns(SHA_ITERS, || {
            let _ = Sha1::digest(&buf);
        });
        rows.push(Table2Row {
            function: "SHA-1".into(),
            context: label.into(),
            ibm4764: rate_mb_per_sec(block as f64, dev.cost_ns(Op::Sha1 { bytes: block }) as f64),
            p4_model: rate_mb_per_sec(block as f64, host.cost_ns(Op::Sha1 { bytes: block }) as f64),
            this_machine: rate_mb_per_sec(block as f64, mine),
        });
    }

    // DMA row: the emulated channel vs a memcpy-class host transfer.
    {
        let block = 1usize << 20;
        let src = vec![0x5Au8; block];
        let mut dst = vec![0u8; block];
        let mine = measure_ns(ITERS, || {
            dst.copy_from_slice(&src);
            std::hint::black_box(&dst);
        });
        rows.push(Table2Row {
            function: "DMA xfer".into(),
            context: "end-to-end".into(),
            ibm4764: rate_mb_per_sec(block as f64, dev.cost_ns(Op::DmaIn { bytes: block }) as f64),
            p4_model: rate_mb_per_sec(
                block as f64,
                host.cost_ns(Op::DmaIn { bytes: block }) as f64,
            ),
            this_machine: rate_mb_per_sec(block as f64, mine),
        });
    }

    if json {
        println!("{}", to_json_lines(&rows));
        return;
    }

    println!("Table 2 — IBM 4764 vs P4@3.4GHz (paper) vs this machine (our impls)");
    println!();
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>16}",
        "Function", "Context", "IBM 4764", "P4 model", "this machine"
    );
    println!("{}", "-".repeat(75));
    for r in &rows {
        println!(
            "{:<15} {:<12} {:>14} {:>14} {:>16}",
            r.function, r.context, r.ibm4764, r.p4_model, r.this_machine
        );
    }
    println!();
    // The last column is this CPU's: a file from another box is not to be
    // read against this one.
    let engines: Vec<String> = wormcrypt::hardware_engines()
        .iter()
        .map(|(name, on)| format!("{name} {}", if *on { "yes" } else { "no" }))
        .collect();
    println!("engines on this machine: {}", engines.join(", "));
    println!();
    println!("paper values: RSA 512/1024/2048 -> 4200/848/316-470 per s (4764),");
    println!("              1315/261/43 per s (P4); SHA-1 1.42 / 18.6 MB/s (4764),");
    println!("              80 / 120+ MB/s (P4); DMA 75-90 MB/s vs 1+ GB/s.");
}
