//! Shared helpers for the paper-artifact binaries.
//!
//! Every table and figure in the paper's evaluation (§5) is regenerated by
//! a binary in `src/bin/`, built on the helpers here:
//!
//! * **Table 2** (`table2`): primitive rates of the emulated IBM 4764
//!   against the modeled P4 host and this machine's real rates.
//! * **Figure 1** (`figure1`): WORM write throughput vs record size for
//!   full-strength, deferred-512, and HMAC witnessing.
//! * **Ablations** (`ablation_merkle`, `ablation_windows`,
//!   `ablation_deferred`, `disk_bottleneck`, `shard_scaling`) and the
//!   checks `attack_matrix` and `powerfail`: the design claims behind
//!   the architecture.
//!
//! Each binary takes no sizing arguments and prints its artifact to
//! stdout (`--json` for JSON lines); `scripts/regen_results.sh` is the
//! only writer of `results/`, and its `--check` mode compares a fresh
//! run with the committed files byte for byte.
//!
//! Throughput is derived from *virtual time*: the emulated device charges
//! each operation its documented IBM 4764 latency, making the results
//! deterministic and independent of this machine's speed. Real crypto
//! still executes for every operation, so the functional path is the one
//! being measured. Wall-clock numbers about the running system are not
//! taken here: they come from `bench/` (`BENCHMARK.json`). The one
//! exception is Table 2's `this machine` column, which the paper's own
//! table sets beside the SCPU.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use scpu::{CostModel, DeviceConfig, VirtualClock};
use strongworm::{
    HashMode, RegulatoryAuthority, RetentionPolicy, WitnessMode, WormConfig, WormServer,
};
use wormstore::Shredder;

pub mod merkle;

/// One point of the Figure 1 reproduction.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Witnessing/hashing mode label.
    pub mode: String,
    /// Record size in bytes.
    pub record_bytes: usize,
    /// Sustainable rate limited by the SCPU (records/second).
    pub scpu_rps: f64,
    /// Rate limited by modeled host-side work (records/second).
    pub host_rps: f64,
    /// The effective throughput: min of the two pipeline stages.
    pub effective_rps: f64,
    /// SCPU busy time per record, ns.
    pub scpu_ns_per_record: f64,
}

/// A witnessing/hashing configuration swept by Figure 1.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Display label.
    pub label: &'static str,
    /// Witness tier requested per write.
    pub witness: WitnessMode,
    /// Who hashes the record data.
    pub hash: HashMode,
}

/// The modes the paper's Figure 1 compares (plus the hashing split the
/// text of §4.2.2 describes).
pub fn figure1_modes() -> Vec<Mode> {
    vec![
        Mode {
            label: "strong-1024",
            witness: WitnessMode::Strong,
            hash: HashMode::ScpuHashes,
        },
        Mode {
            label: "strong-1024+hosthash",
            witness: WitnessMode::Strong,
            hash: HashMode::TrustHostHash,
        },
        Mode {
            label: "deferred-512+scpuhash",
            witness: WitnessMode::Deferred,
            hash: HashMode::ScpuHashes,
        },
        Mode {
            label: "deferred-512",
            witness: WitnessMode::Deferred,
            hash: HashMode::TrustHostHash,
        },
        Mode {
            label: "hmac",
            witness: WitnessMode::Hmac,
            hash: HashMode::TrustHostHash,
        },
    ]
}

/// Record sizes swept by Figure 1 (bytes).
pub fn figure1_sizes() -> Vec<usize> {
    vec![
        512,
        1 << 10,
        2 << 10,
        4 << 10,
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
    ]
}

/// The paper-strength deployment parameters (1024-bit permanent keys,
/// 512-bit weak keys, IBM 4764 cost model) throughput is measured under.
pub fn paper_config(hash: HashMode, witness: WitnessMode) -> WormConfig {
    WormConfig {
        strong_bits: 1024,
        weak_bits: 512,
        hash_mode: hash,
        default_witness: witness,
        store_capacity: 192 << 20,
        device: DeviceConfig {
            cost_model: CostModel::ibm4764(),
            secure_memory_bytes: 16 << 20,
            serial: 0x4764,
            rng_seed: 7,
        },
        ..WormConfig::default()
    }
}

/// Builds a [`paper_config`] server for throughput measurement.
pub fn paper_server(hash: HashMode, witness: WitnessMode) -> WormServer {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let mut rng = StdRng::seed_from_u64(77);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    WormServer::new(paper_config(hash, witness), clock, regulator.public()).expect("server boots")
}

/// Measures sustained write throughput for one (mode, size) point.
///
/// `n` records of `record_bytes` each are ingested; the SCPU and host
/// virtual-busy times divided by `n` give per-record costs, whose
/// reciprocals are the stage rates. The effective rate is the pipeline
/// minimum (stages overlap: the host prepares record *i+1* while the SCPU
/// witnesses record *i*).
pub fn measure_throughput(
    server: &WormServer,
    mode: Mode,
    record_bytes: usize,
    n: usize,
) -> ThroughputPoint {
    let mut rng = StdRng::seed_from_u64(record_bytes as u64 ^ 0xA5);
    let mut record = vec![0u8; record_bytes];
    rng.fill_bytes(&mut record);
    let policy = RetentionPolicy::custom(
        Duration::from_secs(10 * 365 * 24 * 3600),
        Shredder::ZeroFill,
    );

    server.reset_meters();
    for _ in 0..n {
        server
            .write_with(&[&record], policy, 0, mode.witness)
            .expect("write succeeds");
    }
    let scpu_ns = server.device_meter().busy_ns() as f64 / n as f64;
    let host_ns = server.host_meter().busy_ns() as f64 / n as f64;
    let scpu_rps = 1e9 / scpu_ns.max(1.0);
    let host_rps = if host_ns > 0.0 {
        1e9 / host_ns
    } else {
        f64::INFINITY
    };
    ThroughputPoint {
        mode: mode.label.to_owned(),
        record_bytes,
        scpu_rps,
        host_rps,
        effective_rps: scpu_rps.min(host_rps),
        scpu_ns_per_record: scpu_ns,
    }
}

/// Runs the full Figure 1 sweep.
pub fn figure1_sweep(records_per_point: usize) -> Vec<ThroughputPoint> {
    let mut out = Vec::new();
    for mode in figure1_modes() {
        let server = paper_server(mode.hash, mode.witness);
        for size in figure1_sizes() {
            out.push(measure_throughput(&server, mode, size, records_per_point));
        }
    }
    out
}

/// One row of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Operation description (matches the paper's row labels).
    pub function: String,
    /// Context (key size or block size).
    pub context: String,
    /// Rate of the emulated IBM 4764 (from the calibrated cost model).
    pub ibm4764: String,
    /// Rate of the modeled P4 @ 3.4 GHz host.
    pub p4_model: String,
    /// Measured rate of this repository's own implementations on the
    /// build machine (wall clock) — shows the *ratios* carry over.
    pub this_machine: String,
}

/// Helper: pretty rate strings.
pub fn rate_per_sec(ns: f64) -> String {
    format!("{:.0}/s", 1e9 / ns)
}

/// Helper: pretty MB/s strings for `bytes` processed in `ns`.
pub fn rate_mb_per_sec(bytes: f64, ns: f64) -> String {
    format!("{:.2} MB/s", bytes / (ns / 1e9) / 1e6)
}

pub mod json {
    //! Hand-rolled JSON rendering for benchmark outputs. The build
    //! environment has no registry access, so instead of serde the
    //! result structs declare their fields through [`crate::json_record!`].

    /// A JSON scalar.
    pub enum Value {
        /// A string (escaped on render).
        S(String),
        /// A float; non-finite values render as `null`, as serde_json did.
        F(f64),
        /// An unsigned integer.
        U(u64),
        /// A signed integer.
        I(i64),
        /// A boolean.
        B(bool),
    }

    impl From<String> for Value {
        fn from(v: String) -> Self {
            Value::S(v)
        }
    }

    impl From<&str> for Value {
        fn from(v: &str) -> Self {
            Value::S(v.to_owned())
        }
    }

    impl From<f64> for Value {
        fn from(v: f64) -> Self {
            Value::F(v)
        }
    }

    impl From<u64> for Value {
        fn from(v: u64) -> Self {
            Value::U(v)
        }
    }

    impl From<u32> for Value {
        fn from(v: u32) -> Self {
            Value::U(v.into())
        }
    }

    impl From<usize> for Value {
        fn from(v: usize) -> Self {
            Value::U(v as u64)
        }
    }

    impl From<u128> for Value {
        fn from(v: u128) -> Self {
            Value::U(v as u64)
        }
    }

    impl From<i64> for Value {
        fn from(v: i64) -> Self {
            Value::I(v)
        }
    }

    impl From<i32> for Value {
        fn from(v: i32) -> Self {
            Value::I(v.into())
        }
    }

    impl From<bool> for Value {
        fn from(v: bool) -> Self {
            Value::B(v)
        }
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn render(v: &Value) -> String {
        match v {
            Value::S(s) => format!("\"{}\"", escape(s)),
            Value::F(f) if f.is_finite() => format!("{f}"),
            Value::F(_) => "null".to_owned(),
            Value::U(u) => format!("{u}"),
            Value::I(i) => format!("{i}"),
            Value::B(b) => format!("{b}"),
        }
    }

    /// Renders an ordered field list as one JSON object.
    pub fn object(fields: &[(&str, Value)]) -> String {
        let body = fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), render(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }
}

/// A row that knows how to render itself as one JSON object.
pub trait ToJson {
    /// Renders `self` as a single-line JSON object.
    fn to_json(&self) -> String;
}

/// Implements [`ToJson`] for a struct by listing its fields, replacing
/// the `#[derive(Serialize)]` the real serde provided.
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> String {
                $crate::json::object(&[
                    $((stringify!($field), $crate::json::Value::from(self.$field.clone())),)+
                ])
            }
        }
    };
}

json_record!(ThroughputPoint {
    mode,
    record_bytes,
    scpu_rps,
    host_rps,
    effective_rps,
    scpu_ns_per_record,
});

json_record!(Table2Row {
    function,
    context,
    ibm4764,
    p4_model,
    this_machine,
});

/// Renders a list of rows as a JSON lines string.
pub fn to_json_lines<T: ToJson>(rows: &[T]) -> String {
    rows.iter()
        .map(ToJson::to_json)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_point_shapes_match_paper() {
        // One cheap spot-check per mode at small records; the binary does
        // the full sweep. The paper's headline numbers:
        //   full-strength  => 450-500 rec/s sustained
        //   deferred 512   => 2000-2500 rec/s burst
        let strong = paper_server(HashMode::TrustHostHash, WitnessMode::Strong);
        let p = measure_throughput(
            &strong,
            Mode {
                label: "strong",
                witness: WitnessMode::Strong,
                hash: HashMode::TrustHostHash,
            },
            512,
            20,
        );
        assert!(
            p.effective_rps > 300.0 && p.effective_rps < 600.0,
            "strong mode {} rec/s",
            p.effective_rps
        );

        let deferred = paper_server(HashMode::TrustHostHash, WitnessMode::Deferred);
        let p = measure_throughput(
            &deferred,
            Mode {
                label: "deferred",
                witness: WitnessMode::Deferred,
                hash: HashMode::TrustHostHash,
            },
            512,
            20,
        );
        assert!(
            p.effective_rps > 1500.0 && p.effective_rps < 3000.0,
            "deferred mode {} rec/s",
            p.effective_rps
        );
    }

    #[test]
    fn throughput_declines_with_record_size_when_scpu_hashes() {
        let mode = Mode {
            label: "strong+scpuhash",
            witness: WitnessMode::Strong,
            hash: HashMode::ScpuHashes,
        };
        let server = paper_server(mode.hash, mode.witness);
        let small = measure_throughput(&server, mode, 1 << 10, 10);
        let large = measure_throughput(&server, mode, 64 << 10, 10);
        assert!(
            small.effective_rps > 2.0 * large.effective_rps,
            "hashing cost must dominate at large records: {} vs {}",
            small.effective_rps,
            large.effective_rps
        );
    }

    #[test]
    fn figure1_rates_do_not_depend_on_records_per_point() {
        // Every write of one (mode, size) charges the same virtual time,
        // so the batch size cancels out of every rate: what lets the
        // `figure1` binary take no sizing flag and lets
        // `regen_results.sh --check` compare its output byte for byte.
        let (few, many) = (figure1_sweep(4), figure1_sweep(40));
        assert_eq!(few.len(), figure1_modes().len() * figure1_sizes().len());
        assert_eq!(few.len(), many.len());
        for (a, b) in few.iter().zip(&many) {
            assert_eq!((&a.mode, a.record_bytes), (&b.mode, b.record_bytes));
            assert_eq!(
                (a.scpu_rps, a.host_rps, a.effective_rps),
                (b.scpu_rps, b.host_rps, b.effective_rps),
                "{} at {} B",
                a.mode,
                a.record_bytes
            );
        }
    }

    #[test]
    fn json_lines_roundtrip() {
        let rows = vec![Table2Row {
            function: "RSA sig.".into(),
            context: "512 bits".into(),
            ibm4764: "4200/s".into(),
            p4_model: "1315/s".into(),
            this_machine: "x/s".into(),
        }];
        let s = to_json_lines(&rows);
        assert!(s.contains("4200"));
    }
}
