//! `wormbench`: the repository's one benchmark. See `bench/README.md`.
//!
//! Driver form (one run, last stdout line is the result object):
//!   wormbench --workload NAME --seed N --seconds S --trace 0|1
//! Suite form (every workload, untraced then traced, N sets):
//!   wormbench [--sets N] [--seed N] [--seconds S]

mod gen;
mod layers;
mod lifecycle;
mod pin;
mod rig;
mod span;
mod spec;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use span::Recorder;
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workload::{Built, Seg, Values, Wire};

/// Set-ups per untraced run, `setup_s` being their median: at least
/// three, and more (up to seven) while they have taken under three
/// seconds together — a quarter-second set-up is one hiccup wide.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=7;
const SETUP_ENOUGH: Duration = Duration::from_secs(3);
/// Operations per segment of a traced pair, plain and traced alike, so
/// the pair compares like with like and the span file stays small.
const TRACED_SEG_OPS: usize = 8192;
const TRACED_PAIRS_MAX: usize = 4;
/// How [`rig::pipeline_depth`] reads in the output.
const CADENCE: &str = "128 KiB of records (8 to 32 requests)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    out: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        sets: 1,
        out: PathBuf::from("bench/out"),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-benchmark-json" {
            print!("{}", spec::benchmark_json());
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            "--sets" => a.sets = num()?.max(1) as usize,
            "--out" => a.out = PathBuf::from(value),
            "--commit" => a.commit = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn build(name: &str, seed: u64) -> Result<Built, String> {
    if name == lifecycle::NAME {
        return lifecycle::Lifecycle::build(seed);
    }
    let spec = spec::WIRE
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Wire::build(spec, seed)
}

/// Per metric name, one value per segment or per set.
type Series = BTreeMap<&'static str, Vec<f64>>;

/// What one run reports.
struct Run {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Values,
    /// Samples behind the read and write percentiles.
    samples: (usize, usize),
    segments: usize,
}

impl Run {
    fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// A latency quantile in µs and the samples behind it: the best decile
/// over segments of each segment's own quantile when every segment has
/// enough samples for it, else the quantile of all segments pooled.
/// Expects every segment's samples sorted.
fn latency_us(segs: &[Seg], pick: fn(&Seg) -> &Vec<u64>, q: f64) -> Option<(f64, usize)> {
    let samples: usize = segs.iter().map(|s| pick(s).len()).sum();
    let per_seg: Vec<f64> = segs
        .iter()
        .filter_map(|s| stats::percentile(pick(s), q))
        .map(|p| p as f64 / 1e3)
        .collect();
    if !per_seg.is_empty() && per_seg.len() == segs.len() {
        return stats::best_low(&per_seg).map(|m| (m, samples));
    }
    let mut pooled: Vec<u64> = segs.iter().flat_map(|s| pick(s).iter().copied()).collect();
    pooled.sort_unstable();
    stats::percentile(&pooled, q).map(|p| (p as f64 / 1e3, samples))
}

/// Folds segments into run values: medians of the counter-derived
/// values (which repeat exactly), best deciles of the headline timings.
fn fold(segs: &mut [Seg], into: &mut Values) -> (usize, usize) {
    for s in segs.iter_mut() {
        s.reads.sort_unstable();
        s.writes.sort_unstable();
    }
    let segs = &*segs;
    let mut by_name: Series = Default::default();
    for s in segs {
        for (k, v) in &s.values {
            by_name.entry(k).or_default().push(*v);
        }
    }
    for (k, v) in by_name {
        into.insert(k, stats::median(&v).expect("non-empty"));
    }
    let rates: Vec<f64> = segs.iter().map(|s| s.ops_per_s).collect();
    into.insert("ops_per_s", stats::best_high(&rates).unwrap_or(0.0));
    let mut samples = (0, 0);
    for (name, q, write) in [
        ("read_p50_us", 0.5, false),
        ("read_p99_us", 0.99, false),
        ("write_p50_us", 0.5, true),
        ("write_p99_us", 0.99, true),
    ] {
        let pick: fn(&Seg) -> &Vec<u64> = if write { |s| &s.writes } else { |s| &s.reads };
        if let Some((v, n)) = latency_us(segs, pick, q) {
            into.insert(name, v);
            if write {
                samples.1 = n;
            } else {
                samples.0 = n;
            }
        }
    }
    samples
}

fn run_one(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &std::path::Path,
) -> Result<Run, String> {
    let mut violations = Vec::new();
    let mut setup_s = Vec::new();
    let mut built: Option<Built> = None;
    loop {
        if let Some(old) = built.take() {
            // The discarded rig still goes through its gate.
            violations.extend(old.workload.finish().violations);
        }
        let started = Instant::now();
        built = Some(build(name, seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
        let spent = Duration::from_secs_f64(setup_s.iter().sum());
        let reps = setup_s.len();
        if trace
            || reps >= *SETUP_REPS.end()
            || (reps >= *SETUP_REPS.start() && spent >= SETUP_ENOUGH)
        {
            break;
        }
    }
    let Built {
        workload: mut w,
        setup_values: mut metrics,
    } = built.expect("at least one set-up");
    metrics.insert("setup_s", stats::median(&setup_s).expect("non-empty"));

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut segs: Vec<Seg> = Vec::new();
    let mut rec = Recorder::new();
    // A traced run spends its last quarter on the traced pairs.
    let plain_budget = if trace { budget * 3 / 4 } else { budget };
    while (segs.is_empty() || started.elapsed() < plain_budget) && w.can_continue() {
        segs.push(w.segment(w.seg_ops(), None));
    }
    if trace {
        // Pairs of equal short segments, one without and one with the
        // benchmark's own spans; their difference is what tracing costs.
        let ops = w.seg_ops().min(TRACED_SEG_OPS);
        let (mut plain, mut traced): (Vec<Seg>, Vec<Seg>) = Default::default();
        while (plain.is_empty() || started.elapsed() < budget)
            && plain.len() < TRACED_PAIRS_MAX
            && w.can_continue()
        {
            plain.push(w.segment(ops, None));
            traced.push(w.segment(ops, Some(&mut rec)));
        }
        let rate = |s: &[Seg]| {
            stats::best_high(&s.iter().map(|s| s.ops_per_s).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
        metrics.insert("bench.untraced_ops_per_s", plain_rate);
        metrics.insert("bench.traced_ops_per_s", traced_rate);
        metrics.insert(
            "bench.trace_overhead_pct",
            (1.0 - traced_rate / plain_rate) * 100.0,
        );
        if let Some(t) = span::totals(&rec.spans).get("client.verify") {
            metrics.insert("verify.in_run_mean_ns", t.mean_ns());
        }
        segs.extend(plain);
        segs.extend(traced);
    }
    let samples = fold(&mut segs, &mut metrics);
    if trace {
        metrics.extend(w.layers(&mut rec));
        metrics.extend(layers::primitives(w.record_bytes()));
    }

    let gate = w.finish();
    violations.extend(gate.violations);
    metrics.extend(gate.values);
    let attempted: u64 = segs.iter().map(|s| s.attempted).sum();
    let failed: u64 = segs.iter().map(|s| s.failed).sum();
    if let Some(what) = segs.iter().find_map(|s| s.first_failure.clone()) {
        violations.push(format!(
            "{failed} of {attempted} operations failed; first: {what}"
        ));
    }
    metrics.insert("error_rate", failed as f64 / attempted.max(1) as f64);
    for m in reported(trace) {
        match metrics.get(m.name) {
            Some(v) if !v.is_finite() => violations.push(format!("{} is not finite", m.name)),
            // A bounded metric is judged as a share of its median.
            Some(v) if m.bound.is_some() && *v <= 0.0 => {
                violations.push(format!("{} is not positive", m.name))
            }
            None if m.bound.is_some() => violations.push(format!("{} was not measured", m.name)),
            _ => {}
        }
    }

    if trace {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("trace_{name}.jsonl"));
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        rec.write_jsonl(&mut f)
            .and_then(|()| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        print_layer_table(name, &rec, &metrics, &path);
    }
    Ok(Run {
        attempted,
        failed,
        violations,
        metrics,
        samples,
        segments: segs.len(),
    })
}

/// The layer budget from the benchmark's own spans: per span name the
/// count, mean time, mean self time, and share of a strict wire round
/// trip.
fn print_layer_table(name: &str, rec: &Recorder, metrics: &Values, path: &std::path::Path) {
    let rtt = metrics.get("wire.rtt_raw_ns").copied().unwrap_or(0.0);
    println!(
        "layer table for {name} ({} spans in {}):",
        rec.spans.len(),
        path.display()
    );
    println!(
        "  {:<22} {:>9} {:>12} {:>12} {:>9}",
        "span", "count", "mean ns", "self ns", "% of rtt"
    );
    for (span, t) in span::totals(&rec.spans) {
        println!(
            "  {:<22} {:>9} {:>12.0} {:>12.0} {:>8.1}%",
            span,
            t.count,
            t.mean_ns(),
            t.mean_self_ns(),
            if rtt > 0.0 {
                t.mean_ns() / rtt * 100.0
            } else {
                0.0
            }
        );
    }
    if let Some(residual) = metrics.get("wire.residual_ns") {
        println!(
            "  {:<22} {:>9} {:>12.0} {:>12} {:>8.1}%   (rtt - read_plane - encode - frame - decode: reactor, syscalls, wake-ups)",
            "wire.residual", "", residual, "", residual / rtt * 100.0
        );
    }
}

fn reported(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result object the driver reads: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`.
fn result_json(run: &Run, trace: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.correct(),
        run.attempted.max(1),
        run.failed
    );
    for (i, m) in reported(trace).iter().enumerate() {
        let v = run.metrics.get(m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("string write");
    }
    s.push_str("}}");
    s
}

fn print_run(name: &str, run: &Run, trace: bool) {
    println!(
        "{name} ({}): {} segments, {} attempted, {} failed",
        if trace { "traced" } else { "untraced" },
        run.segments,
        run.attempted,
        run.failed
    );
    for m in reported(trace) {
        let Some(v) = run.metrics.get(m.name) else {
            continue; // not applicable to this workload
        };
        let n = match m.name {
            "read_p50_us" | "read_p99_us" => format!("  (n={})", run.samples.0),
            "write_p50_us" | "write_p99_us" => format!("  (n={})", run.samples.1),
            _ => String::new(),
        };
        println!("  {:<44} {:>16.4} {}{n}", m.name, v, m.unit);
    }
    for v in &run.violations {
        println!("  VIOLATION: {v}");
    }
}

fn env_line() -> String {
    format!(
        "env: nproc={} keys={}/{} bits, closed loop, 1 client, pipeline filled to {CADENCE} and drained to half, 1 reactor worker pinned to one CPU and the generator to another, loopback (not a real link), flush policy: none (wormstore never syncs; device latency is this sandbox's memory, not a disk's)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rig::STRONG_BITS,
        rig::WEAK_BITS,
    )
}

/// Every workload, untraced then traced, `sets` times; with more than
/// one set, each bounded metric's range across sets against its bound.
fn suite(args: &Args) -> Result<bool, String> {
    println!("{}", env_line());
    let mut ok = true;
    // [workload][metric] -> one value per set
    let mut table: Vec<Series> = vec![Default::default(); WORKLOADS.len()];
    for set in 0..args.sets {
        println!(
            "== set {} of {} (seed {}, {} s per run) ==",
            set + 1,
            args.sets,
            args.seed,
            args.seconds
        );
        for (i, (name, _)) in WORKLOADS.iter().enumerate() {
            for trace in [false, true] {
                let run = run_one(name, args.seed, args.seconds, trace, &args.out)?;
                print_run(name, &run, trace);
                ok &= run.correct();
                for m in reported(trace) {
                    if let Some(v) = run.metrics.get(m.name) {
                        table[i].entry(m.name).or_default().push(*v);
                    }
                }
            }
        }
    }
    if args.sets > 1 {
        println!("== agreement across {} sets ==", args.sets);
        for (i, (name, _)) in WORKLOADS.iter().enumerate() {
            for m in END_TO_END.iter().chain(&PER_LAYER) {
                let Some(values) = table[i].get(m.name) else {
                    continue;
                };
                let spread = stats::rel_range(values).unwrap_or(0.0);
                let verdict = match m.bound {
                    Some(b) if spread <= b => "PASS",
                    Some(_) => {
                        ok = false;
                        "FAIL"
                    }
                    None => "",
                };
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!(
                    "  {name:<24} {:<44} [{}] {} spread {:.2}%{} {verdict}",
                    m.name,
                    shown.join(", "),
                    m.unit,
                    spread * 100.0,
                    m.bound
                        .map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0)),
                );
            }
        }
    }
    write_results(args, &table)?;
    Ok(ok)
}

/// `out/results.json`: the environment and every value of every set.
fn write_results(args: &Args, table: &[Series]) -> Result<(), String> {
    let mut s = String::from("{\n  \"env\": {");
    write!(
        s,
        "\"nproc\": {}, \"strong_bits\": {}, \"weak_bits\": {}, \"cadence\": \"closed loop, 1 client, pipeline filled to {CADENCE} and drained to half\", \"seed\": {}, \"seconds\": {}, \"commit\": \"{}\", \"link\": \"loopback\", \"flush_policy\": \"none\"",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rig::STRONG_BITS,
        rig::WEAK_BITS,
        args.seed,
        args.seconds,
        args.commit.replace(['"', '\\'], ""),
    )
    .expect("string write");
    s.push_str("},\n  \"workloads\": {\n");
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        write!(s, "    \"{name}\": {{").expect("string write");
        for (j, (metric, values)) in table[i].iter().enumerate() {
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let sep = if j == 0 { "" } else { ", " };
            write!(s, "{sep}\"{metric}\": [{}]", list.join(", ")).expect("string write");
        }
        s.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    s.push_str("  }\n}\n");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wormbench: {e}");
        std::process::exit(2);
    });
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        eprintln!(
            "wormbench: {cpus} CPU available; the server worker and the generator need one each"
        );
        std::process::exit(2);
    }
    let ok = match &args.workload {
        Some(name) => {
            println!("{}", env_line());
            run_one(name, args.seed, args.seconds, args.trace, &args.out).map(|run| {
                print_run(name, &run, args.trace);
                println!("{}", result_json(&run, args.trace));
                run.correct()
            })
        }
        None => suite(&args),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("wormbench: {e}");
            std::process::exit(1);
        }
    }
}
