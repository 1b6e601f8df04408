//! Thread placement. With two busy threads on two CPUs the scheduler
//! is free to stack the server's worker on the generator's CPU at every
//! wake-up; whether it does decides the hot-read rate (150k vs 220k
//! reads/s on this sandbox) and flips from run to run. Placement is an
//! input of the benchmark, not a property of the program, so it is
//! fixed: server threads on the first allowed CPU, the generator on the
//! second.

use std::fs;
use std::sync::OnceLock;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

fn pin(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is MASK_WORDS * 8 readable bytes and that is the
    // size passed; the call only reads it, and `tid` 0 or a thread of
    // this process is a valid target.
    unsafe { sched_setaffinity(tid, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// CPUs this process was allowed to run on when first asked (before
/// any pinning narrowed the calling thread), from `Cpus_allowed_list`.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("")
            .trim();
        parse_cpu_list(list)
    })
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins every `wormnet-*` thread to the first allowed CPU and the
/// calling thread to the second. Returns the two CPUs, or `None` when
/// fewer than two are allowed or the kernel refuses.
pub fn place_server_and_generator() -> Option<(usize, usize)> {
    let cpus = allowed_cpus();
    let (&server_cpu, &generator_cpu) = (cpus.first()?, cpus.get(1)?);
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.starts_with("wormnet-") {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            if !pin(tid, server_cpu) {
                return None;
            }
        }
    }
    pin(0, generator_cpu).then_some((server_cpu, generator_cpu))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3,7"), vec![0, 2, 3, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }
}
