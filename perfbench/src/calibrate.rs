//! Host-speed calibration: a fixed kernel that calls none of the
//! repository's code. On a shared host the same code runs up to about
//! 2x slower for minutes at a time, because neighbours load the same
//! caches and memory. `run.py` times this kernel in a process of
//! its own before and after every measured process, and scales the
//! measured times by how much slower than its reference time the kernel
//! ran around them.

use crate::util::JsonLine;
use std::collections::HashMap;
use std::time::Instant;

/// Keys generated, counted in a hash map, looked up and sorted: like the
/// pipeline's grouping kernels, hashing and memory bound.
const KEYS: usize = 1_000_000;

/// Runs the kernel once on each of `threads` threads at the same time,
/// as many as the workload keeps busy, so that it meets the contention
/// on every core the workload uses. Reports the mean kernel time.
pub fn run(threads: usize) -> Result<String, String> {
    let threads = threads.max(1);
    let times = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "calibration thread panicked".to_string())
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    let mut line = JsonLine::default();
    line.num("calibration_s", times.iter().sum::<f64>() / threads as f64);
    Ok(line.finish())
}

/// Seconds one pass of the kernel takes.
fn kernel() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys = Vec::with_capacity(KEYS);
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x % KEYS as u64);
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &k in &keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    let mut check = 0u64;
    for k in &keys {
        check = check.wrapping_add(counts.get(k).copied().unwrap_or(0));
    }
    keys.sort_unstable();
    check = check.wrapping_add(keys.get(KEYS / 2).copied().unwrap_or(0));
    std::hint::black_box(check);
    t.elapsed().as_secs_f64()
}
