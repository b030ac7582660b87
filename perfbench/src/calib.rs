//! The machine-speed probe behind the end-to-end timings.
//!
//! On a shared host the same build runs up to 2x slower for tens of
//! seconds at a time while neighbours load the memory system. The timed
//! run therefore brackets every repetition with a fixed calibration pass
//! (hashing, sorting and small allocations, the mix the simulator itself
//! is made of) and reports times in reference seconds: wall seconds
//! divided by how much slower than [`REFERENCE_SECS`] the pass ran. The
//! pass is the benchmark's own code and runs in a child process, so
//! neither a change to the simulator nor the state of the measured
//! process's heap moves it, and its memory never counts in
//! `peak_rss_mib`.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A round figure near one pass on a 2-vCPU Xeon VM at 2.1 GHz, where
/// a pass took 12 to 19 ms as the neighbours' load varied: the unit the
/// timed run's seconds are expressed in.
pub const REFERENCE_SECS: f64 = 0.015;

/// Runs one calibration pass and returns its wall time in seconds.
fn pass() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A fixed-key hasher keeps the pass identical from run to run.
    let mut map: HashMap<u64, u64, BuildHasherDefault<std::hash::DefaultHasher>> =
        HashMap::default();
    for _ in 0..40_000 {
        let k = next() % 100_000;
        map.insert(k, k);
    }
    let hits = (0..200_000)
        .filter(|_| map.contains_key(&(next() % 100_000)))
        .count();
    let mut sorted: Vec<u64> = (0..100_000).map(|_| next()).collect();
    sorted.sort_unstable();
    let boxes: Vec<Vec<u8>> = (0..40_000).map(|i| vec![0u8; 16 + i % 64]).collect();
    std::hint::black_box((hits, sorted[sorted.len() / 2], boxes));
    started.elapsed().as_secs_f64()
}

/// The flag that makes the benchmark binary run [`child_main`].
pub const FLAG: &str = "--calibrate";

/// Mean time of `threads` concurrent passes, each timed after one
/// warm-up pass that faults the child's heap in.
fn mean_pass_secs(threads: usize) -> f64 {
    let warm = || {
        pass();
        pass()
    };
    if threads <= 1 {
        return warm();
    }
    std::thread::scope(|s| {
        let passes: Vec<_> = (0..threads).map(|_| s.spawn(warm)).collect();
        passes
            .into_iter()
            .map(|p| p.join().expect("calibration pass panicked"))
            .sum::<f64>()
            / threads as f64
    })
}

/// Entry point of the calibration child: prints the mean pass time.
pub fn child_main(threads: &str) -> i32 {
    match threads.parse::<usize>() {
        Ok(n) if (1..=64).contains(&n) => {
            println!("{}", mean_pass_secs(n));
            0
        }
        _ => 2,
    }
}

/// How much slower than the reference the machine runs now: the mean
/// time of `threads` concurrent passes, run in a child process, over
/// [`REFERENCE_SECS`]. `None` if the child cannot run.
#[cfg(not(test))]
#[must_use]
pub fn slowdown(threads: usize) -> Option<f64> {
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .args([FLAG, &threads.to_string()])
        .output()
        .ok()?;
    let secs: f64 = std::str::from_utf8(&out.stdout).ok()?.trim().parse().ok()?;
    (out.status.success() && secs > 0.0).then_some(secs / REFERENCE_SECS)
}

/// The test harness binary has no calibration mode: unit tests time the
/// passes in-process.
#[cfg(test)]
#[must_use]
pub fn slowdown(threads: usize) -> Option<f64> {
    Some(mean_pass_secs(threads) / REFERENCE_SECS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_take_positive_time_on_one_and_two_threads() {
        for threads in [1, 2] {
            let s = mean_pass_secs(threads);
            assert!(s.is_finite() && s > 0.0, "{threads}: {s}");
        }
        assert_eq!(child_main("0"), 2);
        assert_eq!(child_main("x"), 2);
    }
}
