//! Probes the simulator sources for the lever accessors the benchmark
//! reads counters from, so a later change that deletes a lever (the
//! fleet-wide skeleton cache, the plan memo) still builds: the benchmark
//! then reports that lever's counters as absent instead of failing.

use std::fs;
use std::path::Path;

/// `(cfg flag, source directory, accessor signature)` per probed lever.
const PROBES: [(&str, &str, &str); 2] = [
    (
        "perfbench_skeleton_cache",
        "../crates/fleet/src",
        "pub fn skeleton_cache_counters(",
    ),
    (
        "perfbench_plan_cache",
        "../crates/econ/src",
        "pub fn plan_cache_stats(",
    ),
];

fn dir_mentions(dir: &Path, needle: &str) -> bool {
    let Ok(entries) = fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|entry| {
        let path = entry.path();
        if path.is_dir() {
            dir_mentions(&path, needle)
        } else {
            path.extension().is_some_and(|e| e == "rs")
                && fs::read_to_string(&path).is_ok_and(|src| src.contains(needle))
        }
    })
}

fn main() {
    for (flag, dir, needle) in PROBES {
        println!("cargo::rustc-check-cfg=cfg({flag})");
        println!("cargo::rerun-if-changed={dir}");
        if dir_mentions(Path::new(dir), needle) {
            println!("cargo::rustc-cfg={flag}");
        }
    }
}
