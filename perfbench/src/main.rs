//! One benchmark run of one workload, as a child process of `run.py`.
//!
//! ```text
//! lingxi-perfbench --workload NAME --seed N --dir DIR [--traced] [--spans FILE]
//! ```
//!
//! Prints one JSON line: timings, simulated QoE, a fingerprint of the
//! simulated outputs, per-layer counters, the failed output checks, and
//! the time of a reference kernel run just before and after the workload.
//! `--traced` runs the traced variant and adds per-layer self-times;
//! `--spans` writes the span records there. The run's state lives under
//! `DIR`, which is removed afterwards.

#![forbid(unsafe_code)]

mod calib;
mod fleet;
mod lowbw;
mod report;
mod state;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut spans = None;
    let mut traced = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--dir", Some(v)) => dir = Some(PathBuf::from(v)),
            ("--spans", Some(v)) => spans = Some(PathBuf::from(v)),
            ("--traced", _) => {
                traced = true;
                i += 1;
                continue;
            }
            (flag, _) => {
                eprintln!("unknown or incomplete argument {flag}");
                return ExitCode::from(2);
            }
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(dir)) = (workload, seed, dir) else {
        eprintln!(
            "usage: lingxi-perfbench --workload NAME --seed N --dir DIR [--traced] [--spans FILE]"
        );
        return ExitCode::from(2);
    };
    let kernel_before = calib::kernel_seconds();
    let result = match workload.as_str() {
        "pod_alphafair" => fleet::run(fleet::Kind::PodAlphaFair, seed, &dir, traced),
        "population_week" => fleet::run(fleet::Kind::PopulationWeek, seed, &dir, traced),
        "lingxi_lowbw" => lowbw::run(seed, &dir, traced),
        other => Err(format!("unknown workload {other}")),
    };
    let kernel_after = calib::kernel_seconds();
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(mut out) => {
            out.kernel_s = (kernel_before + kernel_after) / 2.0;
            if let (Some(path), Some(t)) = (&spans, &out.trace) {
                if let Err(e) = std::fs::write(path, t.dump()) {
                    out.fail(format!("writing spans to {path:?}: {e}"));
                }
            }
            println!("{}", out.render(&workload, seed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{workload} seed {seed}: {e}");
            ExitCode::FAILURE
        }
    }
}
