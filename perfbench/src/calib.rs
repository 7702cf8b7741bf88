//! Machine-speed reference: a fixed CPU kernel that calls no workspace
//! code.
//!
//! On a shared machine the speed available to one process drifts by 20-40%
//! over minutes as other tenants come and go. Each repetition times this
//! kernel just before and just after its workload. `run.py` scales the
//! repetition's timings by the kernel's time against a fixed reference, so
//! a drift that slows the workload and the kernel alike cancels. No change
//! to the program under test can move the kernel.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations: about 0.15 s on an idle 2 GHz core.
const ITERS: u64 = 8_000_000;

/// Wall time of one kernel pass (seconds).
pub fn kernel_seconds() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(ITERS)));
    t0.elapsed().as_secs_f64()
}

/// Integer, floating-point and L2-sized table work with data-dependent
/// branches, the mix the simulator itself runs.
fn kernel(iters: u64) -> f64 {
    let mut table = vec![0.0f64; 16 * 1024];
    let mask = table.len() - 1;
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..iters {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let idx = s as usize & mask;
        let x = (s >> 11) as f64 / (1u64 << 53) as f64;
        let v = table[idx] * 0.999 + x.sqrt() * (1.0 + x).ln();
        table[idx] = v;
        if v > 1.0 {
            acc += v;
        } else {
            acc -= x * 0.5;
        }
        if i % 1024 == 0 {
            acc = acc.abs().min(1e9);
        }
    }
    acc + table[0]
}
