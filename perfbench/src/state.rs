//! The durable state a run leaves behind: its size, and the reopen check
//! every workload applies to it.

use std::path::Path;
use std::time::Instant;

use lingxi_core::{BinLogConfig, BinaryStateLog, StateBackend};

use crate::report::Outcome;
use crate::trace::Tracer;

/// Reopen a finished run's binary state log and check recovery: no
/// warnings, exactly the expected users, and every one of them loads.
/// Returns the users' summed lifetime optimisation counts.
pub fn verify_binlog(
    dir: &Path,
    expected: &[u64],
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<usize, String> {
    let t0 = Instant::now();
    let span = tracer.as_mut().map(|t| t.enter("core.binlog"));
    let log = BinaryStateLog::open(dir, BinLogConfig::default()).map_err(|e| e.to_string())?;
    let open_s = t0.elapsed().as_secs_f64();
    let scan = log.scan().map_err(|e| e.to_string())?;
    let warnings = log.recovery_warnings().len() + scan.warnings.len();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if scan.ids != want {
        out.fail(format!(
            "reopened state log holds {} users, expected {}",
            scan.ids.len(),
            want.len()
        ));
    }
    let mut optimizations = 0usize;
    let mut lost = 0usize;
    for &id in &want {
        match log.load(id).map_err(|e| e.to_string())? {
            Some(state) if state.user_id == id => optimizations += state.optimizations,
            _ => lost += 1,
        }
    }
    if lost > 0 {
        out.fail(format!("{lost} users lost across reopen"));
    }
    if warnings > 0 {
        out.fail(format!("{warnings} recovery warnings on reopen"));
    }
    if let (Some(t), Some(id)) = (tracer, span) {
        t.exit(id);
    }
    out.counter("core.binlog.open_s", open_s);
    out.counter("core.binlog.records", scan.ids.len() as f64);
    out.counter("core.binlog.recovery_warnings", warnings as f64);
    out.counter("core.binlog.state_bytes", dir_bytes(dir) as f64);
    out.counter(
        "core.binlog.snapshot_bytes",
        dir_bytes_with_suffix(dir, ".snap") as f64,
    );
    Ok(optimizations)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes of the files under `dir` whose name ends with `suffix`.
pub fn dir_bytes_with_suffix(dir: &Path, suffix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}
