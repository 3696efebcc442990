//! Process memory probes, a flat JSON line writer and small helpers.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// One field of `/proc/self/status` (`VmHWM`, `VmRSS`, …) in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Restarts the peak-RSS mark from the current RSS, so the next
/// [`peak_rss_mb`] reads the peak of what runs in between. Where the
/// kernel refuses, the mark stays monotonic.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A flat JSON object written field by field (the benchmark's outputs
/// are numbers, number lists and plain ASCII strings).
#[derive(Default)]
pub struct JsonLine {
    body: String,
}

impl JsonLine {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{k}\":");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        // `+ 0.0` turns the `-0` of an empty float sum into `0`.
        let v = if v.is_finite() { v + 0.0 } else { 0.0 };
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(self.body, "{v}");
        }
        self.body.push(']');
        self
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}
