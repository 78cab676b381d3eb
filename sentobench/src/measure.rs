//! Measurement plumbing shared by every workload: metric records,
//! order statistics, the hand-written result line, `/proc` readers,
//! repeated set-up, and self-deleting scratch directories.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times each workload sets itself up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run reports: operations attempted and failed, the
/// FNV digest of every output it checked, and its metrics (end-to-end in
/// a timed run, per-layer in a traced run).
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub output_digest: u64,
    pub metrics: Vec<Metric>,
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a, folded over successive byte strings: the cross-commit
/// `output_digest` of every document a workload checked.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The result line: the last line of standard output, one JSON object.
pub fn result_json(correct: bool, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest string that parses back to the same
        // f64, so no digit is lost; JSON has no NaN or infinity.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The `VmHWM` (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of a process, in ms. Linux reports it in
/// clock ticks; the tick is 10 ms on every mainstream kernel
/// configuration (USER_HZ = 100).
pub fn cpu_ms(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `) `.
    let rest = stat
        .rsplit_once(") ")
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {} missing", i + 3))
    };
    Ok((tick(11)? + tick(12)?) * 10.0)
}

/// A scratch directory inside the checkout, deleted when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a workload's set-up [`SETUPS`] times, keeping the last state
/// (earlier ones are dropped, which deletes their stores and stops their
/// daemons) and returning the median set-up time in seconds, so work
/// moved into set-up shows and one slow file-system call does not.
pub fn set_up<T>(mut make: impl FnMut(usize) -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let started = Instant::now();
        state = Some(make(i)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let state = state.expect("SETUPS is at least one");
    Ok((state, quantile(&times, 0.5)))
}

/// Equal time slices of a measured window. Every end-to-end statistic
/// but set-up time and memory is computed per slice, and the best slice
/// is reported (lowest latency or CPU, highest rate): the host is a
/// shared two-vCPU machine where a co-tenant can slow this process by
/// up to half for seconds at a time, and the best slice is the one such
/// an episode touched least. A change that slows the program slows every
/// slice, the best one included.
pub const SLICES: usize = 5;

/// What a workload measured in its window: each completed unit (when it
/// ended, in seconds since the window opened, and its latency in ms) and
/// CPU-time marks `(seconds since the window opened, CPU ms so far)` of
/// the serving process, starting with one at 0.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub seconds: f64,
    pub units: Vec<(f64, f64)>,
    pub cpu: Vec<(f64, f64)>,
}

impl Window {
    /// The CPU mark in force at `t`: the last one taken no later (within
    /// a microsecond, so marks taken at slice boundaries count).
    fn cpu_at(&self, t: f64) -> f64 {
        self.cpu
            .iter()
            .take_while(|(at, _)| *at <= t + 1e-6)
            .last()
            .map_or(0.0, |&(_, ms)| ms)
    }
}

/// The end-to-end metrics every workload reports: per slice of the
/// window, the median and p90 unit latency, units completed per second
/// and CPU per unit, each reported from its best slice. Peak RSS covers
/// the whole process.
pub fn end_to_end(setup_s: f64, w: &Window, peak_rss_mb: f64) -> Vec<Metric> {
    let len = w.seconds / SLICES as f64;
    let mut stats: [Vec<f64>; 4] = Default::default();
    for k in 0..SLICES {
        let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
        let in_slice = |end: f64| (lo..hi).contains(&end) || (k + 1 == SLICES && end >= hi);
        let units: Vec<(f64, f64)> = w.units.iter().copied().filter(|u| in_slice(u.0)).collect();
        if units.is_empty() {
            continue;
        }
        let lat: Vec<f64> = units.iter().map(|u| u.1).collect();
        let cpu = w.cpu_at(hi) - w.cpu_at(lo);
        stats[0].push(quantile(&lat, 0.5));
        stats[1].push(quantile(&lat, 0.9));
        // The completion rate between the slice's first and last
        // completions: a count over a fixed slice would be quantised.
        let first = units.iter().map(|u| u.0).fold(f64::INFINITY, f64::min);
        let last = units.iter().map(|u| u.0).fold(f64::NEG_INFINITY, f64::max);
        if last > first {
            stats[2].push((lat.len() - 1) as f64 / (last - first));
        }
        stats[3].push(cpu / lat.len() as f64);
    }
    let best = |v: &Vec<f64>| quantile(v, 0.0);
    let best_rate = |v: &Vec<f64>| quantile(v, 1.0);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("unit_p50_ms", best(&stats[0]), "ms"),
        metric("unit_p90_ms", best(&stats[1]), "ms"),
        metric("units_per_s", best_rate(&stats[2]), "1/s"),
        metric("cpu_ms_per_unit", best(&stats[3]), "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let line = result_json(
            true,
            &Outcome {
                attempted: 3,
                failed: 0,
                output_digest: 0,
                metrics: vec![metric("a_ms", 1.0 / 3.0, "ms")],
            },
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(cpu_ms("self").unwrap() >= 0.0);
    }
}
