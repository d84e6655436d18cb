//! Order statistics and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// The `p`-quantile of `values` (nearest rank on the sorted copy).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Splits `(at_ns, value)` samples into the consecutive sub-windows of
/// `width` that fit whole into `total` (at least one), dropping samples
/// past the last of them.
pub fn sub_windows(
    samples: impl IntoIterator<Item = (u64, f64)>,
    width: Duration,
    total: Duration,
) -> Vec<Vec<f64>> {
    let count = ((total.as_nanos() / width.as_nanos().max(1)) as usize).max(1);
    let width_ns = (total.as_nanos() as u64 / count as u64).max(1);
    let mut windows = vec![Vec::new(); count];
    for (at, value) in samples {
        if let Some(w) = windows.get_mut((at / width_ns) as usize) {
            w.push(value);
        }
    }
    windows
}

/// The median over sub-windows of each sub-window's `p`-quantile, so a
/// burst of interference from outside moves one sub-window, not the
/// figure.
pub fn windowed_quantile(windows: &[Vec<f64>], p: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, p))
        .collect();
    median(&per)
}

/// The median over sub-windows of each sub-window's sum per second.
pub fn windowed_rate(windows: &[Vec<f64>], total: Duration) -> f64 {
    let width = total.as_secs_f64() / windows.len() as f64;
    let per: Vec<f64> = windows
        .iter()
        .map(|w| w.iter().sum::<f64>() / width)
        .collect();
    median(&per)
}

/// Named metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Prints the human-readable table to stderr.
    pub fn print_table(&self, title: &str) {
        eprintln!("perfbench: {title}");
        for (name, value, unit) in &self.entries {
            eprintln!("  {name:<34} {value:>16.4} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Tally of attempted and failed operations.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
