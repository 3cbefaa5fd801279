//! Small numeric helpers, the metric sink every workload writes into,
//! and the set-up and round loops the workloads share.

use crate::spans::Tracer;
use std::time::Instant;

/// Set-ups in one set-up batch.
pub const SETUP_REPS: usize = 9;

/// A workload's set-up: `make` builds what the timed region needs, and
/// `discard` tears down a copy that is not used.
///
/// The host's speed drifts in phases of seconds to minutes, and a set-up
/// of a few milliseconds lands inside one phase, where the timed region
/// spans several. So a run sets up in batches spread over the run: one
/// before the first round, one between rounds, and one after the last.
/// `setup_s` is the mean of the batch medians.
pub struct SetUp<M, D> {
    make: M,
    discard: D,
    medians: Vec<f64>,
}

impl<T, M, D> SetUp<M, D>
where
    M: FnMut() -> Result<T, String>,
    D: FnMut(T) -> Result<(), String>,
{
    pub fn new(make: M, discard: D) -> Self {
        SetUp {
            make,
            discard,
            medians: Vec::new(),
        }
    }

    /// Sets up [`SETUP_REPS`] times, timing each, discards all but the
    /// last copy untimed, and returns the last.
    pub fn batch(&mut self) -> Result<T, String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut made = self.timed(&mut times)?;
        for _ in 1..SETUP_REPS {
            (self.discard)(made)?;
            made = self.timed(&mut times)?;
        }
        self.medians.push(median(&times));
        Ok(made)
    }

    fn timed(&mut self, times: &mut Vec<f64>) -> Result<T, String> {
        let t = Instant::now();
        let made = (self.make)()?;
        times.push(t.elapsed().as_secs_f64());
        Ok(made)
    }

    /// A batch whose last copy is discarded too.
    pub fn sample(&mut self) -> Result<(), String> {
        let last = self.batch()?;
        (self.discard)(last)
    }

    /// `setup_s`: takes the last batch and returns the mean of the batch
    /// medians.
    pub fn finish(mut self) -> Result<f64, String> {
        self.sample()?;
        Ok(self.medians.iter().sum::<f64>() / self.medians.len() as f64)
    }
}

/// One timed round: its host time, its (start, end) on the tracer's
/// clock, and what it produced.
pub struct Round<T> {
    pub wall_s: f64,
    pub region: (u64, u64),
    pub out: T,
}

/// Runs `round` until the next one would end after `seconds` (at least
/// once), timing each, and calls `between` untimed between two rounds.
pub fn rounds<T>(
    seconds: f64,
    tracer: &Tracer,
    mut between: impl FnMut() -> Result<(), String>,
    mut round: impl FnMut() -> Result<T, String>,
) -> Result<Vec<Round<T>>, String> {
    let start = Instant::now();
    let mut out: Vec<Round<T>> = Vec::new();
    while out
        .last()
        .is_none_or(|r| start.elapsed().as_secs_f64() + r.wall_s <= seconds)
    {
        if !out.is_empty() {
            between()?;
        }
        let t = Instant::now();
        let t0 = tracer.now_ns();
        let produced = round()?;
        out.push(Round {
            wall_s: t.elapsed().as_secs_f64(),
            region: (t0, tracer.now_ns()),
            out: produced,
        });
    }
    Ok(out)
}

pub fn median_wall<T>(rounds: &[Round<T>]) -> f64 {
    median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

/// The tracer-clock interval from the first round's start to the last
/// round's end.
pub fn span_of<T>(rounds: &[Round<T>]) -> (u64, u64) {
    (rounds[0].region.0, rounds[rounds.len() - 1].region.1)
}

/// Metrics in insertion order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(value, percentile, samples above)`. With ten or fewer samples no
/// such percentile exists and the maximum is returned with 0 above.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(f64::NAN), 100.0, 0);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n - 1 - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, above) = tail(&v);
        assert_eq!((value, above), (90.0, 10));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0, 0));
    }

    #[test]
    fn set_up_keeps_the_last_copy_of_each_batch() {
        let (mut made, mut discarded) = (0, Vec::new());
        let mut s = SetUp::new(
            || {
                made += 1;
                Ok(made)
            },
            |n| {
                discarded.push(n);
                Ok(())
            },
        );
        assert_eq!(s.batch(), Ok(SETUP_REPS));
        assert!(s.finish().is_ok_and(|t| t >= 0.0));
        let want: Vec<usize> = (1..SETUP_REPS)
            .chain(SETUP_REPS + 1..=2 * SETUP_REPS)
            .collect();
        assert_eq!((made, discarded), (2 * SETUP_REPS, want));
    }
}
