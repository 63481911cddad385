//! The measured window, cut into slices, and the quiet third of them.
//!
//! On a shared 2-core box a co-tenant slows a core by a quarter, or takes
//! it away for milliseconds at a time, in bursts that last from a fraction
//! of a second to ten seconds: identical integer work, timed over 20 s
//! windows, varies by 7 % (interquartile) from window to window, and a
//! lock-step serving loop by twice that.  The disturbance is one-sided, so
//! every timing metric is computed over the *quiet third* of the window: it
//! is cut into slices of consecutive repeating units (lock-step steps,
//! simulation episodes, passes) spanning at least [`SLICE_S`] seconds, the
//! slices are ranked by throughput, and the fastest [`QUIET_SHARE`] of them
//! are pooled.  A window that is disturbed for up to two thirds of its
//! length then reads as an undisturbed one.

use crate::process_cpu_s;
use crate::report::Outcome;
use crate::stats::{median, samples_beyond, supports_percentile, Summary};
use std::ops::Range;
use std::time::Instant;

/// Minimum slice length, seconds.
pub const SLICE_S: f64 = 0.5;

/// Share of the window's slices, fastest first, the timing metrics pool.
pub const QUIET_SHARE: f64 = 1.0 / 3.0;

/// One closed slice of the window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// The repeating units it spans.
    pub units: Range<usize>,
    /// Its wall time, seconds.
    pub wall_s: f64,
    /// Process CPU time consumed during it, seconds.
    pub cpu_s: f64,
}

/// Cuts slices at unit boundaries while the workload runs.
pub struct SliceClock {
    min_s: f64,
    opened: Instant,
    slice_opened: Instant,
    slice_cpu_s: f64,
    first_unit: usize,
    units: usize,
    slices: Vec<Slice>,
}

impl SliceClock {
    /// Open the measured window.
    pub fn open(min_s: f64) -> SliceClock {
        let now = Instant::now();
        SliceClock {
            min_s,
            opened: now,
            slice_opened: now,
            slice_cpu_s: process_cpu_s(),
            first_unit: 0,
            units: 0,
            slices: Vec::new(),
        }
    }

    /// Wall seconds since the window opened.
    pub fn elapsed_s(&self) -> f64 {
        self.opened.elapsed().as_secs_f64()
    }

    /// One more unit is complete; closes the slice once it is long enough.
    /// CPU time is read only then, so the per-unit cost is one clock read.
    pub fn unit_done(&mut self) {
        self.units += 1;
        if self.slice_opened.elapsed().as_secs_f64() >= self.min_s {
            self.end_slice();
        }
    }

    /// Close the current slice here, whatever its length: for a workload
    /// whose units come in episodes of identical work, so that every slice
    /// holds the same work and ranking them compares like with like.
    pub fn end_slice(&mut self) {
        if self.units == self.first_unit {
            return;
        }
        let now = Instant::now();
        let cpu_now = process_cpu_s();
        self.slices.push(Slice {
            units: self.first_unit..self.units,
            wall_s: (now - self.slice_opened).as_secs_f64(),
            cpu_s: cpu_now - self.slice_cpu_s,
        });
        self.slice_opened = now;
        self.slice_cpu_s = cpu_now;
        self.first_unit = self.units;
    }

    /// Close the window.  Units after the last cut join the last slice
    /// (or form the only one).
    pub fn finish(mut self) -> Vec<Slice> {
        if self.units > self.first_unit {
            let wall_s = self.slice_opened.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - self.slice_cpu_s;
            match self.slices.last_mut() {
                Some(last) => {
                    last.units.end = self.units;
                    last.wall_s += wall_s;
                    last.cpu_s += cpu_s;
                }
                None => self.slices.push(Slice {
                    units: 0..self.units,
                    wall_s,
                    cpu_s,
                }),
            }
        }
        self.slices
    }
}

/// In a traced run, whether spans are recorded for block `index` — a slice
/// on the serving workloads, a pass on the WAN ones.  Blocks alternate, so
/// the untraced ones are the reference the traced ones are compared with
/// and a workload that drifts over the window does not pass for overhead.
pub fn block_is_traced(index: usize) -> bool {
    index % 2 == 1
}

/// Relative slow-down, percent, of the `(unit, latency_ms)` samples whose
/// unit is traced over those whose unit is not (medians compared).
pub fn trace_overhead_pct(samples: &[(usize, f64)], is_traced: impl Fn(usize) -> bool) -> f64 {
    let of = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|(unit, _)| is_traced(*unit) == traced)
            .map(|&(_, ms)| ms)
            .collect()
    };
    let (untraced, traced) = (of(false), of(true));
    if untraced.is_empty() || traced.is_empty() {
        return 0.0;
    }
    let base = median(&untraced);
    (median(&traced) - base) / base * 100.0
}

/// Set `op_latency_p50_ms`, `op_latency_p95_ms`, `ops_per_s`,
/// `cpu_ms_per_op` and `bench.samples` from the quiet third of the window.
///
/// `samples` are `(unit, latency_ms)` — one per verified operation, tagged
/// with the unit that produced it.  A slice's operation count is its
/// sample count over `sharing`: the serving workloads deliver every frame
/// to `sharing` connections and count frames per connection.
pub fn slice_metrics(
    outcome: &mut Outcome,
    slices: &[Slice],
    samples: &[(usize, f64)],
    sharing: f64,
) {
    struct Measured<'a> {
        slice: &'a Slice,
        latencies: Vec<f64>,
        rate: f64,
    }
    let mut measured: Vec<Measured> = slices
        .iter()
        .map(|slice| {
            let latencies: Vec<f64> = samples
                .iter()
                .filter(|(unit, _)| slice.units.contains(unit))
                .map(|&(_, ms)| ms)
                .collect();
            let rate = latencies.len() as f64 / sharing / slice.wall_s;
            Measured {
                slice,
                latencies,
                rate,
            }
        })
        .filter(|m| !m.latencies.is_empty())
        .collect();
    measured.sort_by(|a, b| b.rate.total_cmp(&a.rate));
    let quiet = &measured[..((measured.len() as f64 * QUIET_SHARE).ceil() as usize).max(1)];

    let pooled: Vec<f64> = quiet
        .iter()
        .flat_map(|m| m.latencies.iter().copied())
        .collect();
    let ops = pooled.len() as f64 / sharing;
    let summary = Summary::of(&pooled);
    outcome.set("op_latency_p50_ms", summary.p50);
    outcome.set("op_latency_p95_ms", summary.p95);
    outcome.set(
        "ops_per_s",
        ops / quiet.iter().map(|m| m.slice.wall_s).sum::<f64>(),
    );
    outcome.set(
        "cpu_ms_per_op",
        quiet.iter().map(|m| m.slice.cpu_s).sum::<f64>() * 1e3 / ops,
    );
    outcome.set("bench.samples", summary.n as f64);
    let beyond = samples_beyond(summary.n, 0.95);
    let mut in_order: Vec<&Measured> = measured.iter().collect();
    in_order.sort_by_key(|m| m.slice.units.start);
    let rates: Vec<String> = in_order.iter().map(|m| format!("{:.3}", m.rate)).collect();
    outcome.notes.push(format!(
        "slice throughputs [1/s] in window order: {}",
        rates.join(" ")
    ));
    outcome.notes.push(format!(
        "timing metrics pool the faster {} of {} slices (>= {SLICE_S} s each): {} latency samples, {beyond} beyond p95{}",
        quiet.len(),
        measured.len(),
        summary.n,
        if supports_percentile(summary.n, 0.95) {
            ""
        } else {
            " (fewer than the 10 a tail percentile wants)"
        }
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(units: Range<usize>, wall_s: f64, cpu_s: f64) -> Slice {
        Slice {
            units,
            wall_s,
            cpu_s,
        }
    }

    #[test]
    fn the_quiet_third_is_pooled_and_slow_slices_drop_out() {
        // Four slices of 4 units; the second and fourth ran at half speed.
        let slices = [
            slice(0..4, 1.0, 0.8),
            slice(4..8, 2.0, 1.6),
            slice(8..12, 1.0, 0.8),
            slice(12..16, 2.0, 1.6),
        ];
        let slow = |u: usize| (4..8).contains(&u) || u >= 12;
        let samples: Vec<(usize, f64)> = (0..16)
            .map(|u| (u, if slow(u) { 20.0 } else { 10.0 }))
            .collect();
        let mut o = Outcome::default();
        slice_metrics(&mut o, &slices, &samples, 1.0);
        assert_eq!(o.values["op_latency_p50_ms"], 10.0);
        assert_eq!(o.values["op_latency_p95_ms"], 10.0);
        assert_eq!(o.values["ops_per_s"], 4.0);
        assert_eq!(o.values["cpu_ms_per_op"], 200.0);
        assert_eq!(o.values["bench.samples"], 8.0);
    }

    #[test]
    fn the_quiet_share_rounds_up() {
        let slices = [
            slice(0..1, 1.0, 0.1),
            slice(1..2, 2.0, 0.1),
            slice(2..3, 4.0, 0.1),
            slice(3..4, 8.0, 0.1),
        ];
        let samples = [(0, 1.0), (1, 2.0), (2, 4.0), (3, 8.0)];
        let mut o = Outcome::default();
        slice_metrics(&mut o, &slices, &samples, 1.0);
        // A third of four slices is two: 2 ops in 3 s.
        assert_eq!(o.values["bench.samples"], 2.0);
        assert_eq!(o.values["ops_per_s"], 2.0 / 3.0);
        assert_eq!(o.values["op_latency_p95_ms"], 2.0);
        // And a single slice is always kept.
        let mut o = Outcome::default();
        slice_metrics(&mut o, &slices[3..], &samples, 1.0);
        assert_eq!(o.values["bench.samples"], 1.0);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        let samples = [(0, 10.0), (1, 11.0), (2, 10.0), (3, 11.0)];
        assert_eq!(trace_overhead_pct(&samples, block_is_traced), 10.0);
        assert_eq!(trace_overhead_pct(&samples[1..2], block_is_traced), 0.0);
        assert!(!block_is_traced(0) && block_is_traced(1) && !block_is_traced(2));
    }

    #[test]
    fn shared_deliveries_count_once_per_connection() {
        // Two connections each receive both units' frames.
        let slices = [slice(0..2, 1.0, 0.5)];
        let samples = [(0, 5.0), (0, 6.0), (1, 5.0), (1, 7.0)];
        let mut o = Outcome::default();
        slice_metrics(&mut o, &slices, &samples, 2.0);
        assert_eq!(o.values["ops_per_s"], 2.0);
        assert_eq!(o.values["cpu_ms_per_op"], 250.0);
        assert_eq!(o.values["op_latency_p50_ms"], 5.0);
        assert_eq!(o.values["op_latency_p95_ms"], 7.0);
    }

    #[test]
    fn clock_cuts_at_unit_boundaries_and_keeps_trailing_units() {
        let mut clock = SliceClock::open(0.0);
        clock.unit_done();
        clock.unit_done();
        let slices = clock.finish();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].units, 0..1);
        assert_eq!(slices[1].units, 1..2);

        // Too short to cut: the units form the only slice.
        let mut clock = SliceClock::open(3600.0);
        clock.unit_done();
        clock.unit_done();
        let slices = clock.finish();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].units, 0..2);
        assert!(SliceClock::open(1.0).finish().is_empty());

        // A forced cut closes a slice of any length, an empty one never.
        let mut clock = SliceClock::open(3600.0);
        clock.end_slice();
        clock.unit_done();
        clock.end_slice();
        clock.unit_done();
        clock.unit_done();
        clock.end_slice();
        let slices = clock.finish();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[1].units, 1..3);

        // Units after the last cut join the last slice.
        let mut clock = SliceClock::open(0.0);
        clock.unit_done();
        clock.min_s = 3600.0;
        clock.unit_done();
        let slices = clock.finish();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].units, 0..2);
    }
}
