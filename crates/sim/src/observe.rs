//! The system's attached observer: owns the time-series sampler and the
//! trace buffer while a run is in flight.
//!
//! Everything here is passive. The observer reads simulator state at
//! sample boundaries and records trace events as messages move, but
//! nothing on the simulated path ever reads it back — the determinism
//! test (`obs_is_invisible_in_simulated_results`) holds the simulator to
//! that. The only engine-visible effect of arming an observer is that
//! fast-forward jumps are capped at sample boundaries so every boundary
//! cycle is actually stepped; that changes engine telemetry
//! (`skipped_cycles`/`ff_jumps`) only, which `same_simulated_results`
//! already excludes.

use rcc_common::config::GpuConfig;
use rcc_common::stats::MsgClass;
use rcc_obs::{track, ColKind, ObsConfig, ObsReport, TimeSeries, TraceBuffer};

/// Sampler + trace buffer attached to a running [`crate::System`].
pub struct Observer {
    cfg: ObsConfig,
    series: TimeSeries,
    /// Scratch row reused across samples (schema order).
    row: Vec<u64>,
    trace: TraceBuffer,
    /// Next cycle at which a sample is due (multiple of `sample_every`).
    next_sample: u64,
}

impl Observer {
    /// Builds an observer for a machine shaped like `gpu`. The series
    /// schema and the trace track names are fixed here, up front, so
    /// every dump of the same configuration has the same shape.
    pub fn new(cfg: ObsConfig, gpu: &GpuConfig) -> Self {
        let mut schema: Vec<(String, ColKind)> = vec![
            ("issued".into(), ColKind::Delta),
            ("mem_ops".into(), ColKind::Delta),
            ("l1.loads".into(), ColKind::Delta),
            ("l1.load_hits".into(), ColKind::Delta),
            ("l1.expired_loads".into(), ColKind::Delta),
            ("l1.renewed_loads".into(), ColKind::Delta),
            ("l2.gets".into(), ColKind::Delta),
            ("l2.dram_fetches".into(), ColKind::Delta),
            ("l2.renews_granted".into(), ColKind::Delta),
            ("dram.row_hits".into(), ColKind::Delta),
            ("dram.row_misses".into(), ColKind::Delta),
            ("rollovers".into(), ColKind::Delta),
            ("mshr.l1".into(), ColKind::Gauge),
            ("mshr.l2".into(), ColKind::Gauge),
            ("noc.req_in_flight".into(), ColKind::Gauge),
            ("noc.resp_in_flight".into(), ColKind::Gauge),
            ("noc.req_peak".into(), ColKind::Gauge),
            ("noc.resp_peak".into(), ColKind::Gauge),
        ];
        for c in 0..gpu.num_cores {
            schema.push((format!("warps.core{c}"), ColKind::Gauge));
        }
        for class in MsgClass::ALL {
            schema.push((format!("flits.{}", class.label()), ColKind::Delta));
        }
        let width = schema.len();

        let mut trace = TraceBuffer::new(if cfg.trace { cfg.max_trace_events } else { 0 });
        if cfg.trace {
            trace.thread_name(track::SYSTEM, "system".into());
            for c in 0..gpu.num_cores {
                trace.thread_name(track::CORE_BASE + c as u64, format!("core{c}"));
            }
            for p in 0..gpu.l2.num_partitions {
                trace.thread_name(track::L2_BASE + p as u64, format!("l2-bank{p}"));
                trace.thread_name(track::DRAM_BASE + p as u64, format!("dram{p}"));
            }
            trace.thread_name(track::NOC_REQ, "noc-req".into());
            trace.thread_name(track::NOC_RESP, "noc-resp".into());
        }

        let first_sample = cfg.sample_every.max(1);
        Observer {
            next_sample: if cfg.sample_every > 0 {
                first_sample
            } else {
                u64::MAX
            },
            cfg,
            series: TimeSeries::new(schema),
            row: Vec::with_capacity(width),
            trace,
        }
    }

    /// Whether trace events should be recorded.
    pub fn tracing(&self) -> bool {
        self.cfg.trace
    }

    /// The trace buffer (no-ops when built with tracing off, because its
    /// capacity is 0 — events count as dropped).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// The next cycle that must be stepped so a due sample is taken;
    /// `None` when sampling is off. Fast-forward jumps are capped here.
    pub fn next_sample_cycle(&self) -> Option<u64> {
        (self.cfg.sample_every > 0).then_some(self.next_sample)
    }

    /// Whether a sample is due at `cycle`.
    pub fn sample_due(&self, cycle: u64) -> bool {
        self.cfg.sample_every > 0 && cycle >= self.next_sample
    }

    /// Clears the scratch row and hands it out for the system to fill in
    /// schema order.
    pub fn row_mut(&mut self) -> &mut Vec<u64> {
        self.row.clear();
        &mut self.row
    }

    /// Commits the filled scratch row as the sample for `cycle` and
    /// schedules the next boundary.
    pub fn commit_sample(&mut self, cycle: u64) {
        let row = std::mem::take(&mut self.row);
        self.series.push(cycle, &row);
        self.row = row;
        if let Some(intervals) = cycle.checked_div(self.cfg.sample_every) {
            // Next multiple of sample_every strictly after `cycle`.
            self.next_sample = (intervals + 1) * self.cfg.sample_every;
        }
    }

    /// Whether `cycle` already has a sampled row (used to avoid a
    /// duplicate tail sample at run end).
    pub fn sampled_at(&self, cycle: u64) -> bool {
        self.series.cycles().last() == Some(&cycle)
    }

    /// Rows sampled so far.
    pub fn rows(&self) -> usize {
        self.series.rows()
    }

    /// Consumes the observer into its report.
    pub fn into_report(self) -> ObsReport {
        ObsReport {
            series: self.series,
            trace: self.trace,
        }
    }
}
