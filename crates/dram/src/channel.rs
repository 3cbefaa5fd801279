//! One DRAM channel: FR-FCFS queue + banks + shared data bus.

use rcc_chaos::{PerturbPoint, Site};
use rcc_common::addr::{LineAddr, LINE_BYTES};
use rcc_common::config::DramParams;
use rcc_common::time::Cycle;
use std::collections::VecDeque;

/// A queued line request.
#[derive(Debug, Clone, Copy)]
struct Request {
    line: LineAddr,
    is_write: bool,
    arrived: u64,
}

/// Per-bank timing state, all in core-cycle units.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle a new column command (read/write) may issue.
    col_ready: u64,
    /// Earliest cycle a precharge may issue (tRAS / tWR constraints).
    pre_ready: u64,
    /// Earliest cycle an activate may issue (tRC from last activate).
    act_ready: u64,
}

/// One GDDR channel with FR-FCFS scheduling.
pub struct DramChannel {
    params: DramParams,
    queue: VecDeque<Request>,
    banks: Vec<Bank>,
    /// Earliest cycle the shared data bus is free.
    bus_free: u64,
    /// Earliest cycle any activate may issue (tRRD across banks).
    any_act_ready: u64,
    /// Read completions scheduled but not yet reported.
    completions: Vec<(u64, LineAddr)>,
    /// What [`Self::next_event`] answers (`u64::MAX` when idle):
    /// recomputed by `tick`, lowered by `enqueue`.
    horizon: u64,
    /// Chaos hook: stretches a serviced command's effective issue time
    /// (`Site::DramCommand`) and occasionally charges a refresh-like
    /// stall (`Site::DramRefresh`). Pure delays — every timing
    /// constraint still holds at the shifted time.
    chaos: Option<Box<dyn PerturbPoint>>,
    // Statistics.
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_misses: u64,
    total_read_latency: u64,
    peak_queue: usize,
}

impl DramChannel {
    /// Creates a channel from the GDDR parameters.
    pub fn new(params: &DramParams) -> Self {
        DramChannel {
            queue: VecDeque::new(),
            banks: vec![Bank::default(); params.banks],
            bus_free: 0,
            any_act_ready: 0,
            completions: Vec::new(),
            horizon: u64::MAX,
            chaos: None,
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_misses: 0,
            total_read_latency: 0,
            peak_queue: 0,
            params: params.clone(),
        }
    }

    /// Installs a perturbation hook (see [`Site::DramCommand`]).
    pub fn set_chaos(&mut self, hook: Box<dyn PerturbPoint>) {
        self.chaos = Some(hook);
    }

    fn lines_per_row(&self) -> u64 {
        (self.params.row_bytes as u64 / LINE_BYTES).max(1)
    }

    fn bank_of(&self, line: LineAddr) -> usize {
        ((line.0 / self.lines_per_row()) % self.params.banks as u64) as usize
    }

    fn row_of(&self, line: LineAddr) -> u64 {
        line.0 / (self.lines_per_row() * self.params.banks as u64)
    }

    /// In core cycles.
    fn t(&self, dram_cycles: u64) -> u64 {
        dram_cycles * self.params.core_cycles_per_dram_cycle
    }

    /// Data transfer time for one line.
    fn burst(&self) -> u64 {
        self.t(LINE_BYTES / self.params.bytes_per_cycle as u64)
    }

    /// Enqueues a line request. Writes complete silently; reads are
    /// reported by [`Self::tick`].
    pub fn enqueue(&mut self, now: Cycle, line: LineAddr, is_write: bool) {
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        let req = Request {
            line,
            is_write,
            arrived: now.raw(),
        };
        self.horizon = self.horizon.min(self.issue_at(&req));
        self.queue.push_back(req);
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Whether a request's bank could accept a column command this cycle
    /// (row already open and CAS-ready).
    fn is_row_hit_ready(&self, req: &Request, now: u64) -> bool {
        let bank = &self.banks[self.bank_of(req.line)];
        bank.open_row == Some(self.row_of(req.line)) && bank.col_ready <= now
    }

    /// Advances the channel one core cycle; returns read completions.
    pub fn tick(&mut self, now: Cycle) -> Vec<LineAddr> {
        let now = now.raw();
        // Issue at most one command per cycle: FR-FCFS picks the oldest
        // row-hit-ready request, falling back to the oldest request whose
        // bank can make progress.
        if let Some(idx) = self.pick(now) {
            let req = self.queue[idx];
            self.service(req, now);
            self.queue.remove(idx);
        }
        // Report due completions.
        let mut done = Vec::new();
        self.completions.retain(|(at, line)| {
            if *at <= now {
                done.push(*line);
                false
            } else {
                true
            }
        });
        self.horizon = self.scan_next_event();
        done
    }

    fn pick(&self, now: u64) -> Option<usize> {
        // First ready (row hit)…
        if let Some(i) = (0..self.queue.len()).find(|&i| self.is_row_hit_ready(&self.queue[i], now))
        {
            return Some(i);
        }
        // …then first come among requests whose bank can start work.
        (0..self.queue.len()).find(|&i| {
            let req = &self.queue[i];
            let bank = &self.banks[self.bank_of(req.line)];
            // Either ready to activate a new row, or a same-row command
            // that merely waits for col_ready soon — only issue when the
            // activate path is clear to keep the model simple.
            bank.open_row == Some(self.row_of(req.line))
                || (bank.pre_ready <= now && bank.act_ready <= now && self.any_act_ready <= now)
        })
    }

    fn service(&mut self, req: Request, now: u64) {
        // Chaos: pretend the command was picked `stretch` cycles later
        // than it really was. One draw pair per serviced command, taken
        // here where bank state changes anyway, so `next_event` stays
        // exact: the stretched timing is visible to it after `tick`.
        let now = match &mut self.chaos {
            Some(c) => now + c.jitter(Site::DramCommand) + c.jitter(Site::DramRefresh),
            None => now,
        };
        let bank_idx = self.bank_of(req.line);
        let row = self.row_of(req.line);
        let burst = self.burst();
        let (t_rp, t_rc, t_rrd, t_ras, t_rcd) = (
            self.t(self.params.t_rp),
            self.t(self.params.t_rc),
            self.t(self.params.t_rrd),
            self.t(self.params.t_ras),
            self.t(self.params.t_rcd),
        );
        let (t_wl, t_wr, t_cdlr, t_ccd, t_cl) = (
            self.t(self.params.t_wl),
            self.t(self.params.t_wr),
            self.t(self.params.t_cdlr),
            self.t(self.params.t_ccd),
            self.t(self.params.t_cl),
        );
        let bank = &mut self.banks[bank_idx];

        let col_issue = if bank.open_row == Some(row) {
            self.row_hits += 1;
            bank.col_ready.max(now)
        } else {
            self.row_misses += 1;
            // Precharge (if a row is open) then activate.
            let pre_at = bank.pre_ready.max(now);
            let act_at = (pre_at + if bank.open_row.is_some() { t_rp } else { 0 })
                .max(bank.act_ready)
                .max(self.any_act_ready);
            bank.open_row = Some(row);
            bank.act_ready = act_at + t_rc;
            self.any_act_ready = act_at + t_rrd;
            // tRAS before the next precharge.
            bank.pre_ready = act_at + t_ras;
            act_at + t_rcd
        };

        if req.is_write {
            let data_at = col_issue.max(self.bus_free) + t_wl;
            self.bus_free = data_at + burst;
            bank.col_ready = data_at + burst + t_ccd;
            // Write recovery before precharge, turnaround before reads.
            bank.pre_ready = bank.pre_ready.max(data_at + burst + t_wr);
            bank.col_ready = bank.col_ready.max(data_at + burst + t_cdlr);
        } else {
            let data_at = col_issue.max(self.bus_free) + t_cl;
            self.bus_free = data_at + burst;
            bank.col_ready = col_issue + t_ccd.max(1);
            let finish = data_at + burst;
            self.total_read_latency += finish.saturating_sub(req.arrived);
            self.completions.push((finish, req.line));
        }
    }

    /// Outstanding requests (queued or awaiting completion report).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.completions.len()
    }

    /// The exact cycle of the channel's next action: the first cycle at
    /// which [`Self::tick`] would service a command, or the earliest
    /// read completion if that is sooner. `None` when idle.
    ///
    /// `pick` succeeds at once when some queued request's row is open;
    /// otherwise at the earliest cycle some queued request's bank can
    /// precharge and activate. Bank timing changes only when a command
    /// is serviced, so the answer changes only in `tick`, which
    /// recomputes it, and in `enqueue`, whose one new request can only
    /// lower it; the engine re-arms the channel after both.
    pub fn next_event(&self) -> Option<Cycle> {
        (self.horizon != u64::MAX).then_some(Cycle(self.horizon))
    }

    /// The first cycle `pick` could choose `req`: at once when its row
    /// is open, else once its bank can precharge and activate.
    fn issue_at(&self, req: &Request) -> u64 {
        let bank = &self.banks[self.bank_of(req.line)];
        if bank.open_row == Some(self.row_of(req.line)) {
            0
        } else {
            bank.pre_ready.max(bank.act_ready).max(self.any_act_ready)
        }
    }

    /// [`Self::next_event`] computed from scratch over the queue and the
    /// scheduled completions (`u64::MAX` when idle).
    fn scan_next_event(&self) -> u64 {
        let issue = self.queue.iter().map(|req| self.issue_at(req));
        let done = self.completions.iter().map(|(at, _)| *at);
        issue.chain(done).min().unwrap_or(u64::MAX)
    }

    /// Reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Row-buffer hit count.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer miss count.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Mean read latency (enqueue → data) in core cycles.
    pub fn mean_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Folds the channel's full state — command queue, bank timing
    /// state, chaos stream, and statistics — into a cross-component
    /// state digest (its `Debug` text, which leaves out the cached
    /// horizon).
    pub fn digest_state(&self, d: &mut rcc_common::snap::StateDigest) {
        d.write_debug(self);
    }

    /// Peak queue occupancy.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }
}

/// Hand-written to leave out `horizon`, which is derived from the other
/// fields: the state digest hashes this text, which prints every other
/// field in declaration order, as a derive would.
impl std::fmt::Debug for DramChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramChannel")
            .field("params", &self.params)
            .field("queue", &self.queue)
            .field("banks", &self.banks)
            .field("bus_free", &self.bus_free)
            .field("any_act_ready", &self.any_act_ready)
            .field("completions", &self.completions)
            .field("chaos", &self.chaos)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .field("row_hits", &self.row_hits)
            .field("row_misses", &self.row_misses)
            .field("total_read_latency", &self.total_read_latency)
            .field("peak_queue", &self.peak_queue)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::config::GpuConfig;

    fn run_until_done(ch: &mut DramChannel, limit: u64) -> Vec<(u64, LineAddr)> {
        let mut done = Vec::new();
        for c in 0..limit {
            for line in ch.tick(Cycle(c)) {
                done.push((c, line));
            }
            if ch.pending() == 0 {
                break;
            }
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        ch.enqueue(Cycle(0), LineAddr(5), false);
        let done = run_until_done(&mut ch, 10_000);
        assert_eq!(done.len(), 1);
        let (t, line) = done[0];
        assert_eq!(line, LineAddr(5));
        // At least tRCD + tCL + burst after issue.
        let min = cfg.dram.t_rcd + cfg.dram.t_cl + 128 / cfg.dram.bytes_per_cycle as u64;
        assert!(t >= min, "completed at {t}, min {min}");
        assert_eq!(ch.row_misses(), 1);
    }

    #[test]
    fn row_hits_are_faster_than_misses() {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        // Two lines in the same row.
        ch.enqueue(Cycle(0), LineAddr(0), false);
        ch.enqueue(Cycle(0), LineAddr(1), false);
        let done = run_until_done(&mut ch, 10_000);
        assert_eq!(done.len(), 2);
        assert_eq!(ch.row_hits(), 1);
        assert_eq!(ch.row_misses(), 1);
        let gap_hit = done[1].0 - done[0].0;

        let mut ch2 = DramChannel::new(&cfg.dram);
        // Two rows in the same bank → miss + conflict.
        let lines_per_row = cfg.dram.row_bytes as u64 / 128;
        let same_bank_other_row = lines_per_row * cfg.dram.banks as u64;
        ch2.enqueue(Cycle(0), LineAddr(0), false);
        ch2.enqueue(Cycle(0), LineAddr(same_bank_other_row), false);
        let done2 = run_until_done(&mut ch2, 10_000);
        assert_eq!(done2.len(), 2);
        assert_eq!(ch2.row_misses(), 2);
        let gap_conflict = done2[1].0 - done2[0].0;
        assert!(
            gap_conflict > gap_hit,
            "row conflict ({gap_conflict}) must cost more than a hit ({gap_hit})"
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        let lines_per_row = cfg.dram.row_bytes as u64 / 128;
        let conflict = lines_per_row * cfg.dram.banks as u64; // same bank, other row
                                                              // Open row 0 of bank 0 with the first request.
        ch.enqueue(Cycle(0), LineAddr(0), false);
        let mut t = 0;
        while ch.pending() > 0 && ch.reads() > 0 && ch.tick(Cycle(t)).is_empty() {
            t += 1;
            if t > 5000 {
                break;
            }
        }
        // Now enqueue a conflict first, then a row hit: the hit should
        // complete first despite arriving later.
        ch.enqueue(Cycle(t), LineAddr(conflict), false);
        ch.enqueue(Cycle(t), LineAddr(1), false);
        let mut order = Vec::new();
        for c in t..t + 10_000 {
            for l in ch.tick(Cycle(c)) {
                order.push(l);
            }
            if ch.pending() == 0 {
                break;
            }
        }
        assert_eq!(order.first(), Some(&LineAddr(1)), "row hit bypasses");
    }

    #[test]
    fn writes_complete_silently_but_occupy_the_bus() {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        ch.enqueue(Cycle(0), LineAddr(0), true);
        ch.enqueue(Cycle(0), LineAddr(1), false);
        let done = run_until_done(&mut ch, 10_000);
        assert_eq!(done.len(), 1, "only the read reports");
        assert_eq!(ch.writes(), 1);
        assert_eq!(ch.reads(), 1);
    }

    #[test]
    fn parallel_banks_overlap() {
        let cfg = GpuConfig::small();
        let lines_per_row = cfg.dram.row_bytes as u64 / 128;
        // Two misses in different banks vs two conflicting misses in one.
        let mut par = DramChannel::new(&cfg.dram);
        par.enqueue(Cycle(0), LineAddr(0), false);
        par.enqueue(Cycle(0), LineAddr(lines_per_row), false); // bank 1
        let done_par = run_until_done(&mut par, 10_000);

        let mut ser = DramChannel::new(&cfg.dram);
        ser.enqueue(Cycle(0), LineAddr(0), false);
        ser.enqueue(
            Cycle(0),
            LineAddr(lines_per_row * cfg.dram.banks as u64),
            false,
        );
        let done_ser = run_until_done(&mut ser, 10_000);
        assert!(done_par.last().unwrap().0 < done_ser.last().unwrap().0);
    }

    #[test]
    fn chaos_stretch_only_delays_completions() {
        use rcc_chaos::{ChaosProfile, ChaosSpec, Perturber};
        let cfg = GpuConfig::small();
        let mut clean = DramChannel::new(&cfg.dram);
        let mut slow = DramChannel::new(&cfg.dram);
        let mut always = ChaosProfile::heavy();
        always.dram_cmd_jitter_p = 1.0;
        always.dram_refresh_p = 1.0;
        slow.set_chaos(Box::new(Perturber::standalone(
            &ChaosSpec::new(2, always),
            0,
        )));
        for i in 0..4 {
            clean.enqueue(Cycle(0), LineAddr(i), false);
            slow.enqueue(Cycle(0), LineAddr(i), false);
        }
        let done_clean = run_until_done(&mut clean, 1_000_000);
        let done_slow = run_until_done(&mut slow, 1_000_000);
        assert_eq!(
            done_slow.len(),
            done_clean.len(),
            "chaos must not drop work"
        );
        assert!(
            done_slow.last().unwrap().0 > done_clean.last().unwrap().0,
            "stretch + refresh must delay the tail"
        );
    }

    #[test]
    fn stats_and_latency() {
        let cfg = GpuConfig::small();
        let mut ch = DramChannel::new(&cfg.dram);
        for i in 0..8 {
            ch.enqueue(Cycle(0), LineAddr(i), false);
        }
        assert_eq!(ch.peak_queue(), 8);
        run_until_done(&mut ch, 50_000);
        assert!(ch.mean_read_latency() > 0.0);
        assert_eq!(ch.pending(), 0);
        assert!(ch.next_event().is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Conservation: every enqueued request completes exactly
            /// once, and the read/write counters account for all of them.
            #[test]
            fn every_request_completes(
                reqs in proptest::collection::vec((0u64..256, any::<bool>(), 0u64..40), 1..50),
            ) {
                let cfg = GpuConfig::small();
                let mut ch = DramChannel::new(&cfg.dram);
                let mut now = 0u64;
                let mut expected_reads = 0u64;
                for &(line, is_write, gap) in &reqs {
                    now += gap;
                    ch.enqueue(Cycle(now), LineAddr(line), is_write);
                    if !is_write {
                        expected_reads += 1;
                    }
                }
                let done = run_until_done(&mut ch, now + 1_000_000);
                prop_assert_eq!(ch.pending(), 0);
                // Only reads report completions (writes are fire-and-forget
                // for the caller but still occupy the channel).
                prop_assert_eq!(done.len() as u64, expected_reads);
                prop_assert_eq!(ch.reads(), expected_reads);
                prop_assert_eq!(ch.writes(), reqs.len() as u64 - expected_reads);
                prop_assert_eq!(ch.row_hits() + ch.row_misses(), reqs.len() as u64);
            }

            /// No read completes faster than the physical minimum
            /// (column access + burst), regardless of scheduling.
            #[test]
            fn reads_respect_minimum_latency(
                lines in proptest::collection::vec(0u64..64, 1..30),
            ) {
                let cfg = GpuConfig::small();
                let mut ch = DramChannel::new(&cfg.dram);
                for &line in &lines {
                    ch.enqueue(Cycle(0), LineAddr(line), false);
                }
                let done = run_until_done(&mut ch, 10_000_000);
                prop_assert_eq!(done.len(), lines.len());
                let burst = 128 / cfg.dram.bytes_per_cycle as u64;
                let min = cfg.dram.t_cl + burst;
                for &(t, line) in &done {
                    prop_assert!(t >= min, "{line} completed at {t} < minimum {min}");
                }
            }

            /// FR-FCFS never starves: with a steady row-hit stream and one
            /// conflicting request, the conflict still completes.
            #[test]
            fn row_conflicts_eventually_served(hot_row_reqs in 2u64..20) {
                let cfg = GpuConfig::small();
                let mut ch = DramChannel::new(&cfg.dram);
                // Hot row: consecutive lines share a row.
                for i in 0..hot_row_reqs {
                    ch.enqueue(Cycle(0), LineAddr(i % 2), false);
                }
                // Conflicting row in the same bank, far away.
                ch.enqueue(Cycle(0), LineAddr(10_000), false);
                let done = run_until_done(&mut ch, 10_000_000);
                prop_assert_eq!(done.len() as u64, hot_row_reqs + 1);
                prop_assert!(done.iter().any(|&(_, l)| l == LineAddr(10_000)));
            }

            /// The cached horizon is the queue scan: after every
            /// `enqueue` and every `tick`, at arbitrary cycles, with and
            /// without chaos stretching serviced commands.
            #[test]
            fn next_event_equals_the_queue_scan(
                steps in proptest::collection::vec((0u64..4096, 0u8..3, 0u64..50), 1..120),
                chaos in any::<bool>(),
            ) {
                let cfg = GpuConfig::small();
                let mut ch = DramChannel::new(&cfg.dram);
                if chaos {
                    use rcc_chaos::{ChaosProfile, ChaosSpec, Perturber};
                    let spec = ChaosSpec::new(11, ChaosProfile::heavy());
                    ch.set_chaos(Box::new(Perturber::standalone(&spec, 0)));
                }
                let scan = |ch: &DramChannel| {
                    Some(ch.scan_next_event()).filter(|&c| c != u64::MAX).map(Cycle)
                };
                let mut now = 0u64;
                for &(line, op, gap) in &steps {
                    now += gap;
                    if op == 0 {
                        ch.tick(Cycle(now));
                    } else {
                        ch.enqueue(Cycle(now), LineAddr(line), op == 2);
                    }
                    prop_assert_eq!(ch.next_event(), scan(&ch), "at cycle {}", now);
                }
                while ch.pending() > 0 {
                    now += 1;
                    ch.tick(Cycle(now));
                    prop_assert_eq!(ch.next_event(), scan(&ch), "at cycle {}", now);
                }
                prop_assert_eq!(ch.next_event(), None);
            }
        }
    }
}
