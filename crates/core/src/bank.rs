//! The L2 bank skeleton: the miss and deferral plumbing every L2
//! controller shares.
//!
//! The controllers differ in what a request does at a resident line —
//! RCC applies Fig. 5's lease and version rules, TC-Strong stalls until
//! the lease expires, MESI runs invalidate-collect-apply — but not in how
//! a miss is fetched, how a displaced line is written back, or how
//! requests wait behind a blocked line. Those live here once, as
//! functions over each controller's own fields (the fields, and so the
//! `Debug` text `state_digest` hashes, stay the controller's).

use crate::msg::{ReqMsg, ReqPayload};
use crate::protocol::{L2Bank, L2Outbox, L2Stats};
use rcc_common::addr::LineAddr;
use rcc_common::config::GpuConfig;
use rcc_common::time::Cycle;
use rcc_common::FxHashMap;
use rcc_mem::{Line, MshrFile, TagArray};
use std::collections::VecDeque;

/// The tag array and MSHR file of one L2 partition, sized from `cfg.l2`.
pub(crate) fn arrays<S, E>(cfg: &GpuConfig) -> (TagArray<S>, MshrFile<E>) {
    let p = &cfg.l2.partition;
    (
        TagArray::with_stride(p.num_sets(), p.ways, cfg.l2.num_partitions as u64),
        MshrFile::new(p.mshrs, p.mshr_merge),
    )
}

/// Counts an L1 request in the bank's statistics (a GETX is a write).
pub(crate) fn count(stats: &mut L2Stats, payload: &ReqPayload) {
    match payload {
        ReqPayload::Gets { .. } => stats.gets += 1,
        ReqPayload::Write { .. } | ReqPayload::GetX { .. } => stats.writes += 1,
        ReqPayload::Atomic { .. } => stats.atomics += 1,
        _ => {}
    }
}

/// Where an L1 request to a line that is not blocked goes.
pub(crate) enum Route<'a, E> {
    /// Into the MSHR entry of the line's fetch: one already in flight,
    /// or a fresh one whose DRAM fetch [`route`] just issued.
    Mshr(&'a mut E),
    /// To the hit path: the line is resident.
    Hit,
    /// Back to the simulator, which retries it: the line misses and the
    /// MSHR file is full.
    Full,
}

/// Routes a request to `line`, issuing the DRAM fetch of a miss.
pub(crate) fn route<'a, S, E: Default>(
    tags: &TagArray<S>,
    mshrs: &'a mut MshrFile<E>,
    stats: &mut L2Stats,
    out: &mut L2Outbox,
    line: LineAddr,
) -> Route<'a, E> {
    if !mshrs.contains(line) {
        if tags.probe(line).is_some() {
            return Route::Hit;
        }
        if mshrs.allocate(line, E::default()).is_err() {
            return Route::Full;
        }
        stats.dram_fetches += 1;
        out.dram_fetch.push(line);
    }
    // Present: in flight, or allocated above.
    mshrs.get_mut(line).map_or(Route::Full, Route::Mshr)
}

/// Hands a request the full MSHR file refused back to the simulator. A
/// GETS is un-counted, as its retry counts it again; a write or atomic
/// stays counted once per attempt. `l2.writes` and `l2.atomics` are in
/// the metrics digest, so that count is part of the pinned results.
pub(crate) fn refuse(stats: &mut L2Stats, req: ReqMsg) -> Result<(), ReqMsg> {
    if matches!(req.payload, ReqPayload::Gets { .. }) {
        stats.gets -= 1;
    }
    Err(req)
}

/// Writes a displaced line back to DRAM if it is dirty.
pub(crate) fn write_back<S>(stats: &mut L2Stats, out: &mut L2Outbox, line: Line<S>) {
    if line.dirty {
        stats.writebacks += 1;
        out.dram_writeback.push((line.addr, line.data));
    }
}

/// Per-line deferral: a request to a blocked line waits, behind every
/// earlier request to that line, until the line unblocks and
/// [`Deferral::redispatch_deferred`] hands the queue back to
/// [`L2Bank::handle_req`] in arrival order.
pub(crate) trait Deferral: L2Bank {
    /// Whether requests to `line` must wait: the controller's own rule.
    fn is_blocked(&self, line: LineAddr) -> bool;

    /// The deferred requests, per line.
    fn deferred(&self) -> &FxHashMap<LineAddr, VecDeque<ReqMsg>>;

    /// The deferred requests per line, and how many there are in all.
    fn deferred_mut(&mut self) -> (&mut FxHashMap<LineAddr, VecDeque<ReqMsg>>, &mut usize);

    /// Whether a request to `line` must wait: the line is blocked, or
    /// earlier requests to it are waiting.
    fn must_defer(&self, line: LineAddr) -> bool {
        self.is_blocked(line) || self.deferred().contains_key(&line)
    }

    /// Queues `req` behind the earlier requests to its line.
    fn defer(&mut self, req: ReqMsg) {
        let (deferred, count) = self.deferred_mut();
        *count += 1;
        deferred.entry(req.line).or_default().push_back(req);
    }

    /// Hands `line`'s deferred requests back to `handle_req`, oldest
    /// first, until one blocks the line again.
    ///
    /// A request can also be handed back: a recall evicted the line it
    /// waited on, and the MSHR file is full. It then waits at the head
    /// of the queue for an entry to free; a deferred line that is not
    /// blocked is exactly such a line ([`Deferral::retry_mshr_waiters`]).
    fn redispatch_deferred(&mut self, cycle: Cycle, line: LineAddr, out: &mut L2Outbox) {
        if self.is_blocked(line) {
            return;
        }
        let Some(mut queue) = self.deferred_mut().0.remove(&line) else {
            return;
        };
        while let Some(req) = queue.pop_front() {
            *self.deferred_mut().1 -= 1;
            match self.handle_req(cycle, req, out) {
                Ok(()) if !self.is_blocked(line) => continue,
                Ok(()) => {}
                Err(req) => {
                    queue.push_front(req);
                    *self.deferred_mut().1 += 1;
                }
            }
            // Keep the rest ahead of anything `handle_req` deferred.
            let deferred = self.deferred_mut().0;
            while let Some(rest) = queue.pop_back() {
                deferred.entry(line).or_default().push_front(rest);
            }
            return;
        }
    }

    /// Re-dispatches every line whose requests wait for an MSHR. Called
    /// once a DRAM fill has released an entry.
    fn retry_mshr_waiters(&mut self, cycle: Cycle, out: &mut L2Outbox) {
        let waiting: Vec<LineAddr> = self
            .deferred()
            .keys()
            .copied()
            .filter(|&line| !self.is_blocked(line))
            .collect();
        for line in waiting {
            self.redispatch_deferred(cycle, line, out);
        }
    }
}
