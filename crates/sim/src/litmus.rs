//! Litmus-test harness: runs a litmus program under a protocol and
//! reports the observed outcome.
//!
//! Every litmus run executes with the `rcc-verify` runtime SC sanitizer
//! attached: each access is recorded and, after the run, the sanitizer
//! checks whether an SC total order explains the observed values. All
//! entry points return `Result` and share one non-panicking core
//! ([`run_litmus_observed`]): for SC-capable protocols a non-SC verdict
//! is a [`SimError::SanitizerViolation`] from [`run_litmus`]; the chaos
//! and observer variants surface the verdict in
//! [`LitmusOutcome::sanitizer_sc`] so sweeps can decide what a violation
//! means for the (protocol, profile) pair at hand.

use crate::error::SimError;
use crate::system::System;
use rcc_chaos::ChaosSpec;
use rcc_common::config::GpuConfig;
use rcc_core::{with_protocol, ProtocolKind};
use rcc_obs::{ObsConfig, ObsReport};
use rcc_workloads::litmus::Litmus;
use rcc_workloads::Workload;

/// Cycle budget for a litmus run — they finish in thousands of cycles,
/// so ten million means something is wedged.
const LITMUS_MAX_CYCLES: u64 = 10_000_000;

/// One observed litmus outcome.
#[derive(Debug, Clone)]
pub struct LitmusOutcome {
    /// Values read by the probes, in probe order.
    pub values: Vec<u64>,
    /// Whether the SC-forbidden outcome was observed.
    pub forbidden: bool,
    /// Runtime sanitizer verdict: does an SC total order explain the
    /// whole execution (not just the probed values)?
    pub sanitizer_sc: bool,
}

/// The workload a litmus test runs as (one warp per program, forced
/// inter-workgroup sharing). Public so observers and golden tests can run
/// litmus programs through the regular [`crate::runner::simulate`] path.
pub fn litmus_workload(litmus: &Litmus) -> Workload {
    Workload {
        name: litmus.name,
        category: rcc_workloads::Sharing::InterWorkgroup,
        programs: litmus.programs.clone(),
        warps_per_workgroup: 1,
    }
}

fn run_one<P: rcc_core::protocol::Protocol>(
    protocol: &P,
    cfg: &GpuConfig,
    litmus: &Litmus,
    chaos: Option<&ChaosSpec>,
    obs: Option<&ObsConfig>,
) -> Result<(LitmusOutcome, Option<ObsReport>), SimError> {
    let workload = litmus_workload(litmus);
    let mut sys = System::new(protocol, cfg, &workload, false);
    if let Some(spec) = chaos {
        sys.set_chaos(spec);
    }
    if let Some(cfg) = obs {
        sys.set_observer(cfg.clone());
    }
    sys.enable_sanitizer();
    sys.log_loads();
    sys.run_until(LITMUS_MAX_CYCLES)?;
    if !sys.done() {
        return Err(SimError::CyclesExceeded {
            kind: protocol.kind(),
            workload: litmus.name.to_string(),
            max_cycles: LITMUS_MAX_CYCLES,
        });
    }
    let mut values = Vec::with_capacity(litmus.probes.len());
    for p in &litmus.probes {
        let loads = sys.loads_of(p.core.index(), p.warp.index(), p.addr);
        match loads.and_then(|l| l.get(p.nth)) {
            Some(&v) => values.push(v),
            None => {
                return Err(SimError::ProbeMissing {
                    litmus: litmus.name.to_string(),
                    probe: format!("{p:?}"),
                })
            }
        }
    }
    let forbidden = (litmus.forbidden)(&values);
    let sanitizer_sc =
        sys.sanitizer_report()
            .map(|r| r.sc)
            .ok_or_else(|| SimError::ProbeMissing {
                litmus: litmus.name.to_string(),
                probe: "sanitizer report".to_string(),
            })?;
    let report = sys.take_observation();
    Ok((
        LitmusOutcome {
            values,
            forbidden,
            sanitizer_sc,
        },
        report,
    ))
}

/// Runs one litmus test under `kind`.
///
/// # Errors
///
/// [`SimError::SanitizerViolation`] for an SC-capable protocol whose
/// execution the sanitizer cannot explain with any SC total order — that
/// is a protocol bug, not an interesting outcome — plus anything the
/// underlying run can produce (deadlock, cycle budget, missing probe).
pub fn run_litmus(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    litmus: &Litmus,
) -> Result<LitmusOutcome, SimError> {
    let out = run_litmus_chaos(kind, cfg, litmus, None)?;
    if kind.supports_sc() && !out.sanitizer_sc {
        return Err(SimError::SanitizerViolation {
            kind,
            workload: litmus.name.to_string(),
        });
    }
    Ok(out)
}

/// Runs one litmus test under `kind` with optional chaos injection.
///
/// Unlike [`run_litmus`] this never fails on the sanitizer verdict: the
/// chaos sweep *wants* to observe failed verdicts (that is how the canary
/// profile proves the sanitizer catches unsound protocols), so the caller
/// inspects [`LitmusOutcome::sanitizer_sc`] and decides what a violation
/// means for the (protocol, profile) pair at hand.
///
/// # Errors
///
/// Run failures only: deadlock, cycle budget, missing probe.
pub fn run_litmus_chaos(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    litmus: &Litmus,
    chaos: Option<&ChaosSpec>,
) -> Result<LitmusOutcome, SimError> {
    Ok(run_litmus_observed(kind, cfg, litmus, chaos, None)?.0)
}

/// Runs one litmus test with optional chaos injection and an optional
/// observer attached, returning the outcome together with whatever the
/// observer recorded (`None` when no observer was requested).
///
/// Like [`run_litmus_chaos`], this never fails on the sanitizer verdict.
///
/// # Errors
///
/// Run failures only: deadlock, cycle budget, missing probe.
pub fn run_litmus_observed(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    litmus: &Litmus,
    chaos: Option<&ChaosSpec>,
    obs: Option<&ObsConfig>,
) -> Result<(LitmusOutcome, Option<ObsReport>), SimError> {
    with_protocol!(kind, cfg, |p| run_one(&p, cfg, litmus, chaos, obs))
}

/// Runs `make_litmus(seed)` for every seed in `0..runs`, counting how
/// often the forbidden outcome appeared.
///
/// # Panics
///
/// Panics if any run fails — the callers are matrix tests where a failed
/// run is a harness bug, not a countable outcome.
pub fn count_forbidden(
    kind: ProtocolKind,
    cfg: &GpuConfig,
    runs: u64,
    make_litmus: impl Fn(u64) -> Litmus,
) -> u64 {
    (0..runs)
        .filter(|&seed| {
            let litmus = make_litmus(seed);
            run_litmus(kind, cfg, &litmus)
                // rcc-lint: allow(sim-panic, documented panicking helper mirroring simulate(); tests want the abort)
                .unwrap_or_else(|e| panic!("{e}"))
                .forbidden
        })
        .count() as u64
}
