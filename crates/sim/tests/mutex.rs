//! Mutual-exclusion verification: spin locks built from CAS must
//! serialize critical sections under EVERY protocol (including the
//! weakly ordered ones — atomics are always serialized at the L2).
//!
//! Each warp's critical section stores its unique token into a shared
//! word and immediately loads it back: if any other warp entered the
//! section concurrently, some warp reads back a foreign token.

use rcc_common::addr::LineAddr;
use rcc_common::ids::WorkgroupId;
use rcc_common::GpuConfig;
use rcc_core::ProtocolKind;
use rcc_gpu::op::{MemOp, WarpProgram};
use rcc_sim::system::System;
use rcc_workloads::{Sharing, Workload};

fn mutex_workload(cfg: &GpuConfig, iters: usize) -> (Workload, Vec<(usize, usize, u64)>) {
    let lock = LineAddr(0).word(0);
    let shared = LineAddr(1).word(0);
    let mut programs = Vec::new();
    let mut tokens = Vec::new();
    for core in 0..cfg.num_cores {
        let mut warps = Vec::new();
        for w in 0..2 {
            let token = 1 + (core as u64) * 100 + w as u64;
            tokens.push((core, w, token));
            let mut ops = vec![MemOp::Compute(1 + (core * 7 + w * 3) as u32)];
            for _ in 0..iters {
                ops.push(MemOp::Lock(lock));
                ops.push(MemOp::Fence);
                ops.push(MemOp::Store(shared, token));
                ops.push(MemOp::Compute(20));
                ops.push(MemOp::Load(shared)); // must read back `token`
                ops.push(MemOp::Fence);
                ops.push(MemOp::Unlock(lock));
            }
            warps.push(WarpProgram::new(WorkgroupId(core * 2 + w), ops));
        }
        programs.push(warps);
    }
    (
        Workload {
            name: "mutex",
            category: Sharing::InterWorkgroup,
            programs,
            warps_per_workgroup: 1,
        },
        tokens,
    )
}

fn check_mutex(kind: ProtocolKind) {
    let cfg = GpuConfig::small();
    let (wl, tokens) = mutex_workload(&cfg, 6);
    let shared = LineAddr(1).word(0);
    // Run via the concrete system to reach the load log.
    rcc_core::with_protocol!(kind, &cfg, |p| {
        let mut sys = System::new(&p, &cfg, &wl, false);
        sys.log_loads();
        sys.run_until(u64::MAX).expect("mutex run fails");
        for (core, warp, token) in &tokens {
            let loads = sys
                .loads_of(*core, *warp, shared)
                .expect("the load log is on");
            assert_eq!(loads.len(), 6, "{kind}: every section read back");
            for v in loads {
                assert_eq!(
                    v, token,
                    "{kind}: warp {core}/{warp} saw a foreign token inside \
                     its critical section — mutual exclusion broken"
                );
            }
        }
    })
}

#[test]
fn mutual_exclusion_mesi() {
    check_mutex(ProtocolKind::Mesi);
}

#[test]
fn mutual_exclusion_tcs() {
    check_mutex(ProtocolKind::TcStrong);
}

#[test]
fn mutual_exclusion_tcw() {
    check_mutex(ProtocolKind::TcWeak);
}

#[test]
fn mutual_exclusion_rcc_sc() {
    check_mutex(ProtocolKind::RccSc);
}

#[test]
fn mutual_exclusion_rcc_wo() {
    check_mutex(ProtocolKind::RccWo);
}

#[test]
fn mutual_exclusion_mesi_wb() {
    check_mutex(ProtocolKind::MesiWb);
}

#[test]
fn the_load_log_answers_only_once_asked_for() {
    // A system that never logged must not pass for one whose warps
    // loaded nothing: the harnesses above would then check no value.
    let cfg = GpuConfig::small();
    let (wl, tokens) = mutex_workload(&cfg, 1);
    let shared = LineAddr(1).word(0);
    let (core, warp, _) = tokens[0];
    rcc_core::with_protocol!(ProtocolKind::RccSc, &cfg, |p| {
        let mut sys = System::new(&p, &cfg, &wl, false);
        sys.run_until(u64::MAX).expect("mutex run fails");
        assert_eq!(sys.loads_of(core, warp, shared), None);
        let mut logged = System::new(&p, &cfg, &wl, false);
        logged.log_loads();
        logged.run_until(u64::MAX).expect("mutex run fails");
        assert_eq!(
            logged.loads_of(core, warp, shared).map(<[u64]>::len),
            Some(1)
        );
        assert_eq!(
            logged.loads_of(core, warp, LineAddr(9).word(0)),
            Some(&[][..])
        );
        assert!(
            logged.metrics().same_simulated_results(&sys.metrics()),
            "logging only watches"
        );
        assert_eq!(logged.state_digest(), sys.state_digest());
    })
}
