//! Deterministic checkpoint/restore of a running [`crate::System`].
//!
//! The simulator is bit-reproducible from its inputs: the same protocol,
//! configuration, workload, options, and chaos seed always produce the
//! same state at every cycle (the determinism suite enforces this, with
//! fast-forward and chaos on or off). A checkpoint therefore snapshots
//! the *deterministic input closure* plus the target cycle and a
//! cross-component [state digest](crate::System::state_digest) of the
//! machine at that cycle.
//!
//! A checkpoint *describes* a machine; it is not how a run proceeds.
//! Within one process a time-sliced run keeps its live machine parked
//! in a [`crate::runner::SliceRun`] between quanta, and each quantum
//! boundary's checkpoint is checked against that machine before it goes
//! on. Restore is the recovery path, for when no live machine exists (a
//! crashed attempt, a restarted process, a file resumed elsewhere): it
//! rebuilds the system from the inputs, replays to the target cycle
//! (fast-forwarding over idle stretches), verifies the digest matches
//! bit-for-bit, and continues. This makes resumed runs bit-identical to
//! uninterrupted ones *by construction* — the digest check turns any
//! violation of that argument into a typed [`SimError::Checkpoint`]
//! instead of silent divergence. The workload is held behind an
//! [`Arc`], so every checkpoint of one run shares its warp programs.
//!
//! The on-disk format is the versioned binary codec of
//! [`rcc_common::snap`] with a JSON manifest sidecar
//! (`<path>.manifest.json`, pinned by
//! `schemas/checkpoint_manifest.schema.json`) so humans and CI can
//! inspect a checkpoint without decoding it.

use crate::error::SimError;
use crate::runner::SimOptions;
use rcc_chaos::{ChaosProfile, ChaosSpec};
use rcc_common::config::{
    CacheParams, DramParams, GpuConfig, L2Params, NocParams, NocTopology, RccParams, TcParams,
};
use rcc_common::ids::WorkgroupId;
use rcc_common::snap::{SnapError, SnapReader, SnapWriter};
use rcc_core::ProtocolKind;
use rcc_gpu::{MemOp, WarpProgram, MAX_WARPS_PER_CORE};
use rcc_obs::json::escape;
use rcc_workloads::{Sharing, Workload};
use std::sync::Arc;

/// Magic prefix of the binary checkpoint format.
pub const MAGIC: &[u8; 4] = b"RCCK";
/// Current format version.
pub const VERSION: u32 = 1;

/// A deterministic checkpoint: the input closure that rebuilds the
/// system, the cycle to replay to, and the state digest that attests the
/// replayed machine is bit-identical to the one that was checkpointed.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Full machine configuration.
    pub cfg: GpuConfig,
    /// The complete workload (every warp program, fully serialized).
    /// Shared, not copied: every checkpoint of one run, and the live
    /// [`crate::runner::SliceRun`] it came from, hold the same programs.
    pub workload: Arc<Workload>,
    /// Run options (chaos spec included; checkpoint plumbing excluded).
    pub opts: SimOptions,
    /// Cycle the checkpoint was taken at.
    pub cycle: u64,
    /// [`crate::System::state_digest`] of the machine at `cycle`.
    pub state_digest: u64,
}

fn kind_tag(kind: ProtocolKind) -> u8 {
    match kind {
        ProtocolKind::Mesi => 0,
        ProtocolKind::MesiWb => 1,
        ProtocolKind::TcStrong => 2,
        ProtocolKind::TcWeak => 3,
        ProtocolKind::RccSc => 4,
        ProtocolKind::RccWo => 5,
        ProtocolKind::IdealSc => 6,
    }
}

fn kind_from_tag(tag: u8) -> Result<ProtocolKind, SnapError> {
    Ok(match tag {
        0 => ProtocolKind::Mesi,
        1 => ProtocolKind::MesiWb,
        2 => ProtocolKind::TcStrong,
        3 => ProtocolKind::TcWeak,
        4 => ProtocolKind::RccSc,
        5 => ProtocolKind::RccWo,
        6 => ProtocolKind::IdealSc,
        other => return Err(SnapError(format!("unknown protocol tag {other}"))),
    })
}

fn write_cache(w: &mut SnapWriter, c: &CacheParams) {
    w.u64(c.size_bytes as u64);
    w.u64(c.ways as u64);
    w.u64(c.line_bytes as u64);
    w.u64(c.mshrs as u64);
    w.u64(c.mshr_merge as u64);
    w.u64(c.latency);
}

fn read_cache(r: &mut SnapReader) -> Result<CacheParams, SnapError> {
    Ok(CacheParams {
        size_bytes: r.u64()? as usize,
        ways: r.u64()? as usize,
        line_bytes: r.u64()? as usize,
        mshrs: r.u64()? as usize,
        mshr_merge: r.u64()? as usize,
        latency: r.u64()?,
    })
}

fn write_cfg(w: &mut SnapWriter, cfg: &GpuConfig) {
    w.u64(cfg.num_cores as u64);
    w.u64(cfg.warps_per_core as u64);
    w.u64(cfg.threads_per_warp as u64);
    write_cache(w, &cfg.l1);
    w.u64(cfg.l2.num_partitions as u64);
    write_cache(w, &cfg.l2.partition);
    w.u8(match cfg.noc.topology {
        NocTopology::Crossbar => 0,
        NocTopology::Mesh => 1,
    });
    w.u64(cfg.noc.flit_bytes as u64);
    w.u64(cfg.noc.core_cycles_per_noc_cycle);
    w.u64(cfg.noc.traversal_latency);
    w.u64(cfg.noc.vc_buffer_flits as u64);
    w.u64(cfg.noc.control_bytes as u64);
    w.u64(cfg.dram.core_cycles_per_dram_cycle);
    w.u64(cfg.dram.bytes_per_cycle as u64);
    w.u64(cfg.dram.min_latency);
    w.u64(cfg.dram.banks as u64);
    w.u64(cfg.dram.row_bytes as u64);
    for t in [
        cfg.dram.t_cl,
        cfg.dram.t_rp,
        cfg.dram.t_rc,
        cfg.dram.t_ras,
        cfg.dram.t_ccd,
        cfg.dram.t_wl,
        cfg.dram.t_rcd,
        cfg.dram.t_rrd,
        cfg.dram.t_cdlr,
        cfg.dram.t_wr,
    ] {
        w.u64(t);
    }
    w.u64(cfg.rcc.lease_min);
    w.u64(cfg.rcc.lease_max);
    w.opt_u64(cfg.rcc.fixed_lease);
    w.bool(cfg.rcc.renew_enabled);
    w.bool(cfg.rcc.predictor_enabled);
    w.u64(cfg.rcc.rollover_threshold);
    w.u64(cfg.rcc.livelock_bump_interval);
    w.u64(cfg.tc.lease_cycles);
    w.u64(cfg.tc.lease_min);
    w.u64(cfg.tc.lease_max);
    w.u64(cfg.watchdog_cycles);
}

fn read_cfg(r: &mut SnapReader) -> Result<GpuConfig, SnapError> {
    let num_cores = r.u64()? as usize;
    let warps_per_core = r.u64()? as usize;
    let threads_per_warp = r.u64()? as usize;
    let l1 = read_cache(r)?;
    let l2 = L2Params {
        num_partitions: r.u64()? as usize,
        partition: read_cache(r)?,
    };
    let topology = match r.u8()? {
        0 => NocTopology::Crossbar,
        1 => NocTopology::Mesh,
        other => return Err(SnapError(format!("unknown topology tag {other}"))),
    };
    let noc = NocParams {
        topology,
        flit_bytes: r.u64()? as usize,
        core_cycles_per_noc_cycle: r.u64()?,
        traversal_latency: r.u64()?,
        vc_buffer_flits: r.u64()? as usize,
        control_bytes: r.u64()? as usize,
    };
    let dram = DramParams {
        core_cycles_per_dram_cycle: r.u64()?,
        bytes_per_cycle: r.u64()? as usize,
        min_latency: r.u64()?,
        banks: r.u64()? as usize,
        row_bytes: r.u64()? as usize,
        t_cl: r.u64()?,
        t_rp: r.u64()?,
        t_rc: r.u64()?,
        t_ras: r.u64()?,
        t_ccd: r.u64()?,
        t_wl: r.u64()?,
        t_rcd: r.u64()?,
        t_rrd: r.u64()?,
        t_cdlr: r.u64()?,
        t_wr: r.u64()?,
    };
    let rcc = RccParams {
        lease_min: r.u64()?,
        lease_max: r.u64()?,
        fixed_lease: r.opt_u64()?,
        renew_enabled: r.bool()?,
        predictor_enabled: r.bool()?,
        rollover_threshold: r.u64()?,
        livelock_bump_interval: r.u64()?,
    };
    let tc = TcParams {
        lease_cycles: r.u64()?,
        lease_min: r.u64()?,
        lease_max: r.u64()?,
    };
    Ok(GpuConfig {
        num_cores,
        warps_per_core,
        threads_per_warp,
        l1,
        l2,
        noc,
        dram,
        rcc,
        tc,
        watchdog_cycles: r.u64()?,
    })
}

fn write_op(w: &mut SnapWriter, op: &MemOp) {
    // The op tag space is owned by rcc-gpu and shared with the trace
    // format; see `MemOp::snap`.
    op.snap(w);
}

fn read_op(r: &mut SnapReader) -> Result<MemOp, SnapError> {
    MemOp::unsnap(r)
}

fn write_workload(w: &mut SnapWriter, wl: &Workload) {
    w.str(wl.name);
    w.u8(match wl.category {
        Sharing::InterWorkgroup => 0,
        Sharing::IntraWorkgroup => 1,
    });
    w.u64(wl.warps_per_workgroup as u64);
    w.u32(wl.programs.len() as u32);
    for core in &wl.programs {
        w.u32(core.len() as u32);
        for prog in core {
            w.u64(prog.workgroup.0 as u64);
            w.u32(prog.ops.len() as u32);
            for op in prog.ops.iter() {
                write_op(w, op);
            }
        }
    }
}

fn read_workload(r: &mut SnapReader) -> Result<Workload, SnapError> {
    let name = r.str()?;
    let category = match r.u8()? {
        0 => Sharing::InterWorkgroup,
        1 => Sharing::IntraWorkgroup,
        other => return Err(SnapError(format!("unknown sharing tag {other}"))),
    };
    let warps_per_workgroup = r.u64()? as usize;
    let ncores = r.u32()? as usize;
    let mut programs = Vec::with_capacity(ncores);
    for _ in 0..ncores {
        let nwarps = r.u32()? as usize;
        if nwarps > MAX_WARPS_PER_CORE {
            return Err(SnapError(format!(
                "{nwarps} warps on one core (at most {MAX_WARPS_PER_CORE})"
            )));
        }
        let mut warps = Vec::with_capacity(nwarps);
        for _ in 0..nwarps {
            let workgroup = WorkgroupId(r.u64()? as usize);
            let nops = r.u32()? as usize;
            let mut ops = Vec::with_capacity(nops);
            for _ in 0..nops {
                ops.push(read_op(r)?);
            }
            warps.push(WarpProgram::new(workgroup, ops));
        }
        programs.push(warps);
    }
    Ok(Workload {
        // Workload names are `&'static str` throughout the workspace;
        // a resumed run leaks its (tiny, one-per-process) name string.
        name: Box::leak(name.into_boxed_str()),
        category,
        programs,
        warps_per_workgroup,
    })
}

fn write_opts(w: &mut SnapWriter, opts: &SimOptions) {
    w.bool(opts.check_sc);
    w.bool(opts.sanitize);
    w.u64(opts.max_cycles);
    w.bool(opts.fast_forward);
    match &opts.chaos {
        Some(spec) => {
            w.bool(true);
            w.u64(spec.seed);
            w.str(spec.profile.name);
        }
        None => w.bool(false),
    }
    w.u64(opts.sample_every);
    w.bool(opts.trace);
    w.bool(opts.profile);
}

fn read_opts(r: &mut SnapReader) -> Result<SimOptions, SnapError> {
    let check_sc = r.bool()?;
    let sanitize = r.bool()?;
    let max_cycles = r.u64()?;
    let fast_forward = r.bool()?;
    let chaos = if r.bool()? {
        let seed = r.u64()?;
        let name = r.str()?;
        let profile = ChaosProfile::by_name(&name)
            .ok_or_else(|| SnapError(format!("unknown chaos profile {name:?}")))?;
        Some(ChaosSpec { seed, profile })
    } else {
        None
    };
    Ok(SimOptions {
        check_sc,
        sanitize,
        max_cycles,
        fast_forward,
        chaos,
        sample_every: r.u64()?,
        trace: r.bool()?,
        profile: r.bool()?,
        // Host-local output paths: a run resumed from disk writes no
        // snapshots and records no trace unless the caller names paths.
        checkpoint: None,
        record_trace: None,
        // Host-side scheduling knob: a checkpoint loaded from disk runs
        // to completion unless the caller re-imposes a quantum.
        quantum: 0,
    })
}

impl Checkpoint {
    /// Serializes into the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(MAGIC[0]);
        w.u8(MAGIC[1]);
        w.u8(MAGIC[2]);
        w.u8(MAGIC[3]);
        w.u32(VERSION);
        w.u8(kind_tag(self.kind));
        write_cfg(&mut w, &self.cfg);
        write_workload(&mut w, &self.workload);
        write_opts(&mut w, &self.opts);
        w.u64(self.cycle);
        w.u64(self.state_digest);
        w.into_bytes()
    }

    /// Decodes a checkpoint written by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on a bad magic, an unsupported version,
    /// or any truncation/corruption of the payload.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, SimError> {
        let fail = |e: SnapError| SimError::Checkpoint(e.to_string());
        let mut r = SnapReader::new(bytes);
        let magic = [
            r.u8().map_err(fail)?,
            r.u8().map_err(fail)?,
            r.u8().map_err(fail)?,
            r.u8().map_err(fail)?,
        ];
        if &magic != MAGIC {
            return Err(SimError::Checkpoint(format!(
                "bad magic {magic:?} (not an RCC checkpoint)"
            )));
        }
        let version = r.u32().map_err(fail)?;
        if version != VERSION {
            return Err(SimError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads {VERSION})"
            )));
        }
        let kind = r
            .u8()
            .map_err(fail)
            .and_then(|t| kind_from_tag(t).map_err(fail))?;
        let cfg = read_cfg(&mut r).map_err(fail)?;
        let workload = read_workload(&mut r).map_err(fail)?;
        let opts = read_opts(&mut r).map_err(fail)?;
        let cycle = r.u64().map_err(fail)?;
        let state_digest = r.u64().map_err(fail)?;
        r.done().map_err(fail)?;
        Ok(Checkpoint {
            kind,
            cfg,
            workload: Arc::new(workload),
            opts,
            cycle,
            state_digest,
        })
    }

    /// The JSON manifest sidecar, pinned by
    /// `schemas/checkpoint_manifest.schema.json`.
    pub fn manifest_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": {VERSION},");
        let _ = writeln!(out, "  \"protocol\": \"{}\",", self.kind.label());
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape(self.workload.name));
        let _ = writeln!(out, "  \"cycle\": {},", self.cycle);
        let _ = writeln!(out, "  \"state_digest\": \"{:016x}\",", self.state_digest);
        let _ = writeln!(out, "  \"fast_forward\": {},", self.opts.fast_forward);
        let _ = writeln!(out, "  \"sanitize\": {},", self.opts.sanitize);
        let _ = writeln!(out, "  \"max_cycles\": {},", self.opts.max_cycles);
        match &self.opts.chaos {
            Some(spec) => {
                let _ = writeln!(out, "  \"chaos_profile\": \"{}\",", spec.profile.name);
                let _ = writeln!(out, "  \"chaos_seed\": {},", spec.seed);
            }
            None => {
                let _ = writeln!(out, "  \"chaos_profile\": null,");
                let _ = writeln!(out, "  \"chaos_seed\": null,");
            }
        }
        let _ = writeln!(out, "  \"cores\": {},", self.cfg.num_cores);
        let _ = writeln!(out, "  \"l2_partitions\": {}", self.cfg.l2.num_partitions);
        out.push_str("}\n");
        out
    }

    /// Writes the binary checkpoint to `path` and the manifest sidecar
    /// to `<path>.manifest.json`.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on any I/O failure.
    pub fn save(&self, path: &str) -> Result<(), SimError> {
        std::fs::write(path, self.encode())
            .map_err(|e| SimError::Checkpoint(format!("writing {path}: {e}")))?;
        let manifest = format!("{path}.manifest.json");
        std::fs::write(&manifest, self.manifest_json())
            .map_err(|e| SimError::Checkpoint(format!("writing {manifest}: {e}")))?;
        Ok(())
    }

    /// Loads and decodes the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on I/O failure or a corrupt payload.
    pub fn load(path: &str) -> Result<Checkpoint, SimError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SimError::Checkpoint(format!("reading {path}: {e}")))?;
        Checkpoint::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_workloads::{Benchmark, Scale};

    fn sample() -> Checkpoint {
        let cfg = GpuConfig::small();
        let workload = Benchmark::Dlb.generate(&cfg, &Scale::quick(), 3);
        Checkpoint {
            kind: ProtocolKind::RccSc,
            cfg,
            workload: Arc::new(workload),
            opts: SimOptions {
                sanitize: true,
                chaos: Some(ChaosSpec {
                    seed: 11,
                    profile: ChaosProfile::light(),
                }),
                ..SimOptions::fast()
            },
            cycle: 4096,
            state_digest: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).expect("decodes");
        assert_eq!(back.kind, ck.kind);
        assert_eq!(back.cfg, ck.cfg);
        assert_eq!(back.workload.name, ck.workload.name);
        assert_eq!(back.workload.category, ck.workload.category);
        assert_eq!(
            back.workload.warps_per_workgroup,
            ck.workload.warps_per_workgroup
        );
        assert_eq!(back.workload.programs.len(), ck.workload.programs.len());
        for (a, b) in back.workload.programs.iter().zip(&ck.workload.programs) {
            assert_eq!(a.len(), b.len());
            for (pa, pb) in a.iter().zip(b) {
                assert_eq!(pa.workgroup, pb.workgroup);
                assert_eq!(pa.ops, pb.ops);
            }
        }
        assert_eq!(back.opts.sanitize, ck.opts.sanitize);
        assert_eq!(back.opts.max_cycles, ck.opts.max_cycles);
        let (ca, cb) = (back.opts.chaos.clone().unwrap(), ck.opts.chaos.unwrap());
        assert_eq!(ca.seed, cb.seed);
        assert_eq!(ca.profile.name, cb.profile.name);
        assert_eq!(back.cycle, ck.cycle);
        assert_eq!(back.state_digest, ck.state_digest);
        // Re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let bytes = sample().encode();
        assert!(matches!(
            Checkpoint::decode(&bytes[..10]),
            Err(SimError::Checkpoint(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&bad_magic),
            Err(SimError::Checkpoint(_))
        ));
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        let err = Checkpoint::decode(&bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Checkpoint::decode(&trailing).is_err());
        let mut too_many_warps = sample();
        Arc::make_mut(&mut too_many_warps.workload).programs[0] =
            vec![WarpProgram::new(WorkgroupId(0), Vec::new()); MAX_WARPS_PER_CORE + 1];
        let err = Checkpoint::decode(&too_many_warps.encode()).unwrap_err();
        assert!(err.to_string().contains("65 warps"), "{err}");
    }
}
