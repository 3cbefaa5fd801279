//! The twelve benchmark generators (Table IV).

use crate::space::{AddrSpace, Region};
use rcc_common::addr::WORDS_PER_LINE;
use rcc_common::config::GpuConfig;
use rcc_common::ids::WorkgroupId;
use rcc_common::rng::Pcg32;
use rcc_core::msg::AtomicOp;
use rcc_gpu::op::{MemOp, WarpProgram};

/// Communication pattern taxonomy (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Read-write data crosses workgroup (and therefore core) boundaries:
    /// the workload relies on inter-core coherence.
    InterWorkgroup,
    /// Read-write sharing stays within a workgroup: correct without
    /// coherence; measures the cost of always-on coherence.
    IntraWorkgroup,
}

impl Sharing {
    /// Whether this is the inter-workgroup category.
    pub fn is_inter_workgroup(self) -> bool {
        self == Sharing::InterWorkgroup
    }
}

/// Workload sizing knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Warps instantiated per core (≤ the machine's warp contexts).
    pub warps_per_core: usize,
    /// Warps per workgroup.
    pub warps_per_workgroup: usize,
    /// Main-loop iterations per warp.
    pub iters: usize,
}

impl Scale {
    /// Small configuration for tests.
    pub fn quick() -> Self {
        Scale {
            warps_per_core: 4,
            warps_per_workgroup: 2,
            iters: 10,
        }
    }

    /// Default evaluation size (keeps full-machine runs in seconds).
    pub fn standard() -> Self {
        Scale {
            warps_per_core: 16,
            warps_per_workgroup: 4,
            iters: 32,
        }
    }

    /// Heavyweight: every warp context busy, longer loops.
    pub fn full() -> Self {
        Scale {
            warps_per_core: 48,
            warps_per_workgroup: 8,
            iters: 48,
        }
    }
}

/// A generated workload: one program per (core, warp).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (lower case, as in the paper's figures).
    pub name: &'static str,
    /// Sharing category.
    pub category: Sharing,
    /// `programs[core][warp]`.
    pub programs: Vec<Vec<WarpProgram>>,
    /// Warps per workgroup used when generating.
    pub warps_per_workgroup: usize,
}

impl Workload {
    /// Total memory operations in the static programs (lock retries and
    /// barrier polls add dynamic operations on top).
    pub fn static_mem_ops(&self) -> usize {
        self.programs
            .iter()
            .flatten()
            .map(WarpProgram::memory_ops)
            .sum()
    }
}

/// The benchmarks of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Bh,
    Bfs,
    Cl,
    Dlb,
    Stn,
    Vpr,
    Hsp,
    Kmn,
    Lps,
    Ndl,
    Sr,
    Lud,
}

impl Benchmark {
    /// All twelve benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 12] = [
        Benchmark::Bh,
        Benchmark::Bfs,
        Benchmark::Cl,
        Benchmark::Dlb,
        Benchmark::Stn,
        Benchmark::Vpr,
        Benchmark::Hsp,
        Benchmark::Kmn,
        Benchmark::Lps,
        Benchmark::Ndl,
        Benchmark::Sr,
        Benchmark::Lud,
    ];

    /// The six inter-workgroup benchmarks.
    pub fn inter_workgroup() -> Vec<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .filter(|b| b.category().is_inter_workgroup())
            .collect()
    }

    /// The six intra-workgroup benchmarks.
    pub fn intra_workgroup() -> Vec<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .filter(|b| !b.category().is_inter_workgroup())
            .collect()
    }

    /// Lower-case name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bh => "bh",
            Benchmark::Bfs => "bfs",
            Benchmark::Cl => "cl",
            Benchmark::Dlb => "dlb",
            Benchmark::Stn => "stn",
            Benchmark::Vpr => "vpr",
            Benchmark::Hsp => "hsp",
            Benchmark::Kmn => "kmn",
            Benchmark::Lps => "lps",
            Benchmark::Ndl => "ndl",
            Benchmark::Sr => "sr",
            Benchmark::Lud => "lud",
        }
    }

    /// Sharing category (Table IV's two groups).
    pub fn category(self) -> Sharing {
        match self {
            Benchmark::Bh
            | Benchmark::Bfs
            | Benchmark::Cl
            | Benchmark::Dlb
            | Benchmark::Stn
            | Benchmark::Vpr => Sharing::InterWorkgroup,
            _ => Sharing::IntraWorkgroup,
        }
    }

    /// Generates the workload for a machine configuration.
    pub fn generate(self, cfg: &GpuConfig, scale: &Scale, seed: u64) -> Workload {
        let ctx = Ctx::new(self, cfg, scale, seed);
        let programs = match self {
            Benchmark::Bh => gen_bh(ctx),
            Benchmark::Bfs => gen_bfs(ctx),
            Benchmark::Cl => gen_cl(ctx),
            Benchmark::Dlb => gen_dlb(ctx),
            Benchmark::Stn => gen_stn(ctx),
            Benchmark::Vpr => gen_vpr(ctx),
            Benchmark::Hsp => gen_tile(ctx, TileFlavor::Hsp),
            Benchmark::Kmn => gen_kmn(ctx),
            Benchmark::Lps => gen_tile(ctx, TileFlavor::Lps),
            Benchmark::Ndl => gen_ndl(ctx),
            Benchmark::Sr => gen_tile(ctx, TileFlavor::Sr),
            Benchmark::Lud => gen_lud(ctx),
        };
        Workload {
            name: self.name(),
            category: self.category(),
            programs,
            warps_per_workgroup: scale.warps_per_workgroup,
        }
    }
}

/// Generation context shared by all benchmarks.
struct Ctx {
    cores: usize,
    wpc: usize,
    wpw: usize,
    iters: usize,
    l2_lines: u64,
    rng: Pcg32,
}

impl Ctx {
    fn new(bench: Benchmark, cfg: &GpuConfig, scale: &Scale, seed: u64) -> Self {
        let wpc = scale.warps_per_core.min(cfg.warps_per_core);
        Ctx {
            cores: cfg.num_cores,
            wpc,
            wpw: scale.warps_per_workgroup.min(wpc).max(1),
            iters: scale.iters.max(1),
            l2_lines: (cfg.l2.num_partitions * cfg.l2.partition.num_lines()) as u64,
            rng: Pcg32::new(seed, bench as u64 + 1),
        }
    }

    fn wgs_per_core(&self) -> usize {
        self.wpc.div_ceil(self.wpw)
    }

    fn total_wgs(&self) -> usize {
        self.cores * self.wgs_per_core()
    }

    /// Global workgroup id of (core, warp).
    fn wg_of(&self, core: usize, warp: usize) -> usize {
        core * self.wgs_per_core() + warp / self.wpw
    }

    fn is_lead(&self, warp: usize) -> bool {
        warp.is_multiple_of(self.wpw)
    }

    /// A unique, non-zero store token.
    fn token(&self, core: usize, warp: usize, i: usize) -> u64 {
        1 + ((core as u64) << 40) + ((warp as u64) << 28) + i as u64
    }

    /// Builds the [core][warp] program matrix from a per-warp closure.
    fn build(
        &mut self,
        mut f: impl FnMut(&mut Ctx, usize, usize) -> Vec<MemOp>,
    ) -> Vec<Vec<WarpProgram>> {
        let (cores, wpc) = (self.cores, self.wpc);
        (0..cores)
            .map(|c| {
                (0..wpc)
                    .map(|w| {
                        let wg = WorkgroupId(self.wg_of(c, w));
                        let mut ops = vec![MemOp::Compute(1 + (self.rng.below(16)) as u32)];
                        ops.extend(f(self, c, w));
                        WarpProgram::new(wg, ops)
                    })
                    .collect()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Inter-workgroup benchmarks.
// ---------------------------------------------------------------------

/// Barnes-Hut: irregular, read-mostly traversal of a shared octree. The
/// top of the tree is a small hot region every core caches; centre-of-mass
/// updates write into those same hot lines, so every store contends with
/// many sharers (invalidations for MESI, lease waits for TC-Strong,
/// instant logical advances for RCC).
fn gen_bh(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let hot = sp.region(48);
    let cold = sp.region(2 * ctx.l2_lines);
    ctx.build(|ctx, c, w| {
        let mut ops = Vec::new();
        for i in 0..ctx.iters {
            // Tree walk: top levels (hot, shared by everyone) then leaves.
            for _ in 0..3 {
                ops.push(MemOp::Load(
                    hot.word(ctx.rng.below(hot.lines()), ctx.rng.below(32)),
                ));
            }
            for _ in 0..2 {
                ops.push(MemOp::Load(
                    cold.word(ctx.rng.below(cold.lines()), ctx.rng.below(32)),
                ));
            }
            ops.push(MemOp::Compute(10 + ctx.rng.below(20) as u32));
            // Centre-of-mass update into the hot region.
            if ctx.rng.chance(0.3) {
                ops.push(MemOp::Store(
                    hot.word(ctx.rng.below(hot.lines()), ctx.rng.below(32)),
                    ctx.token(c, w, i),
                ));
                ops.push(MemOp::Fence);
            }
        }
        ops
    })
}

/// BFS: all threads share a frontier "mask" vector; different cores write
/// different words of the same lines (heavy false sharing at block
/// granularity — the case where TC-Weak beats RCC, Section IV-C).
fn gen_bfs(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let mask = sp.region((ctx.l2_lines / 8).max(16));
    let adj = sp.region(4 * ctx.l2_lines);
    let per_core_adj: Vec<Region> = (0..ctx.cores).map(|c| adj.chunk(c, ctx.cores)).collect();
    ctx.build(|ctx, c, w| {
        let my_adj = per_core_adj[c];
        let my_word = ((c * ctx.wpc + w) % WORDS_PER_LINE) as u64;
        let mut ops = Vec::new();
        let mut stream = ctx.rng.below(my_adj.lines());
        for i in 0..ctx.iters {
            // Check the frontier mask (shared, read).
            ops.push(MemOp::Load(
                mask.word(ctx.rng.below(mask.lines()), ctx.rng.below(32)),
            ));
            // Stream the adjacency list (private).
            for _ in 0..2 {
                stream += 1;
                ops.push(MemOp::Load(my_adj.word(stream, stream)));
            }
            ops.push(MemOp::Compute(6 + ctx.rng.below(10) as u32));
            // Mark next-level nodes: scattered writes into the shared
            // mask, each core touching its own word of a shared line.
            ops.push(MemOp::Store(
                mask.word(ctx.rng.below(mask.lines()), my_word),
                ctx.token(c, w, i),
            ));
        }
        ops.push(MemOp::Fence);
        ops
    })
}

/// Cloth physics: each warp owns grid lines and reads its neighbours'
/// edges each phase; neighbours cross core boundaries.
fn gen_cl(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let total_warps = (ctx.cores * ctx.wpc) as u64;
    let grid = sp.region(total_warps * 2);
    ctx.build(|ctx, c, w| {
        let me = (c * ctx.wpc + w) as u64;
        let left = (me + total_warps - 1) % total_warps;
        let right = (me + 1) % total_warps;
        let mut ops = Vec::new();
        for i in 0..ctx.iters {
            for k in 0..2 {
                ops.push(MemOp::Load(grid.word(me * 2 + k, ctx.rng.below(32))));
            }
            // Neighbour halo reads (inter-core at warp-block edges).
            ops.push(MemOp::Load(grid.word(left * 2 + 1, ctx.rng.below(32))));
            ops.push(MemOp::Load(grid.word(right * 2, ctx.rng.below(32))));
            ops.push(MemOp::Compute(12 + ctx.rng.below(12) as u32));
            ops.push(MemOp::Store(
                grid.word(me * 2, ctx.rng.below(32)),
                ctx.token(c, w, 2 * i),
            ));
            ops.push(MemOp::Store(
                grid.word(me * 2 + 1, ctx.rng.below(32)),
                ctx.token(c, w, 2 * i + 1),
            ));
            ops.push(MemOp::Fence);
        }
        ops
    })
}

/// Dynamic load balancing: per-workgroup work queues protected by spin
/// locks; finished schedulers steal from a random victim. Steals are
/// rare, so most lock traffic is core-local re-acquisition — the case
/// where RCC beats TC-Weak (fences stall TCW even when no sharing
/// happens, Section IV-C).
fn gen_dlb(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let queues = sp.region(ctx.total_wgs() as u64);
    let steal_chance = 0.05;
    ctx.build(|ctx, c, w| {
        let my_q = ctx.wg_of(c, w) as u64;
        let total = ctx.total_wgs() as u64;
        let mut ops = Vec::new();
        for i in 0..ctx.iters {
            // Scan other schedulers' queue sizes (cross-core reads of
            // lines their owners keep writing — these leases are what
            // TC-Weak's fences must wait out, and what MESI's stores must
            // invalidate; RCC's stores advance a logical clock instead).
            for _ in 0..2 {
                let other = ctx.rng.below(total);
                ops.push(MemOp::Load(queues.word(other, 1)));
            }
            let victim = if ctx.rng.chance(steal_chance) {
                ctx.rng.below(total)
            } else {
                my_q
            };
            let lock = queues.word(victim, 0);
            let head = queues.word(victim, 1);
            // Every queue access is fenced (work could be stolen at any
            // time): under TC-Weak each fence stalls until the GWCT of
            // the preceding atomic/store passes, even though actual
            // sharing is rare — the overhead RCC's logical time avoids.
            ops.push(MemOp::Lock(lock));
            ops.push(MemOp::Fence);
            ops.push(MemOp::Load(head));
            ops.push(MemOp::Store(head, ctx.token(c, w, i)));
            ops.push(MemOp::Fence);
            ops.push(MemOp::Unlock(lock));
            ops.push(MemOp::Fence);
            // Execute the claimed task.
            ops.push(MemOp::Compute(30 + ctx.rng.below(40) as u32));
        }
        ops
    })
}

/// Stencil with fast global barriers: halo reads from neighbouring
/// workgroups each phase, synchronized by an inter-workgroup barrier
/// (lead warps arrive + poll; siblings wait locally).
fn gen_stn(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let wgs = ctx.total_wgs() as u64;
    let tile_lines = 4u64;
    let buf_a = sp.region(wgs * tile_lines);
    let buf_b = sp.region(wgs * tile_lines);
    let phases = (ctx.iters / 4).clamp(2, 12);
    let barriers = sp.region(phases as u64);
    let work_per_phase = (ctx.iters / phases).max(1);
    ctx.build(|ctx, c, w| {
        let wg = ctx.wg_of(c, w) as u64;
        let next_wg = (wg + 1) % wgs;
        let mut ops = Vec::new();
        for phase in 0..phases {
            // Double-buffered finite difference: read the previous
            // phase's buffer (own tile + neighbour halo), write the
            // other one, then cross the global fast barrier.
            let (src, dst) = if phase % 2 == 0 {
                (&buf_a, &buf_b)
            } else {
                (&buf_b, &buf_a)
            };
            for _ in 0..work_per_phase {
                for k in 0..3 {
                    ops.push(MemOp::Load(
                        src.word(wg * tile_lines + k, ctx.rng.below(32)),
                    ));
                }
                // Halo row from the neighbouring workgroup.
                ops.push(MemOp::Load(
                    src.word(next_wg * tile_lines, ctx.rng.below(32)),
                ));
                ops.push(MemOp::Compute(8 + ctx.rng.below(8) as u32));
                ops.push(MemOp::Store(
                    dst.word(
                        wg * tile_lines + ctx.rng.below(tile_lines),
                        ctx.rng.below(32),
                    ),
                    ctx.token(c, w, phase),
                ));
            }
            if ctx.is_lead(w) {
                ops.push(MemOp::Barrier {
                    word: barriers.word(phase as u64, 0),
                    members: wgs,
                });
            } else {
                ops.push(MemOp::LocalWait {
                    epoch: phase as u64 + 1,
                });
            }
        }
        ops
    })
}

/// Place & route: random reads over a large routing grid plus contended
/// updates to a small set of hot congestion counters every core also
/// caches for reading.
fn gen_vpr(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let grid = sp.region(2 * ctx.l2_lines);
    let hot = sp.region(32);
    ctx.build(|ctx, c, w| {
        let mut ops = Vec::new();
        for i in 0..ctx.iters {
            for _ in 0..3 {
                ops.push(MemOp::Load(
                    grid.word(ctx.rng.below(grid.lines()), ctx.rng.below(32)),
                ));
            }
            // Congestion lookups: hot shared lines.
            ops.push(MemOp::Load(
                hot.word(ctx.rng.below(hot.lines()), ctx.rng.below(32)),
            ));
            ops.push(MemOp::Compute(15 + ctx.rng.below(20) as u32));
            if ctx.rng.chance(0.35) {
                ops.push(MemOp::Store(
                    hot.word(ctx.rng.below(hot.lines()), ctx.rng.below(32)),
                    ctx.token(c, w, i),
                ));
            }
            if ctx.rng.chance(0.15) {
                ops.push(MemOp::Store(
                    grid.word(ctx.rng.below(grid.lines()), ctx.rng.below(32)),
                    ctx.token(c, w, i),
                ));
            }
            if ctx.rng.chance(0.1) {
                ops.push(MemOp::Atomic(
                    hot.word(ctx.rng.below(hot.lines()), ctx.rng.below(32)),
                    AtomicOp::Add(1),
                ));
                ops.push(MemOp::Fence);
            }
        }
        ops
    })
}

// ---------------------------------------------------------------------
// Intra-workgroup benchmarks: all data within the workgroup's chunk.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum TileFlavor {
    /// hotspot: 2D 5-point stencil, one store per point.
    Hsp,
    /// 3D Laplace: more loads per point.
    Lps,
    /// speckle reduction: streaming loads, two stores.
    Sr,
}

/// Shared skeleton for the tile-local stencil benchmarks. The kernels
/// are *double-buffered*, as real stencils are: each phase reads the
/// previous phase's buffer and writes the other one, so stores never hit
/// freshly-leased lines (logical clocks barely advance under RCC — the
/// paper's "negligible expiration rate" for intra workloads). Working
/// sets exceed the L1 and press on the L2, so MESI pays recall
/// invalidations on L2 evictions while the timestamp protocols
/// self-invalidate for free.
fn gen_tile(mut ctx: Ctx, flavor: TileFlavor) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let wgs = ctx.total_wgs();
    let rows_per_warp = 24u64;
    let tile_lines = rows_per_warp * ctx.wpw as u64 + 1;
    let buf_a = sp.region(tile_lines * wgs as u64);
    let buf_b = sp.region(tile_lines * wgs as u64);
    let per_wg_a: Vec<Region> = (0..wgs).map(|g| buf_a.chunk(g, wgs)).collect();
    let per_wg_b: Vec<Region> = (0..wgs).map(|g| buf_b.chunk(g, wgs)).collect();
    ctx.build(|ctx, c, w| {
        let wg = ctx.wg_of(c, w);
        let (a, b) = (per_wg_a[wg], per_wg_b[wg]);
        let lane = (w % ctx.wpw) as u64;
        let my_base = 1 + lane * rows_per_warp;
        let (loads, stores, compute) = match flavor {
            TileFlavor::Hsp => (4u64, 1u64, 10u32),
            TileFlavor::Lps => (6, 1, 14),
            TileFlavor::Sr => (3, 2, 18),
        };
        let mut ops = Vec::new();
        for i in 0..ctx.iters {
            let phase = (i as u64) / rows_per_warp;
            let (src, dst) = if phase.is_multiple_of(2) {
                (a, b)
            } else {
                (b, a)
            };
            // Streaming row window: consecutive iterations read fresh
            // rows (GPU stencils stream; per-thread L1 reuse is scarce).
            let row0 = (i as u64 * loads) % rows_per_warp;
            let row = my_base + row0;
            // Shared read-only parameters (line 0 of buffer A).
            ops.push(MemOp::Load(a.word(0, ctx.rng.below(32))));
            // Stencil reads from the source buffer.
            for k in 0..loads {
                ops.push(MemOp::Load(
                    src.word(my_base + (row0 + k) % rows_per_warp, k),
                ));
            }
            // Halo read from the neighbouring warp's source rows.
            if ctx.rng.chance(0.2) {
                let sib = (lane + 1) % ctx.wpw as u64;
                ops.push(MemOp::Load(
                    src.word(1 + sib * rows_per_warp, ctx.rng.below(32)),
                ));
            }
            ops.push(MemOp::Compute(compute + ctx.rng.below(8) as u32));
            // Results go to the destination buffer.
            for s in 0..stores {
                ops.push(MemOp::Store(
                    dst.word(row, s),
                    ctx.token(c, w, i * 4 + s as usize),
                ));
            }
        }
        ops
    })
}

/// k-means: streaming point reads plus atomic accumulation into
/// workgroup-local centroid counters.
fn gen_kmn(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let wgs = ctx.total_wgs();
    let points = sp.region(4 * ctx.l2_lines);
    let per_wg_points: Vec<Region> = (0..wgs).map(|g| points.chunk(g, wgs)).collect();
    let centroids = sp.region(wgs as u64);
    ctx.build(|ctx, c, w| {
        let wg = ctx.wg_of(c, w);
        let my_points = per_wg_points[wg];
        let mut ops = Vec::new();
        let mut idx = ctx.rng.below(my_points.lines());
        for i in 0..ctx.iters {
            for _ in 0..3 {
                idx += 1;
                ops.push(MemOp::Load(my_points.word(idx, idx)));
            }
            ops.push(MemOp::Compute(12 + ctx.rng.below(10) as u32));
            // Accumulate into this workgroup's centroid line (atomics
            // contended only within the workgroup).
            ops.push(MemOp::Atomic(
                centroids.word(wg as u64, ctx.rng.below(8)),
                AtomicOp::Add(1),
            ));
            ops.push(MemOp::Store(my_points.word(idx, 31), ctx.token(c, w, i)));
        }
        ops
    })
}

/// Needleman-Wunsch: diagonal wavefront over the workgroup's tile with an
/// intra-workgroup barrier between diagonals.
fn gen_ndl(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let wgs = ctx.total_wgs();
    let tile_lines = ((2 * ctx.l2_lines) / wgs as u64).max(8);
    let tiles = sp.region(tile_lines * wgs as u64);
    let per_wg: Vec<Region> = (0..wgs).map(|g| tiles.chunk(g, wgs)).collect();
    // One barrier word per workgroup (lead warp only; members = 1).
    let bars = sp.region(wgs as u64);
    let diagonals = (ctx.iters / 2).clamp(2, 16);
    let work = (ctx.iters / diagonals).max(1);
    ctx.build(|ctx, c, w| {
        let wg = ctx.wg_of(c, w);
        let tile = per_wg[wg];
        let mut ops = Vec::new();
        let lane = (w % ctx.wpw) as u64;
        for d in 0..diagonals {
            for k in 0..work {
                // Previous diagonal: mostly my own cells, plus my
                // neighbour's edge cell (intra-workgroup sharing).
                ops.push(MemOp::Load(tile.word(d as u64, lane * 4 + k as u64)));
                if ctx.rng.chance(0.3) {
                    let sib = (lane + 1) % ctx.wpw as u64;
                    ops.push(MemOp::Load(tile.word(d as u64, sib * 4)));
                }
                ops.push(MemOp::Compute(6 + ctx.rng.below(6) as u32));
                // …produce this diagonal's cell.
                ops.push(MemOp::Store(
                    tile.word(d as u64 + 1, lane * 4 + k as u64),
                    ctx.token(c, w, d * 8 + k),
                ));
            }
            // __syncthreads between diagonals: lead warp marks the epoch,
            // siblings wait for it locally.
            if ctx.is_lead(w) {
                ops.push(MemOp::Barrier {
                    word: bars.word(wg as u64, (d % 32) as u64),
                    members: 1,
                });
            } else {
                ops.push(MemOp::LocalWait {
                    epoch: d as u64 + 1,
                });
            }
        }
        ops
    })
}

/// LU decomposition: every warp in a workgroup reads the shared pivot row
/// and updates its own rows.
fn gen_lud(mut ctx: Ctx) -> Vec<Vec<WarpProgram>> {
    let mut sp = AddrSpace::new();
    let wgs = ctx.total_wgs();
    let tile_lines = ((2 * ctx.l2_lines) / wgs as u64).max(8);
    let tiles = sp.region(tile_lines * wgs as u64);
    let per_wg: Vec<Region> = (0..wgs).map(|g| tiles.chunk(g, wgs)).collect();
    ctx.build(|ctx, c, w| {
        let tile = per_wg[ctx.wg_of(c, w)];
        let lane = (w % ctx.wpw) as u64;
        let rows_per_warp = (tile.lines() - 1) / ctx.wpw as u64;
        let my_base = 1 + lane * rows_per_warp.max(1);
        let mut ops = Vec::new();
        for i in 0..ctx.iters {
            // Pivot row: line 0, read by every warp in the workgroup
            // (intra-workgroup read sharing, written rarely by lane 0).
            ops.push(MemOp::Load(tile.word(0, ctx.rng.below(32))));
            let my_row = my_base + (i as u64 % rows_per_warp.max(1));
            ops.push(MemOp::Load(tile.word(my_row, (w % 32) as u64)));
            ops.push(MemOp::Compute(8 + ctx.rng.below(10) as u32));
            ops.push(MemOp::Store(
                tile.word(my_row, (w % 32) as u64),
                ctx.token(c, w, i),
            ));
            if lane == 0 && i % 8 == 7 {
                // New pivot published once per block step.
                ops.push(MemOp::Store(
                    tile.word(0, (i % 32) as u64),
                    ctx.token(c, w, i),
                ));
            }
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::addr::LineAddr;
    use std::collections::HashSet;

    fn cfg() -> GpuConfig {
        GpuConfig::small()
    }

    #[test]
    fn taxonomy_matches_table_iv() {
        assert_eq!(Benchmark::inter_workgroup().len(), 6);
        assert_eq!(Benchmark::intra_workgroup().len(), 6);
        assert!(Benchmark::Dlb.category().is_inter_workgroup());
        assert!(!Benchmark::Hsp.category().is_inter_workgroup());
        let names: HashSet<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn generation_is_deterministic() {
        for b in Benchmark::ALL {
            let a = b.generate(&cfg(), &Scale::quick(), 7);
            let b2 = b.generate(&cfg(), &Scale::quick(), 7);
            assert_eq!(format!("{:?}", a.programs), format!("{:?}", b2.programs));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Benchmark::Vpr.generate(&cfg(), &Scale::quick(), 1);
        let b = Benchmark::Vpr.generate(&cfg(), &Scale::quick(), 2);
        assert_ne!(format!("{:?}", a.programs), format!("{:?}", b.programs));
    }

    #[test]
    fn shapes_match_config() {
        for b in Benchmark::ALL {
            let wl = b.generate(&cfg(), &Scale::quick(), 3);
            assert_eq!(wl.programs.len(), cfg().num_cores, "{}", b.name());
            for core in &wl.programs {
                assert_eq!(core.len(), Scale::quick().warps_per_core);
                for p in core {
                    assert!(!p.is_empty());
                }
            }
            assert!(wl.static_mem_ops() > 0);
        }
    }

    /// Intra-workgroup benchmarks must never let two different cores
    /// touch the same cache line (except pure sync words, which they
    /// don't use across cores either).
    #[test]
    fn intra_benchmarks_have_no_cross_core_lines() {
        for b in Benchmark::intra_workgroup() {
            let wl = b.generate(&cfg(), &Scale::quick(), 11);
            let mut owner: std::collections::HashMap<LineAddr, usize> = Default::default();
            for (c, core) in wl.programs.iter().enumerate() {
                for p in core {
                    for op in p.ops.iter() {
                        let addr = match op {
                            MemOp::Load(a) | MemOp::Store(a, _) | MemOp::Atomic(a, _) => Some(*a),
                            MemOp::Lock(a) | MemOp::Unlock(a) => Some(*a),
                            MemOp::Barrier { word, .. } => Some(*word),
                            _ => None,
                        };
                        if let Some(a) = addr {
                            let line = a.line();
                            let prev = owner.insert(line, c);
                            assert!(
                                prev.is_none() || prev == Some(c),
                                "{}: line {line} shared across cores {prev:?} and {c}",
                                b.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Inter-workgroup benchmarks must actually share writable lines
    /// across cores.
    #[test]
    fn inter_benchmarks_share_lines_across_cores() {
        for b in Benchmark::inter_workgroup() {
            let wl = b.generate(&cfg(), &Scale::quick(), 11);
            let mut readers: std::collections::HashMap<LineAddr, HashSet<usize>> =
                Default::default();
            let mut writers: std::collections::HashMap<LineAddr, HashSet<usize>> =
                Default::default();
            for (c, core) in wl.programs.iter().enumerate() {
                for p in core {
                    for op in p.ops.iter() {
                        match op {
                            MemOp::Load(a) => {
                                readers.entry(a.line()).or_default().insert(c);
                            }
                            MemOp::Store(a, _)
                            | MemOp::Atomic(a, _)
                            | MemOp::Lock(a)
                            | MemOp::Unlock(a) => {
                                writers.entry(a.line()).or_default().insert(c);
                            }
                            MemOp::Barrier { word, .. } => {
                                writers.entry(word.line()).or_default().insert(c);
                            }
                            _ => {}
                        }
                    }
                }
            }
            let cross = writers.iter().any(|(line, ws)| {
                let rs = readers.get(line).map_or(0, HashSet::len);
                ws.len() > 1 || (ws.len() == 1 && rs > 1)
            });
            assert!(cross, "{}: no cross-core read-write sharing", b.name());
        }
    }

    #[test]
    fn stn_barrier_membership_is_consistent() {
        let wl = Benchmark::Stn.generate(&cfg(), &Scale::quick(), 5);
        let c = cfg();
        let wgs = c.num_cores
            * Scale::quick()
                .warps_per_core
                .div_ceil(Scale::quick().warps_per_workgroup);
        let mut arrivals_per_word: std::collections::HashMap<_, u64> = Default::default();
        for core in &wl.programs {
            for p in core {
                for op in p.ops.iter() {
                    if let MemOp::Barrier { word, members } = op {
                        assert_eq!(*members, wgs as u64);
                        *arrivals_per_word.entry(*word).or_default() += 1;
                    }
                }
            }
        }
        for (_, arrivals) in arrivals_per_word {
            assert_eq!(arrivals, wgs as u64, "every lead warp arrives exactly once");
        }
    }

    #[test]
    fn dlb_locks_are_balanced() {
        let wl = Benchmark::Dlb.generate(&cfg(), &Scale::quick(), 5);
        let mut locks = 0;
        let mut unlocks = 0;
        for core in &wl.programs {
            for p in core {
                for op in p.ops.iter() {
                    match op {
                        MemOp::Lock(_) => locks += 1,
                        MemOp::Unlock(_) => unlocks += 1,
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(locks, unlocks);
        assert!(locks > 0);
    }

    #[test]
    fn scale_bounds_respected() {
        let mut big = Scale::full();
        big.warps_per_core = 1000; // clamped to the machine
        let wl = Benchmark::Bh.generate(&cfg(), &big, 1);
        assert_eq!(wl.programs[0].len(), cfg().warps_per_core);
    }
}

#[cfg(test)]
mod structure_tests {
    use super::*;
    use rcc_common::addr::LineAddr;
    use std::collections::HashSet;

    fn cfg() -> GpuConfig {
        GpuConfig::small()
    }

    /// Double-buffered stencils must never store into a line they load in
    /// the same op window between two stores (the property that keeps RCC
    /// logical clocks nearly still on intra workloads).
    #[test]
    fn tile_benchmarks_never_store_into_concurrently_read_lines() {
        for b in [Benchmark::Hsp, Benchmark::Lps, Benchmark::Sr] {
            let wl = b.generate(&cfg(), &Scale::quick(), 3);
            for core in &wl.programs {
                for p in core {
                    let mut reads_since_store: HashSet<LineAddr> = HashSet::new();
                    for op in p.ops.iter() {
                        match op {
                            MemOp::Load(a) => {
                                reads_since_store.insert(a.line());
                            }
                            MemOp::Store(a, _) => {
                                assert!(
                                    !reads_since_store.contains(&a.line()),
                                    "{}: store into a line read in the same phase window",
                                    b.name()
                                );
                                // A store marks a window boundary for its
                                // own destination only; reads persist.
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// dlb's scan loads read other workgroups' queue lines — the
    /// cross-core read-write sharing TC-Weak's fences pay for.
    #[test]
    fn dlb_scans_cross_workgroups() {
        let wl = Benchmark::Dlb.generate(&cfg(), &Scale::quick(), 3);
        let mut own_queue_loads = 0usize;
        let mut foreign_queue_loads = 0usize;
        let wpw = Scale::quick().warps_per_workgroup;
        let wgs_per_core = Scale::quick().warps_per_core.div_ceil(wpw);
        for (c, core) in wl.programs.iter().enumerate() {
            for (w, p) in core.iter().enumerate() {
                let my_q = (c * wgs_per_core + w / wpw) as u64;
                for op in p.ops.iter() {
                    if let MemOp::Load(a) = op {
                        if a.line().0 == my_q {
                            own_queue_loads += 1;
                        } else {
                            foreign_queue_loads += 1;
                        }
                    }
                }
            }
        }
        assert!(foreign_queue_loads > 0, "scans must cross workgroups");
        assert!(own_queue_loads > 0, "pops read the own queue");
    }

    /// Fences appear only where the paper's sources have them: in the
    /// inter-workgroup benchmarks.
    #[test]
    fn fences_only_in_inter_workgroup_benchmarks() {
        for b in Benchmark::ALL {
            let wl = b.generate(&cfg(), &Scale::quick(), 3);
            let has_fence = wl
                .programs
                .iter()
                .flatten()
                .flat_map(|p| p.ops.iter())
                .any(|o| matches!(o, MemOp::Fence));
            if b.category().is_inter_workgroup() {
                assert!(
                    has_fence || b == Benchmark::Stn,
                    "{}: inter benchmarks are fenced (stn synchronizes via barriers)",
                    b.name()
                );
            } else {
                assert!(!has_fence, "{}: intra benchmarks need no fences", b.name());
            }
        }
    }
}
