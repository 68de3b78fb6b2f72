//! `torture` — randomized crash + fault-injection torture for the LFS.
//!
//! Each seed drives one independent round:
//!
//! 1. Format a small file system on a journaling [`CrashDisk`] wrapped in
//!    a [`FaultDisk`], write a set of *base* files, and checkpoint them.
//! 2. Arm transient read/write faults and write tearing, then run a
//!    randomized workload (writes, unlinks, renames, flushes, syncs) on a
//!    separate set of *hot* files, tracking every content version each
//!    path has ever held.
//! 3. Crash: cut the write journal at random *block* granularity — the
//!    straddling request persists an arbitrary subset of its blocks — and
//!    remount the surviving image on a plain [`MemDisk`].
//! 4. Verify with the shared [`InvariantSuite`] (the same predicate
//!    `lfsck` and the `crash_explore` model checker assert): the mount
//!    must succeed, the offline checker must report clean, the base
//!    files must be byte-exact, and every surviving hot file must hold a
//!    prefix of one of its historical contents (torn intermediate states
//!    are format bugs, not bad luck).
//!
//! With `--rot`, random bit flips are also applied to the crashed image;
//! in that mode a mount may legitimately fail with a corruption error, so
//! only panics and dirty-but-mounted states count as failures.
//!
//! Everything is deterministic in the seed: `torture --start S --seeds 1`
//! replays round S bit-for-bit.
//!
//! With `--metrics <path>` an observability registry is shared across all
//! rounds: operation/disk latency histograms and trace-event tallies
//! accumulate over every seed (counters mirror the final round's stats),
//! and the `lfs-metrics/1` snapshot is written to `<path>` at exit —
//! render it with `lfstop <path>`.
//!
//! With `--queue N` (N > 1) the faulty crash device runs behind an
//! N-deep submission queue, so the workload, the fault injection, and
//! the crash cuts all exercise the queued write path: parked
//! submissions that never reached the journal before the crash are
//! simply lost, which is a legal crash state the verifier already
//! accepts.
//!
//! With `--clients N` (N > 1) the hot-file churn in phase 2 is driven by
//! N client threads hammering one shared mount ([`SharedLfs`])
//! concurrently instead of a single sequential loop. Each client owns a
//! private slice of the hot namespace, so every path still has a
//! single-writer history the verifier can check prefix-of-history
//! against; what the mode exercises is the interleaving of concurrent
//! log appends, group-committed syncs, and lock-free reads with fault
//! injection and the crash cuts. Combine with `--queue 4` to run the
//! whole thing over the queued write path.
//!
//! With `--volumes N` (N > 1) the file system runs on a [`VolumeSet`] of
//! N independent crash+fault disks: each shard keeps its own write
//! journal and fault plan, and every crash cut truncates each shard's
//! journal *independently* — exactly the failure model of real multi-disk
//! arrays, where one spindle can be arbitrarily far ahead of another at
//! power loss. The surviving per-shard images are reassembled into a
//! volume set of plain [`MemDisk`]s and verified with the same invariant
//! suite. Combine with `--queue`/`--clients` to put the fan-out
//! submission path and the shared-mount writer lane under the same
//! torture.
//!
//! Usage: `torture [--seeds N] [--start S] [--ops K] [--cuts C] [--queue N] [--clients N] [--volumes N] [--rot] [--verbose] [--metrics PATH]`

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{
    CrashDisk, FaultCounts, FaultDisk, FaultPlan, MemDisk, QueueDevice, QueuedDev, VolumeSet,
    BLOCK_SIZE,
};
use lfs_core::layout::SEGMENTS_START;
use lfs_core::{InvariantReport, InvariantSuite, Lfs, LfsConfig, SharedLfs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vfs::{FileSystem, FsError};

const DISK_BLOCKS: u64 = 512;
const HOT_FILES: usize = 8;
const BASE_FILES: usize = 6;
/// Private hot files per client in `--clients` mode.
const CLIENT_FILES: usize = 3;

struct Options {
    seeds: u64,
    start: u64,
    ops: usize,
    cuts: usize,
    queue: usize,
    clients: usize,
    volumes: usize,
    rot: bool,
    verbose: bool,
    metrics: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: torture [--seeds N] [--start S] [--ops K] [--cuts C] [--queue N] [--clients N] \
         [--volumes N] [--rot] [--verbose] [--metrics PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seeds: 10,
        start: 0,
        ops: 500,
        cuts: 3,
        queue: 1,
        clients: 1,
        volumes: 1,
        rot: false,
        verbose: false,
        metrics: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> u64 {
            *i += 1;
            args.get(*i)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--seeds" => opts.seeds = take(&mut i),
            "--start" => opts.start = take(&mut i),
            "--ops" => opts.ops = take(&mut i) as usize,
            "--cuts" => opts.cuts = take(&mut i) as usize,
            "--queue" => opts.queue = (take(&mut i) as usize).max(1),
            "--clients" => opts.clients = (take(&mut i) as usize).max(1),
            "--volumes" => opts.volumes = (take(&mut i) as usize).max(1),
            "--rot" => opts.rot = true,
            "--metrics" => {
                i += 1;
                opts.metrics = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--verbose" => opts.verbose = true,
            _ => usage(),
        }
        i += 1;
    }
    opts
}

fn hot_path(n: usize) -> String {
    format!("/hot{n}")
}

fn client_path(cid: usize, n: usize) -> String {
    format!("/c{cid}h{n}")
}

fn base_path(n: usize) -> String {
    format!("/base{n}")
}

/// Version-tagged file content: unique enough that distinct versions never
/// collide, cheap enough to generate thousands of times.
fn version_content(seed: u64, version: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    for (i, b) in v.iter_mut().enumerate() {
        *b = (seed as u8)
            .wrapping_add(version as u8)
            .wrapping_add(i as u8)
            .wrapping_mul(31);
    }
    if len >= 8 {
        v[..4].copy_from_slice(&version.to_le_bytes());
        v[4..8].copy_from_slice(&(seed as u32).to_le_bytes());
    }
    v
}

/// Tolerable workload-op outcomes: namespace races the generator walks
/// into on purpose. Anything else is a real failure.
fn tolerable(e: &FsError) -> bool {
    matches!(
        e,
        FsError::NotFound
            | FsError::AlreadyExists
            | FsError::NoSpace
            | FsError::DirectoryNotEmpty
            | FsError::IsADirectory
            | FsError::NotADirectory
    )
}

/// Access to the fault/crash layers of the torture device, whether it is
/// used directly, behind a submission queue, or sharded across a volume
/// set (one fault/journal layer per shard).
trait TortureDev: QueueDevice {
    /// Number of independent fault/journal layers (shards).
    fn nfaults(&self) -> usize {
        1
    }
    fn fault(&self, i: usize) -> &FaultDisk<CrashDisk>;
    fn fault_mut(&mut self, i: usize) -> &mut FaultDisk<CrashDisk>;
}

impl TortureDev for FaultDisk<CrashDisk> {
    fn fault(&self, _i: usize) -> &FaultDisk<CrashDisk> {
        self
    }
    fn fault_mut(&mut self, _i: usize) -> &mut FaultDisk<CrashDisk> {
        self
    }
}

impl TortureDev for QueuedDev<FaultDisk<CrashDisk>> {
    fn fault(&self, _i: usize) -> &FaultDisk<CrashDisk> {
        self.inner()
    }
    fn fault_mut(&mut self, _i: usize) -> &mut FaultDisk<CrashDisk> {
        self.inner_mut()
    }
}

impl<D: TortureDev> TortureDev for VolumeSet<D> {
    fn nfaults(&self) -> usize {
        self.num_shards()
    }
    fn fault(&self, i: usize) -> &FaultDisk<CrashDisk> {
        self.shard(i).fault(0)
    }
    fn fault_mut(&mut self, i: usize) -> &mut FaultDisk<CrashDisk> {
        self.shard_mut(i).fault_mut(0)
    }
}

/// Per-shard disk size: `--volumes 1` keeps the historical geometry;
/// sharded runs split roughly the same total across shards, rounded to
/// whole segments (the stripe unit).
fn shard_blocks(total: u64, volumes: usize, seg_blocks: u64) -> u64 {
    if volumes == 1 {
        return total;
    }
    let stripes = (total.saturating_sub(SEGMENTS_START)).div_ceil(seg_blocks);
    let per_shard = stripes.div_ceil(volumes as u64).max(6);
    SEGMENTS_START + per_shard * seg_blocks
}

/// The fresh per-shard fault/journal stack for one round.
fn fresh_shards(seed: u64, blocks: u64, volumes: usize) -> Vec<FaultDisk<CrashDisk>> {
    (0..volumes as u64)
        .map(|i| FaultDisk::new(CrashDisk::new(blocks), FaultPlan::new(seed ^ (i << 48) ^ i)))
        .collect()
}

/// Sums the injected-fault counters over every shard.
fn summed_fault_counts<D: TortureDev>(dev: &D) -> FaultCounts {
    let mut total = FaultCounts::default();
    for i in 0..dev.nfaults() {
        let c = dev.fault(i).counts();
        total.read_faults += c.read_faults;
        total.write_faults += c.write_faults;
        total.torn_writes += c.torn_writes;
    }
    total
}

/// Block-granular positions of a shard journal's fence barriers.
fn fence_block_positions(j: &CrashDisk) -> Vec<usize> {
    let mut prefix = Vec::with_capacity(j.num_writes() + 1);
    let mut acc = 0usize;
    prefix.push(0);
    for i in 0..j.num_writes() {
        acc += j.write_record(i).map(|w| w.nblocks).unwrap_or(0);
        prefix.push(acc);
    }
    j.fence_points().iter().map(|&p| prefix[p]).collect()
}

/// One crash: cut every shard's write journal at an independently drawn
/// block count (with per-shard tearing of the straddling request, and
/// `--rot` bit flips), returning the surviving per-shard images plus a
/// replay tag naming each shard's cut.
///
/// Cross-shard skew is bounded by the global fences: the file system
/// only issues a post-fence write (a checkpoint, say) after the fence
/// completed on *every* shard, so a crash can tear shards against each
/// other only within one fence window — a surviving checkpoint must
/// never reference pre-fence blocks some other spindle lost. A single
/// volume keeps the historical unconstrained draw (a one-journal prefix
/// respects its own fences by construction).
fn torn_shard_images<D: TortureDev>(
    dev: &D,
    rng: &mut StdRng,
    opts: &Options,
    seed: u64,
    c: usize,
) -> Result<(Vec<Vec<u8>>, String), String> {
    let n = dev.nfaults();
    let window = if n > 1 {
        let nwindows = (0..n)
            .map(|i| dev.fault(i).inner().fence_points().len())
            .min()
            .unwrap_or(0);
        Some(rng.gen_range(0usize..nwindows + 1))
    } else {
        None
    };
    let mut imgs = Vec::new();
    let mut cuts = Vec::new();
    for i in 0..n {
        let journal = dev.fault(i).inner();
        let max_cut = journal.num_block_cuts();
        let (lo, hi) = match window {
            None => (0, max_cut),
            Some(w) => {
                let fences = fence_block_positions(journal);
                let lo = if w == 0 { 0 } else { fences[w - 1] };
                let hi = fences.get(w).copied().unwrap_or(max_cut);
                (lo, hi)
            }
        };
        let cut = rng.gen_range(lo..hi + 1);
        let torn_seed = rng.gen_range(0u64..u64::MAX);
        let sync_atomic = rng.gen_bool(0.5);
        let image = journal
            .torn_image_after(cut, torn_seed, sync_atomic)
            .map_err(|e| format!("shard {i} cut {cut}/{max_cut}: {e}"))?;
        let mut img = image.into_image();
        if opts.rot {
            for _ in 0..rng.gen_range(1usize..4) {
                let block = rng.gen_range(0usize..img.len() / BLOCK_SIZE);
                let byte = rng.gen_range(0usize..BLOCK_SIZE);
                img[block * BLOCK_SIZE + byte] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        cuts.push(format!("{cut}/{max_cut}"));
        imgs.push(img);
    }
    let tag = format!("seed {seed} cut {c} ([{}] blocks)", cuts.join(" "));
    Ok((imgs, tag))
}

/// Remounts the surviving images — bare [`MemDisk`] for one volume, a
/// reassembled [`VolumeSet`] for several — and asserts the full suite.
fn verify_images(
    suite: &InvariantSuite,
    mut imgs: Vec<Vec<u8>>,
    cfg: LfsConfig,
    obs: &lfs_obs::Obs,
) -> InvariantReport {
    let o = obs.is_on().then(|| obs.clone());
    if imgs.len() == 1 {
        suite
            .verify_device_obs(MemDisk::from_image(imgs.remove(0)), cfg, o)
            .0
    } else {
        let shards: Vec<MemDisk> = imgs.into_iter().map(MemDisk::from_image).collect();
        let set = VolumeSet::new(shards, SEGMENTS_START, cfg.seg_blocks as u64);
        suite.verify_device_obs(set, cfg, o).0
    }
}

/// One torture round. `Err` carries a human-readable diagnosis.
fn run_seed<D: TortureDev>(
    seed: u64,
    opts: &Options,
    obs: &lfs_obs::Obs,
    make: impl FnOnce(Vec<FaultDisk<CrashDisk>>) -> D,
) -> Result<(), String> {
    let mut cfg = LfsConfig::small();
    // Consecutive seeds rotate through the cleaning policies, so every
    // smoke covers all of them and a seed still replays exactly.
    let policies = lfs_core::CleaningPolicy::ALL;
    cfg.policy = policies[seed as usize % policies.len()];
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: quiet device, base files, checkpoint, journal baseline.
    let blocks = shard_blocks(DISK_BLOCKS, opts.volumes, cfg.seg_blocks as u64);
    let disk = make(fresh_shards(seed, blocks, opts.volumes));
    let mut fs = Lfs::format(disk, cfg).map_err(|e| format!("format: {e}"))?;
    if obs.is_on() {
        fs.set_obs(obs.clone());
    }
    // Expectations accumulate into the shared invariant suite as the
    // workload runs; after each crash cut the whole suite is asserted.
    let mut suite = InvariantSuite::new();
    for i in 0..BASE_FILES {
        let content = version_content(seed, i as u32, 2000 + 3000 * i);
        fs.write_file(&base_path(i), &content)
            .map_err(|e| format!("base write: {e}"))?;
        suite.expect_exact(base_path(i), content);
    }
    fs.sync().map_err(|e| format!("base sync: {e}"))?;
    for i in 0..fs.device().nfaults() {
        fs.device_mut()
            .fault_mut(i)
            .inner_mut()
            .checkpoint_baseline();
    }

    // Phase 2: arm each shard's fault plan and churn the hot namespace.
    for i in 0..fs.device().nfaults() {
        let plan_seed = rng.gen_range(0u64..u64::MAX);
        let plan = fs.device_mut().fault_mut(i).plan_mut();
        plan.seed = plan_seed;
        plan.read_fault_rate = 0.1;
        plan.write_fault_rate = 0.15;
        plan.transient_failures = 2; // < the fs retry budget, so ops succeed
        plan.tear_writes = true;
    }
    // Every content version each hot path has ever held lives in the
    // suite; `live` additionally tracks what each path holds *now* so a
    // rename can propagate content to its destination's history.
    let mut live: HashMap<String, Vec<u8>> = HashMap::new();
    let mut version = BASE_FILES as u32;

    for opno in 0..opts.ops {
        let roll = rng.gen_range(0u32..100);
        let r = if roll < 55 {
            let path = hot_path(rng.gen_range(0usize..HOT_FILES));
            version += 1;
            let len = rng.gen_range(0usize..16_000);
            let content = version_content(seed, version, len);
            // Record the attempt *before* issuing it: even a write that
            // fails mid-way (NoSpace) may leave a prefix of this content
            // on disk after a crash.
            suite.push_version(&path, content.clone());
            match fs.write_file(&path, &content) {
                Ok(_) => {
                    live.insert(path, content);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if roll < 70 {
            let path = hot_path(rng.gen_range(0usize..HOT_FILES));
            match fs.unlink(&path) {
                Ok(()) => {
                    live.remove(&path);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if roll < 80 {
            let src = hot_path(rng.gen_range(0usize..HOT_FILES));
            let dst = hot_path(rng.gen_range(0usize..HOT_FILES));
            match fs.rename(&src, &dst) {
                Ok(()) => {
                    if let Some(content) = live.remove(&src) {
                        suite.push_version(&dst, content.clone());
                        live.insert(dst, content);
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if roll < 90 {
            fs.flush()
        } else {
            fs.sync()
        };
        if let Err(e) = r {
            if !tolerable(&e) {
                return Err(format!("op {opno}: {e}"));
            }
        }
    }

    if fs.stats().degraded() {
        return Err("fs went degraded despite transient-only faults".into());
    }
    let fault_counts = summed_fault_counts(fs.device());

    // Phase 3 + 4: crash at random block cuts and verify the survivor.
    // Each shard's journal is cut independently — at power loss one
    // spindle may be arbitrarily far ahead of another.
    for c in 0..opts.cuts {
        let (imgs, tag) = torn_shard_images(fs.device(), &mut rng, opts, seed, c)?;
        // The shared suite runs the whole chain: mount (checkpoint
        // gating + roll-forward), structural check, base-file
        // byte-exactness, and hot-file prefix-of-history (crash
        // atomicity is per *flush*, not per operation: large writes
        // deliberately recover as a correct prefix, and a cut between a
        // create's dirlog chunk and its data chunk leaves the file
        // empty — see `InvariantSuite`).
        let report = verify_images(&suite, imgs, cfg, obs);
        if opts.rot {
            // Rot may corrupt anything, including live data the suite
            // expects: every outcome short of a panic is legal.
            continue;
        }
        if !report.is_ok() {
            return Err(format!("{tag}: {}", report.failures().join("; ")));
        }
    }

    // Counters mirror this (the most recent) round; histograms and trace
    // tallies accumulate across rounds because the sinks are shared.
    fs.publish_metrics();

    if opts.verbose {
        println!(
            "seed {seed}: ok ({} write faults, {} read faults, {} torn, {} retries, {} segs cleaned)",
            fault_counts.write_faults,
            fault_counts.read_faults,
            fault_counts.torn_writes,
            fs.stats().io_retries,
            fs.stats().cleaner.segments_cleaned,
        );
    }
    Ok(())
}

/// One concurrent-clients torture round: the same format → fault-arm →
/// crash-cut → verify pipeline as [`run_seed`], except phase 2 runs
/// `--clients` threads over one [`SharedLfs`] mount. Per-client version
/// logs are merged into the invariant suite after the threads join, so
/// the verifier sees every content version any path ever held no matter
/// how the writer lane interleaved the appends.
fn run_seed_clients<D: TortureDev + Send>(
    seed: u64,
    opts: &Options,
    obs: &lfs_obs::Obs,
    make: impl FnOnce(Vec<FaultDisk<CrashDisk>>) -> D,
) -> Result<(), String> {
    let cfg = LfsConfig::small();
    let clients = opts.clients;
    // Scale the disk so N clients' private hot sets (plus cleaner slack)
    // fit; NoSpace under churn is still tolerable, like in classic mode.
    let disk_blocks = DISK_BLOCKS.max(192 * clients as u64);
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: quiet device, base files, checkpoint, journal baseline.
    let blocks = shard_blocks(disk_blocks, opts.volumes, cfg.seg_blocks as u64);
    let disk = make(fresh_shards(seed, blocks, opts.volumes));
    let mut fs = Lfs::format(disk, cfg).map_err(|e| format!("format: {e}"))?;
    if obs.is_on() {
        fs.set_obs(obs.clone());
    }
    let mut suite = InvariantSuite::new();
    for i in 0..BASE_FILES {
        let content = version_content(seed, i as u32, 2000 + 3000 * i);
        fs.write_file(&base_path(i), &content)
            .map_err(|e| format!("base write: {e}"))?;
        suite.expect_exact(base_path(i), content);
    }
    fs.sync().map_err(|e| format!("base sync: {e}"))?;
    for i in 0..fs.device().nfaults() {
        fs.device_mut()
            .fault_mut(i)
            .inner_mut()
            .checkpoint_baseline();
    }

    // Phase 2: arm each shard's fault plan, then let the clients loose on
    // one shared mount.
    for i in 0..fs.device().nfaults() {
        let plan_seed = rng.gen_range(0u64..u64::MAX);
        let plan = fs.device_mut().fault_mut(i).plan_mut();
        plan.seed = plan_seed;
        plan.read_fault_rate = 0.1;
        plan.write_fault_rate = 0.15;
        plan.transient_failures = 2; // < the fs retry budget, so ops succeed
        plan.tear_writes = true;
    }
    let shared = SharedLfs::new(fs);
    let ops_per_client = opts.ops.div_ceil(clients);
    let results: Vec<Result<ClientHistory, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|cid| {
                let mut h = shared.clone();
                s.spawn(move || client_worker(cid, seed, ops_per_client, &mut h))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        for (path, content) in r? {
            suite.push_version(&path, content);
        }
    }

    let fs = shared
        .into_inner()
        .map_err(|_| "shared handle still referenced after join".to_string())?;
    if fs.stats().degraded() {
        return Err("fs went degraded despite transient-only faults".into());
    }
    let fault_counts = summed_fault_counts(fs.device());

    // Phase 3 + 4: crash at random block cuts and verify the survivor —
    // identical to classic mode; concurrency only changed how the log
    // got written, not what a legal crash state looks like.
    for c in 0..opts.cuts {
        let (imgs, tag) = torn_shard_images(fs.device(), &mut rng, opts, seed, c)?;
        let report = verify_images(&suite, imgs, cfg, obs);
        if opts.rot {
            continue;
        }
        if !report.is_ok() {
            return Err(format!(
                "{tag} ({clients} clients): {}",
                report.failures().join("; ")
            ));
        }
    }

    fs.publish_metrics();

    if opts.verbose {
        println!(
            "seed {seed}: ok ({} clients, {} write faults, {} read faults, {} torn, {} retries, {} segs cleaned)",
            clients,
            fault_counts.write_faults,
            fault_counts.read_faults,
            fault_counts.torn_writes,
            fs.stats().io_retries,
            fs.stats().cleaner.segments_cleaned,
        );
    }
    Ok(())
}

/// Version history one client accumulates for the invariant suite:
/// every content any of its paths was ever *asked* to hold.
type ClientHistory = Vec<(String, Vec<u8>)>;

/// One client thread's randomized churn over its private hot files.
/// Returns the version history to merge into the invariant suite
/// (a write that fails mid-way may still leave a prefix on disk after
/// a crash, so attempts are recorded before they are issued).
fn client_worker<D: TortureDev>(
    cid: usize,
    seed: u64,
    ops: usize,
    fs: &mut SharedLfs<D>,
) -> Result<ClientHistory, String> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (cid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC11E);
    let mut history: ClientHistory = Vec::new();
    let mut live: HashMap<String, Vec<u8>> = HashMap::new();
    // Version numbers are disjoint across clients so contents never
    // collide between namespaces.
    let mut version = (cid as u32 + 1) * 100_000;
    for opno in 0..ops {
        let roll = rng.gen_range(0u32..100);
        let r = if roll < 55 {
            let path = client_path(cid, rng.gen_range(0usize..CLIENT_FILES));
            version += 1;
            let len = rng.gen_range(0usize..8_000);
            let content = version_content(seed ^ ((cid as u64) << 32), version, len);
            history.push((path.clone(), content.clone()));
            match fs.write_file(&path, &content) {
                Ok(_) => {
                    live.insert(path, content);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if roll < 70 {
            let path = client_path(cid, rng.gen_range(0usize..CLIENT_FILES));
            match fs.unlink(&path) {
                Ok(()) => {
                    live.remove(&path);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if roll < 78 {
            let src = client_path(cid, rng.gen_range(0usize..CLIENT_FILES));
            let dst = client_path(cid, rng.gen_range(0usize..CLIENT_FILES));
            match fs.rename(&src, &dst) {
                Ok(()) => {
                    if let Some(content) = live.remove(&src) {
                        history.push((dst.clone(), content.clone()));
                        live.insert(dst, content);
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if roll < 88 {
            // Lock-free read path: verify a file this client believes is
            // live still reads back as the content it last wrote.
            let path = client_path(cid, rng.gen_range(0usize..CLIENT_FILES));
            match (live.get(&path), fs.lookup(&path)) {
                (Some(want), Ok(ino)) => match fs.read_to_vec(ino) {
                    Ok(got) if &got == want => Ok(()),
                    Ok(got) => {
                        return Err(format!(
                            "client {cid} op {opno}: {path} read back {} bytes, wanted {}",
                            got.len(),
                            want.len()
                        ));
                    }
                    Err(e) => Err(e),
                },
                (_, Err(e)) => Err(e),
                (None, Ok(_)) => Ok(()),
            }
        } else if roll < 94 {
            fs.flush()
        } else {
            fs.sync()
        };
        if let Err(e) = r {
            if !tolerable(&e) {
                return Err(format!("client {cid} op {opno}: {e}"));
            }
        }
    }
    Ok(history)
}

fn main() {
    let opts = parse_args();
    let obs = if opts.metrics.is_some() {
        lfs_obs::Obs::recording(16_384)
    } else {
        lfs_obs::Obs::off()
    };
    let mut failures = 0u64;
    // Stripe unit for multi-volume runs: one segment, like `Lfs::format`
    // requires.
    let stripe = LfsConfig::small().seg_blocks as u64;
    for seed in opts.start..opts.start + opts.seeds {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let q = opts.queue;
            match (opts.clients > 1, opts.queue > 1, opts.volumes > 1) {
                (false, false, false) => run_seed(seed, &opts, &obs, |mut d| d.remove(0)),
                (false, true, false) => {
                    run_seed(seed, &opts, &obs, |mut d| QueuedDev::new(d.remove(0), q))
                }
                (false, false, true) => run_seed(seed, &opts, &obs, |d| {
                    VolumeSet::new(d, SEGMENTS_START, stripe)
                }),
                (false, true, true) => run_seed(seed, &opts, &obs, |d| {
                    let qd: Vec<_> = d.into_iter().map(|s| QueuedDev::new(s, q)).collect();
                    VolumeSet::new(qd, SEGMENTS_START, stripe)
                }),
                (true, false, false) => run_seed_clients(seed, &opts, &obs, |mut d| d.remove(0)),
                (true, true, false) => {
                    run_seed_clients(seed, &opts, &obs, |mut d| QueuedDev::new(d.remove(0), q))
                }
                (true, false, true) => run_seed_clients(seed, &opts, &obs, |d| {
                    VolumeSet::new(d, SEGMENTS_START, stripe)
                }),
                (true, true, true) => run_seed_clients(seed, &opts, &obs, |d| {
                    let qd: Vec<_> = d.into_iter().map(|s| QueuedDev::new(s, q)).collect();
                    VolumeSet::new(qd, SEGMENTS_START, stripe)
                }),
            }
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => {
                failures += 1;
                eprintln!("torture: seed {seed} FAILED: {msg}");
            }
            Err(_) => {
                failures += 1;
                eprintln!("torture: seed {seed} PANICKED (replay with --start {seed} --seeds 1)");
            }
        }
    }
    println!(
        "torture: {}/{} seeds passed{}{}{}{}",
        opts.seeds - failures,
        opts.seeds,
        if opts.queue > 1 {
            format!(" (queue depth {})", opts.queue)
        } else {
            String::new()
        },
        if opts.clients > 1 {
            format!(" ({} clients)", opts.clients)
        } else {
            String::new()
        },
        if opts.volumes > 1 {
            format!(" ({} volumes)", opts.volumes)
        } else {
            String::new()
        },
        if opts.rot { " (rot mode)" } else { "" }
    );
    if let Some(path) = &opts.metrics {
        if let Some(reg) = obs.registry.as_deref() {
            reg.counter("torture.seeds_run").store(opts.seeds);
            reg.counter("torture.seeds_failed").store(failures);
        }
        let snap = obs.snapshot().expect("metrics mode always has a registry");
        if let Err(e) = snap.save(std::path::Path::new(path)) {
            eprintln!("torture: cannot write metrics snapshot {path}: {e}");
            std::process::exit(1);
        }
        println!("torture: metrics snapshot saved to {path}");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
