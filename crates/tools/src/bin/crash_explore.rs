//! `crash_explore` — exhaustive crash-state model checking of the LFS.
//!
//! Where `torture` *samples* crash states (random cuts, one seeded torn
//! subset each), this tool *enumerates* them. It records a canonical
//! short workload — creates, overwrites, renames, unlinks, a fragment
//! block shared by a small file and another file's tail, an explicit
//! cleaner pass, a pass whose victims the log reuses before any
//! checkpoint, flushes, syncs, and checkpoints — on a journaling
//! [`CrashDisk`], then walks [`ModelCheck`] over the journal:
//!
//! - every block-granular prefix cut (all of
//!   [`CrashDisk::num_block_cuts`], thousands of states for the default
//!   trace),
//! - at each intra-request cut, every torn block subset of the straddled
//!   request within budget (a seeded sample plus an explicit skip count
//!   beyond it),
//! - and, with `--queue N`, the fence-epoch reorderings a submission
//!   ring plus a reordering drive could produce between barriers.
//!
//! Every unique surviving image is remounted and run through the shared
//! [`InvariantSuite`]: recoverability (checkpoint checksum gating and
//! older-region fallback), structural consistency (the full offline
//! checker), and namespace/content atomicity (base files byte-exact, hot
//! files a prefix of a version they legally held). The base files are
//! made durable by a `sync`, which appends to the log and fences it
//! without a checkpoint, so "base files byte-exact in every state" is
//! the acknowledged-sync check: every cut must bring them back through
//! roll-forward. A violation is
//! minimized by greedy [`CrashSpec`] shrinking into the smallest recipe
//! that still fails, then printed as a self-contained repro.
//!
//! The trace is fully deterministic: two runs enumerate bit-identical
//! state spaces, so a printed [`CrashSpec`] replays forever.
//!
//! Usage: `crash_explore [--ops N] [--queue N] [--bounded] [--max-states N]
//!          [--min-states N] [--window W] [--subsets N] [--json PATH] [--verbose]`
//!
//! `--bounded` is the CI smoke configuration: it trims the per-cut torn
//! subset budget and caps the walk at 25k states so the job is seconds
//! long, while comfortably clearing the 1k-state floor CI asserts via
//! `--min-states`. The walk
//! starts with the fence-epoch reorderings ([`ModelCheck::explore`]), so
//! the cap never cuts them off: a write that overtakes a missing fence
//! shows only there.

use std::time::Instant;

use blockdev::{
    CrashDisk, CrashSpec, MemDisk, ModelCheck, ModelCheckBudget, QueueDevice, QueuedDev, BLOCK_SIZE,
};
use lfs_core::usage::SegState;
use lfs_core::{InvariantSuite, Lfs, LfsConfig};
use vfs::{FileSystem, FsError};

const DISK_BLOCKS: u64 = 512;
const BASE_FILES: usize = 4;
const HOT_FILES: usize = 4;

struct Options {
    ops: usize,
    queue: usize,
    max_states: u64,
    min_states: u64,
    window: u32,
    subsets: u64,
    json: Option<String>,
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: crash_explore [--ops N] [--queue N] [--bounded] [--max-states N] \
         [--min-states N] [--window W] [--subsets N] [--json PATH] [--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        ops: 100,
        queue: 1,
        max_states: 0,
        min_states: 0,
        window: 6,
        subsets: 2048,
        json: None,
        verbose: false,
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
            "--ops" => opts.ops = take(&mut i) as usize,
            "--queue" => opts.queue = (take(&mut i) as usize).max(1),
            "--bounded" => {
                opts.max_states = 25_000;
                opts.subsets = 512;
            }
            "--max-states" => opts.max_states = take(&mut i),
            "--min-states" => opts.min_states = take(&mut i),
            "--window" => opts.window = take(&mut i) as u32,
            "--subsets" => opts.subsets = take(&mut i),
            "--json" => {
                i += 1;
                opts.json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--verbose" => opts.verbose = true,
            _ => usage(),
        }
        i += 1;
    }
    opts
}

/// Deterministic version-tagged content (same scheme as `torture`).
fn version_content(version: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    for (i, b) in v.iter_mut().enumerate() {
        *b = (version as u8).wrapping_add(i as u8).wrapping_mul(37);
    }
    if len >= 4 {
        v[..4].copy_from_slice(&version.to_le_bytes());
    }
    v
}

/// Access to the crash journal beneath an optional submission ring.
trait ExploreDev: QueueDevice {
    fn crash_mut(&mut self) -> &mut CrashDisk;
    fn into_crash(self) -> CrashDisk;
}

impl ExploreDev for CrashDisk {
    fn crash_mut(&mut self) -> &mut CrashDisk {
        self
    }
    fn into_crash(self) -> CrashDisk {
        self
    }
}

impl ExploreDev for QueuedDev<CrashDisk> {
    fn crash_mut(&mut self) -> &mut CrashDisk {
        self.inner_mut()
    }
    fn into_crash(self) -> CrashDisk {
        self.into_inner()
    }
}

/// Namespace races the scripted workload walks into on purpose
/// (renaming over an unlinked file, unlinking twice, ...).
fn tolerable(e: &FsError) -> bool {
    matches!(e, FsError::NotFound | FsError::AlreadyExists)
}

/// Replaces the contents of `path` the way an application overwrites a
/// file — truncate to zero, then write — creating it only when missing.
fn overwrite<D: QueueDevice>(fs: &mut Lfs<D>, path: &str, content: &[u8]) -> Result<(), FsError> {
    match fs.lookup(path) {
        Ok(ino) => {
            fs.truncate(ino, 0)?;
            fs.write(ino, 0, content)
        }
        Err(FsError::NotFound) => fs.write_file(path, content).map(drop),
        Err(e) => Err(e),
    }
}

/// Blocks the reuse step writes: more than a segment, so the log opens a
/// fresh one, the lowest clean, which a pass has just freed.
const SPILL_BLOCKS: usize = 17;

/// Overwrites `/spill` with a new version and syncs it.
fn spill<D: QueueDevice>(
    fs: &mut Lfs<D>,
    suite: &mut InvariantSuite,
    version: &mut u32,
) -> Result<(), FsError> {
    *version += 1;
    let content = version_content(*version, SPILL_BLOCKS * BLOCK_SIZE);
    suite.push_version("/spill", content.clone());
    overwrite(fs, "/spill", &content)?;
    fs.sync()
}

/// The reuse step, right after a checkpoint that saw the last version of
/// `/spill` die: a cleaner pass frees the segments that held it, and
/// `/spill` is written again and synced, before the next checkpoint. The
/// pass's victims are reusable after its fence, and the log, filling
/// segments from the bottom, opens the lowest clean one, so the write
/// lands in a victim. Returns how many of the pass's victims it reused.
fn reuse_victims<D: QueueDevice>(
    fs: &mut Lfs<D>,
    suite: &mut InvariantSuite,
    version: &mut u32,
) -> Result<usize, FsError> {
    let before = fs.segment_snapshot();
    fs.clean_pass()?;
    let after = fs.segment_snapshot();
    let victims: Vec<usize> = (0..before.len())
        .filter(|&s| before[s].0 == SegState::Dirty && after[s].0 == SegState::Clean)
        .collect();
    spill(fs, suite, version)?;
    let now = fs.segment_snapshot();
    Ok(victims
        .iter()
        .filter(|&&s| now[s].0 != SegState::Clean)
        .count())
}

/// Records the canonical trace and returns the journaling disk, the
/// invariant suite describing exactly what the trace promised, and how
/// many victims the log reused before a checkpoint.
///
/// The script is fixed, not random: op `i` always does the same thing, so
/// the journal — and therefore the entire enumerated state space — is
/// identical across runs and machines.
fn record_trace<D: ExploreDev>(
    ops: usize,
    make: impl FnOnce(CrashDisk) -> D,
) -> Result<(CrashDisk, InvariantSuite, usize), String> {
    let cfg = LfsConfig::small();
    let disk = make(CrashDisk::new(DISK_BLOCKS));
    let mut fs = Lfs::format(disk, cfg).map_err(|e| format!("format: {e}"))?;
    let mut suite = InvariantSuite::new();

    // Base files: acknowledged by a `sync` before the crash window
    // opens, so every enumerated state must hold them byte-exact. The
    // sync writes no checkpoint; only roll-forward of the log tail
    // brings them back, until the first mid-trace checkpoint covers
    // them.
    for i in 0..BASE_FILES {
        let content = version_content(i as u32, 1500 + 2500 * i);
        fs.write_file(&format!("/base{i}"), &content)
            .map_err(|e| format!("base write: {e}"))?;
        suite.expect_exact(format!("/base{i}"), content);
    }
    fs.sync().map_err(|e| format!("base sync: {e}"))?;
    fs.device_mut().crash_mut().checkpoint_baseline();

    // The crash window: every op from here on may be cut anywhere.
    let mut version = BASE_FILES as u32;
    // First, one fragment block: the tail of a multi-block file opens it
    // and a small file fills the rest (DESIGN.md §7.3). The cleaner
    // passes below move it.
    for (path, len) in [("/tail", 5000), ("/small", 900)] {
        version += 1;
        let content = version_content(version, len);
        suite.push_version(path, content.clone());
        fs.write_file(path, &content)
            .map_err(|e| format!("fragment write: {e}"))?;
    }
    fs.sync().map_err(|e| format!("fragment sync: {e}"))?;
    let mut live: Vec<Option<Vec<u8>>> = vec![None; HOT_FILES];
    let mut reused = 0;
    for opno in 0..ops {
        let target = opno % HOT_FILES;
        let path = format!("/hot{target}");
        let r = match opno % 8 {
            // Writes dominate, with lengths spanning sub-block to
            // multi-block so cuts land inside data, dirlog, and
            // metadata requests alike.
            0 | 1 | 4 | 6 => {
                version += 1;
                let len = 300 + 1900 * (opno % 5);
                let content = version_content(version, len);
                // Register the attempt before issuing it: a cut can
                // preserve a prefix of a write that "failed" later.
                suite.push_version(&path, content.clone());
                overwrite(&mut fs, &path, &content).map(|()| {
                    live[target] = Some(content);
                })
            }
            2 => {
                let src_i = (opno + 1) % HOT_FILES;
                let src = format!("/hot{src_i}");
                fs.rename(&src, &path).map(|()| {
                    if let Some(content) = live[src_i].take() {
                        suite.push_version(&path, content.clone());
                        live[target] = Some(content);
                    }
                })
            }
            3 => fs.unlink(&path).map(|()| {
                live[target] = None;
            }),
            5 => fs.flush(),
            // An explicit cleaner pass, so relocation chunks are part of
            // the enumerated journal too.
            7 => fs.clean_pass().map(|_| ()),
            _ => unreachable!(),
        };
        if let Err(e) = r {
            if !tolerable(&e) {
                return Err(format!("op {opno}: {e}"));
            }
        }
        // A mid-trace sync and checkpoint every 10 ops. The sync is a log
        // append plus a fence; cuts straddling the checkpoint's region
        // write are the states §4.1's alternation exists for.
        if opno % 10 == 4 {
            fs.sync().map_err(|e| format!("op {opno} sync: {e}"))?;
        }
        // Every 20 ops, a pass whose victims the log reuses before the
        // next checkpoint, of the segments `/spill` left empty.
        let reuse = opno % 20 == 9;
        if reuse {
            spill(&mut fs, &mut suite, &mut version)
                .map_err(|e| format!("op {opno} spill: {e}"))?;
        }
        if opno % 10 == 9 {
            fs.checkpoint()
                .map_err(|e| format!("op {opno} checkpoint: {e}"))?;
        }
        if reuse {
            reused += reuse_victims(&mut fs, &mut suite, &mut version)
                .map_err(|e| format!("op {opno} reuse: {e}"))?;
        }
    }
    fs.flush().map_err(|e| format!("final flush: {e}"))?;
    if ops > 29 && reused == 0 {
        return Err("no reuse step wrote into a victim before a checkpoint".into());
    }

    Ok((fs.into_device().into_crash(), suite, reused))
}

/// Greedily shrinks a failing spec: keep dropping single elements while
/// the materialized image still violates the suite.
fn minimize(
    disk: &CrashDisk,
    suite: &InvariantSuite,
    cfg: LfsConfig,
    spec: &CrashSpec,
) -> (CrashSpec, usize) {
    let still_fails = |cand: &CrashSpec| -> bool {
        match cand.materialize(disk) {
            Ok(img) => !suite.verify_device(img, cfg).0.is_ok(),
            Err(_) => false,
        }
    };
    let mut cur = spec.clone();
    let mut tried = 0usize;
    loop {
        let mut improved = false;
        for step in 0..cur.shrink_steps() {
            if let Some(cand) = cur.shrink(step) {
                tried += 1;
                if still_fails(&cand) {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return (cur, tried);
        }
    }
}

struct Failure {
    spec: CrashSpec,
    lines: Vec<String>,
}

fn main() {
    let opts = parse_args();
    let cfg = LfsConfig::small();

    let recorded = if opts.queue > 1 {
        record_trace(opts.ops, |d| QueuedDev::new(d, opts.queue))
    } else {
        record_trace(opts.ops, |d| d)
    };
    let (disk, suite, reused) = match recorded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("crash_explore: trace recording failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "crash_explore: trace recorded: {} ops, {} journaled writes, {} fences, {} block cuts, \
         {} victims reused before a checkpoint{}",
        opts.ops,
        disk.num_writes(),
        disk.fence_points().len(),
        disk.num_block_cuts(),
        reused,
        if opts.queue > 1 {
            format!(" (queue depth {})", opts.queue)
        } else {
            String::new()
        }
    );

    let budget = ModelCheckBudget {
        max_subsets_per_cut: opts.subsets,
        reorder_window: opts.window,
        max_states: opts.max_states,
        ..ModelCheckBudget::default()
    };
    let start = Instant::now();
    let mut failure: Option<Failure> = None;
    let checked = ModelCheck::new(&disk, budget).explore(|image: MemDisk, spec| {
        let (report, _) = suite.verify_device(image, cfg);
        if report.is_ok() {
            return true;
        }
        failure = Some(Failure {
            spec: spec.clone(),
            lines: report.failures(),
        });
        false // stop at the first violation; it will be minimized below
    });
    let stats = match checked {
        Ok(s) => s,
        Err(e) => {
            eprintln!("crash_explore: enumeration failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = start.elapsed().as_secs_f64();

    println!(
        "crash_explore: {} states ({} cut, {} torn-subset, {} reorder), {} unique, \
         {} duplicate ({:.1}% dedup), {} subsets beyond budget{}",
        stats.visited(),
        stats.cut_states,
        stats.subset_states,
        stats.reorder_states,
        stats.unique,
        stats.duplicates,
        stats.dedup_rate().unwrap_or(0.0) * 100.0,
        stats.subsets_skipped,
        if stats.truncated { " [truncated]" } else { "" }
    );
    println!(
        "crash_explore: {:.2}s, {:.0} states/s (mount + full check + content verify per state)",
        elapsed,
        stats.visited() as f64 / elapsed.max(1e-9)
    );
    if opts.verbose {
        println!(
            "crash_explore: budget: subsets/cut ≤ {}, reorder window {}, max states {}",
            opts.subsets, opts.window, opts.max_states
        );
    }

    if let Some(path) = &opts.json {
        let line = format!(
            "{{\"tool\":\"crash_explore\",\"ops\":{},\"queue\":{},\"journal_writes\":{},\"block_cuts\":{},\
             \"victims_reused\":{},\"states\":{},\"cut_states\":{},\"subset_states\":{},\"reorder_states\":{},\
             \"unique\":{},\"duplicates\":{},\"subsets_skipped\":{},\"truncated\":{},\
             \"elapsed_s\":{:.3},\"states_per_s\":{:.0},\"violations\":{}}}",
            opts.ops,
            opts.queue,
            disk.num_writes(),
            disk.num_block_cuts(),
            reused,
            stats.visited(),
            stats.cut_states,
            stats.subset_states,
            stats.reorder_states,
            stats.unique,
            stats.duplicates,
            stats.subsets_skipped,
            stats.truncated,
            elapsed,
            stats.visited() as f64 / elapsed.max(1e-9),
            u64::from(failure.is_some()),
        );
        // Append, like every other bench_results JSONL producer: one
        // row per run, so sweeps over ops/queue/budget accumulate.
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, (line + "\n").as_bytes()));
        if let Err(e) = res {
            eprintln!("crash_explore: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("crash_explore: stats appended to {path}");
    }

    if let Some(f) = failure {
        eprintln!("crash_explore: INVARIANT VIOLATION at state {}", f.spec);
        for line in &f.lines {
            eprintln!("  {line}");
        }
        let (min, tried) = minimize(&disk, &suite, cfg, &f.spec);
        let min_lines = min
            .materialize(&disk)
            .map(|img| suite.verify_device(img, cfg).0.failures())
            .unwrap_or_default();
        eprintln!(
            "crash_explore: minimized repro ({} shrink candidates tried): {min}",
            tried
        );
        for line in &min_lines {
            eprintln!("  {line}");
        }
        eprintln!(
            "crash_explore: replay: rerun with identical flags; the trace is deterministic \
             and the spec above re-materializes the failing image"
        );
        std::process::exit(1);
    }

    if opts.min_states > 0 && stats.unique < opts.min_states {
        eprintln!(
            "crash_explore: only {} unique states (< required {})",
            stats.unique, opts.min_states
        );
        std::process::exit(1);
    }
    println!("crash_explore: all invariants hold over every enumerated state");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state space is only a proof if two runs enumerate the same
    /// thing: the scripted trace must journal bit-identical writes.
    #[test]
    fn trace_is_deterministic() {
        let (a, ..) = record_trace(30, |d| d).unwrap();
        let (b, ..) = record_trace(30, |d| d).unwrap();
        assert_eq!(a.num_writes(), b.num_writes());
        assert_eq!(a.num_block_cuts(), b.num_block_cuts());
        let ia = a.image_after(a.num_writes()).unwrap();
        let ib = b.image_after(b.num_writes()).unwrap();
        assert_eq!(ia.image(), ib.image());
    }

    /// The ring must not change what reaches the journal — the queued
    /// trace must enumerate the same final image as the direct one.
    #[test]
    fn queued_trace_matches_direct() {
        let (a, ..) = record_trace(30, |d| d).unwrap();
        let (b, ..) = record_trace(30, |d| QueuedDev::new(d, 4)).unwrap();
        let ia = a.image_after(a.num_writes()).unwrap();
        let ib = b.image_after(b.num_writes()).unwrap();
        assert_eq!(ia.image(), ib.image());
    }

    /// Greedy shrinking terminates and lands on a spec that still fails.
    /// A suite expecting a never-written file fails on *every* state, so
    /// the minimum is the empty spec.
    #[test]
    fn minimize_reaches_a_minimal_failing_spec() {
        let (disk, ..) = record_trace(20, |d| d).unwrap();
        let mut suite = InvariantSuite::new();
        suite.expect_exact("/never-written", b"x".to_vec());
        let full = CrashSpec::prefix(disk.num_writes());
        let (min, tried) = minimize(&disk, &suite, LfsConfig::small(), &full);
        assert!(tried > 0);
        assert!(
            min.persisted.is_empty(),
            "minimal spec should be empty: {min}"
        );
        assert!(min.torn.is_none());
        let img = min.materialize(&disk).unwrap();
        assert!(!suite.verify_device(img, LfsConfig::small()).0.is_ok());
    }

    /// Every enumerated state of the canonical trace satisfies the
    /// recorded suite — the in-process version of the CI smoke.
    #[test]
    fn bounded_exploration_holds_invariants() {
        let (disk, suite, reused) = record_trace(30, |d| d).unwrap();
        assert!(reused > 0, "no victim reused before a checkpoint");
        let budget = ModelCheckBudget {
            max_subsets_per_cut: 64,
            max_states: 2000,
            ..ModelCheckBudget::default()
        };
        let mut bad = 0u32;
        let stats = ModelCheck::new(&disk, budget)
            .explore(|img, _| {
                if !suite.verify_device(img, LfsConfig::small()).0.is_ok() {
                    bad += 1;
                }
                true
            })
            .unwrap();
        assert_eq!(bad, 0);
        assert!(stats.unique > 50, "too few states: {}", stats.unique);
    }
}
