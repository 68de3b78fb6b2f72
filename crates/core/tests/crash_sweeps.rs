//! Exhaustive crash-point sweeps for every directory-log operation.
//!
//! For each operation kind, the sweep crashes at every recorded write
//! boundary and asserts the shared [`InvariantSuite`] — (a) the file
//! system mounts, (b) the offline consistency check passes — plus a
//! scenario-specific closure checking that the observable state is one
//! of the legal states (before or after the operation, never in
//! between).

use blockdev::{CrashDisk, MemDisk, QueueDevice, QueuedDev, WriteKind, BLOCK_SIZE};
use lfs_core::checkpoint::Checkpoint;
use lfs_core::layout::{CR0_ADDR, CR1_ADDR};
use lfs_core::summary::Summary;
use lfs_core::usage::SegState;
use lfs_core::{InvariantSuite, Lfs, LfsConfig};
use vfs::{FileSystem, FsError, Ino};

/// Asserts `suite` on a crashed image and hands back the mounted
/// survivor for scenario-specific checks.
fn verify_cut(suite: &InvariantSuite, image: MemDisk, cfg: LfsConfig, tag: &str) -> Lfs<MemDisk> {
    let (report, fs) = suite.verify_device(image, cfg);
    assert!(report.is_ok(), "{tag}: {report}");
    fs.unwrap_or_else(|| panic!("{tag}: ok report without a mounted fs"))
}

/// Two legs per operation kind: one makes the setup and the operation
/// durable with a checkpoint, the other with `sync` alone (a log append:
/// flush + fence), so that every cut — the last one included — recovers
/// the operation through roll-forward of the log tail (§4.2).
fn sweep<Setup, Op, Check>(setup: Setup, op: Op, check: Check)
where
    Setup: Fn(&mut Lfs<CrashDisk>),
    Op: Fn(&mut Lfs<CrashDisk>),
    Check: Fn(&mut Lfs<MemDisk>, usize, usize),
{
    let cfg = LfsConfig::small();
    for leg in ["checkpoint", "sync"] {
        let persist = |fs: &mut Lfs<CrashDisk>| match leg {
            "checkpoint" => fs.checkpoint().unwrap(),
            _ => fs.sync().unwrap(),
        };
        let mut fs = Lfs::format(CrashDisk::new(2048), cfg).unwrap();
        setup(&mut fs);
        persist(&mut fs);
        fs.device_mut().checkpoint_baseline();
        op(&mut fs);
        persist(&mut fs);
        let suite = InvariantSuite::new();
        let crash: &CrashDisk = fs.device();
        let n = crash.num_writes();
        for cut in 0..=n {
            let image = crash.image_after(cut).unwrap();
            let mut fs2 = verify_cut(&suite, image, cfg, &format!("{leg} leg: cut {cut}/{n}"));
            check(&mut fs2, cut, n);
        }
    }
}

/// Like [`sweep`], but cuts at every *block* boundary with torn multi-block
/// writes: the straddling request persists an arbitrary seed-chosen subset
/// of its blocks, not a prefix. This models a disk that reorders sectors
/// within one request — the failure the per-entry summary checksums exist
/// to catch. The same two legs as [`sweep`]: the checkpoint leg tears
/// the region writes too.
fn torn_sweep<Setup, Op, Check>(setup: Setup, op: Op, check: Check)
where
    Setup: Fn(&mut Lfs<CrashDisk>),
    Op: Fn(&mut Lfs<CrashDisk>),
    Check: Fn(&mut Lfs<MemDisk>, usize, usize),
{
    let cfg = LfsConfig::small();
    for leg in ["checkpoint", "sync"] {
        let persist = |fs: &mut Lfs<CrashDisk>| match leg {
            "checkpoint" => fs.checkpoint().unwrap(),
            _ => fs.sync().unwrap(),
        };
        let mut fs = Lfs::format(CrashDisk::new(2048), cfg).unwrap();
        setup(&mut fs);
        persist(&mut fs);
        fs.device_mut().checkpoint_baseline();
        op(&mut fs);
        persist(&mut fs);
        let suite = InvariantSuite::new();
        let crash: &CrashDisk = fs.device();
        let n = crash.num_block_cuts();
        for cut in 0..=n {
            for seed in [1u64, 0x9e37_79b9_7f4a_7c15] {
                let image = crash.torn_image_after(cut, seed, false).unwrap();
                let tag = format!("{leg} leg: torn cut {cut}/{n} seed {seed:#x}");
                let mut fs2 = verify_cut(&suite, image, cfg, &tag);
                check(&mut fs2, cut, n);
            }
        }
    }
}

/// Creates `/fresh` with `len` bytes of 7s under torn cuts. The survivor
/// must hold the whole write, nothing, or — when the write outgrows the
/// flush threshold and reaches the log in several flushes — a flushed
/// prefix of it; never bytes that were not written.
fn torn_create(len: usize, prefix_is_legal: bool) {
    torn_sweep(
        |fs| {
            fs.write_file("/base", b"pre-existing").unwrap();
        },
        |fs| {
            fs.write_file("/fresh", &vec![7u8; len]).unwrap();
        },
        |fs, cut, n| {
            let base = fs.lookup("/base").expect("base must survive");
            assert_eq!(fs.read_to_vec(base).unwrap(), b"pre-existing");
            match fs.lookup("/fresh") {
                Ok(ino) => {
                    let data = fs.read_to_vec(ino).unwrap();
                    assert!(
                        data.iter().all(|&b| b == 7)
                            && (data.is_empty()
                                || data.len() == len
                                || (prefix_is_legal && data.len() < len)),
                        "torn cut {cut}/{n}: half-created content, len {}",
                        data.len()
                    );
                }
                Err(FsError::NotFound) => {}
                Err(e) => panic!("torn cut {cut}/{n}: {e}"),
            }
        },
    );
}

#[test]
fn torn_create_is_atomic() {
    torn_create(12_000, false);
}

/// A torn gather write must recover exactly like a torn contiguous write:
/// `CrashDisk` journals the gathered bytes as one request, a crash tears
/// an arbitrary block subset out of it, and the per-entry summary
/// checksums make roll-forward treat the damage as end-of-log. The file
/// reaches past its direct blocks, so shared cache blocks and blocks
/// rendered into the scratch pool (summary, indirect block, inode group)
/// travel in the same requests and a tear can split them — across
/// several chunks, since the file is larger than a segment.
#[test]
fn torn_gather_write_recovers_atomically() {
    torn_create(72_000, true);
}

#[test]
fn torn_rename_is_atomic() {
    torn_sweep(
        |fs| {
            fs.write_file("/src", b"source-data").unwrap();
            fs.write_file("/dst", b"target-data").unwrap();
        },
        |fs| {
            fs.rename("/src", "/dst").unwrap();
        },
        |fs, cut, n| {
            let dst = fs.lookup("/dst").expect("target name must always exist");
            let data = fs.read_to_vec(dst).unwrap();
            assert!(
                data == b"source-data" || data == b"target-data",
                "torn cut {cut}/{n}: dst holds garbage"
            );
            if fs.lookup("/src").is_ok() {
                assert_eq!(data, b"target-data", "torn cut {cut}/{n}");
            }
        },
    );
}

#[test]
fn torn_unlink_is_atomic() {
    torn_sweep(
        |fs| {
            fs.write_file("/doomed", &[5u8; 9_000]).unwrap();
        },
        |fs| {
            fs.unlink("/doomed").unwrap();
        },
        |fs, cut, n| match fs.lookup("/doomed") {
            Ok(ino) => {
                assert_eq!(
                    fs.read_to_vec(ino).unwrap(),
                    vec![5u8; 9_000],
                    "torn cut {cut}/{n}: half-deleted content"
                );
            }
            Err(FsError::NotFound) => {}
            Err(e) => panic!("torn cut {cut}/{n}: {e}"),
        },
    );
}

#[test]
fn link_is_atomic_under_crashes() {
    sweep(
        |fs| {
            fs.write_file("/orig", b"payload").unwrap();
        },
        |fs| {
            fs.link("/orig", "/alias").unwrap();
        },
        |fs, cut, n| {
            let orig = fs.lookup("/orig").expect("original must survive");
            let alias = fs.lookup("/alias");
            let nlink = fs.metadata(orig).unwrap().nlink;
            match alias {
                Ok(a) => {
                    assert_eq!(a, orig, "cut {cut}/{n}");
                    assert_eq!(nlink, 2, "cut {cut}/{n}");
                }
                Err(FsError::NotFound) => assert_eq!(nlink, 1, "cut {cut}/{n}"),
                Err(e) => panic!("cut {cut}/{n}: {e}"),
            }
        },
    );
}

#[test]
fn unlink_is_atomic_under_crashes() {
    sweep(
        |fs| {
            fs.write_file("/doomed", &[3u8; 10_000]).unwrap();
        },
        |fs| {
            fs.unlink("/doomed").unwrap();
        },
        |fs, cut, n| match fs.lookup("/doomed") {
            Ok(ino) => {
                assert_eq!(
                    fs.read_to_vec(ino).unwrap(),
                    vec![3u8; 10_000],
                    "cut {cut}/{n}: half-deleted content"
                );
            }
            Err(FsError::NotFound) => {}
            Err(e) => panic!("cut {cut}/{n}: {e}"),
        },
    );
}

#[test]
fn mkdir_rmdir_atomic_under_crashes() {
    sweep(
        |fs| {
            fs.mkdir("/old").unwrap();
        },
        |fs| {
            fs.mkdir("/new").unwrap();
            fs.rmdir("/old").unwrap();
        },
        |fs, cut, n| {
            // /old is either present-and-empty or gone; /new either absent
            // or a listable empty directory.
            match fs.lookup("/old") {
                Ok(_) => assert!(fs.readdir("/old").unwrap().is_empty(), "cut {cut}/{n}"),
                Err(FsError::NotFound) => {}
                Err(e) => panic!("cut {cut}/{n}: {e}"),
            }
            match fs.lookup("/new") {
                Ok(_) => assert!(fs.readdir("/new").unwrap().is_empty(), "cut {cut}/{n}"),
                Err(FsError::NotFound) => {}
                Err(e) => panic!("cut {cut}/{n}: {e}"),
            }
        },
    );
}

#[test]
fn truncate_to_zero_atomic_under_crashes() {
    sweep(
        |fs| {
            fs.write_file("/t", &[9u8; 50_000]).unwrap();
        },
        |fs| {
            let ino = fs.lookup("/t").unwrap();
            fs.truncate(ino, 0).unwrap();
            fs.write(ino, 0, b"fresh").unwrap();
        },
        |fs, cut, n| {
            let ino = fs.lookup("/t").expect("file must survive truncate");
            let data = fs.read_to_vec(ino).unwrap();
            assert!(
                data == vec![9u8; 50_000] || data == b"fresh" || data.is_empty(),
                "cut {cut}/{n}: torn truncate: len {}",
                data.len()
            );
        },
    );
}

#[test]
fn rename_replacing_target_under_crashes() {
    sweep(
        |fs| {
            fs.write_file("/src", b"source-data").unwrap();
            fs.write_file("/dst", b"target-data").unwrap();
        },
        |fs| {
            fs.rename("/src", "/dst").unwrap();
        },
        |fs, cut, n| {
            // /dst must always exist with one of the two contents; /src
            // present implies /dst still has the old content.
            let dst = fs.lookup("/dst").expect("target name must always exist");
            let data = fs.read_to_vec(dst).unwrap();
            assert!(
                data == b"source-data" || data == b"target-data",
                "cut {cut}/{n}: dst holds garbage"
            );
            if fs.lookup("/src").is_ok() {
                assert_eq!(data, b"target-data", "cut {cut}/{n}");
            }
        },
    );
}

/// One directory as `readdir` and `metadata` see it: its entries (name
/// and inode number), its `size` and its `nlink`.
type DirState = (Vec<(String, Ino)>, u64, u32);

fn dir_states<D: QueueDevice>(fs: &mut Lfs<D>, dirs: &[&str]) -> Vec<DirState> {
    dirs.iter()
        .map(|&d| {
            let ino = fs.lookup(d).unwrap();
            let m = fs.metadata(ino).unwrap();
            let entries = fs.readdir(d).unwrap().into_iter();
            (entries.map(|e| (e.name, e.ino)).collect(), m.size, m.nlink)
        })
        .collect()
}

/// [`sweep`] for an operation on directories the log already holds. A
/// `sync` leaves their blocks and inodes dirty, and the directory-log
/// records are the log's only copy of the change until a later flush,
/// so only roll-forward's rebuild of their entries brings it back. At
/// every cut `dirs` must be as before the operation, as acknowledged
/// after it, or — entry by entry — made of what those two hold; at the
/// last cut, exactly as acknowledged. `check` adds the scenario's own
/// assertions.
fn dir_sweep<Setup, Op, Check>(dirs: &[&str], setup: Setup, op: Op, check: Check)
where
    Setup: Fn(&mut Lfs<CrashDisk>),
    Op: Fn(&mut Lfs<CrashDisk>),
    Check: Fn(&mut Lfs<MemDisk>, usize, usize),
{
    let mut fs = Lfs::format(CrashDisk::new(2048), LfsConfig::small()).unwrap();
    setup(&mut fs);
    let before = dir_states(&mut fs, dirs);
    op(&mut fs);
    let after = dir_states(&mut fs, dirs);
    assert_ne!(before, after, "the operation changes no directory");
    sweep(setup, op, |fs, cut, n| {
        let got = dir_states(fs, dirs);
        if cut == n {
            assert_eq!(
                got, after,
                "cut {cut}/{n}: not the acknowledged directories"
            );
        }
        for ((got, was), now) in got.iter().zip(&before).zip(&after) {
            let known = |e: &(String, Ino)| was.0.contains(e) || now.0.contains(e);
            assert!(got.0.iter().all(known), "cut {cut}/{n}: {got:?}");
            assert!(
                got.1 == was.1 || got.1 == now.1,
                "cut {cut}/{n}: size {}",
                got.1
            );
            assert!(
                got.2 == was.2 || got.2 == now.2,
                "cut {cut}/{n}: nlink {}",
                got.2
            );
        }
        check(fs, cut, n);
    });
}

/// Rewrites `path` the way a truncating open does: to length zero, which
/// bumps the inode's version (§3.3), then `data`. Replay must keep the
/// entry of a create or rename record whose inode it finds at the newer
/// version.
fn rewrite<D: QueueDevice>(fs: &mut Lfs<D>, path: &str, data: &[u8]) {
    let ino = fs.lookup(path).unwrap();
    fs.truncate(ino, 0).unwrap();
    fs.write(ino, 0, data).unwrap();
}

#[test]
fn create_and_unlink_in_a_logged_directory_under_crashes() {
    dir_sweep(
        &["/", "/d"],
        |fs| {
            fs.mkdir("/d").unwrap();
            fs.write_file("/d/old", b"old").unwrap();
        },
        |fs| {
            fs.write_file("/d/new", b"draft").unwrap();
            rewrite(fs, "/d/new", b"new");
            fs.unlink("/d/old").unwrap();
        },
        |fs, cut, n| {
            for (path, want) in [("/d/old", b"old"), ("/d/new", b"new")] {
                if let Ok(ino) = fs.lookup(path) {
                    assert_eq!(fs.read_to_vec(ino).unwrap(), want, "cut {cut}/{n}: {path}");
                }
            }
        },
    );
}

#[test]
fn rename_between_logged_directories_under_crashes() {
    dir_sweep(
        &["/a", "/b"],
        |fs| {
            fs.mkdir("/a").unwrap();
            fs.mkdir("/b").unwrap();
            fs.write_file("/a/f", b"payload").unwrap();
            fs.write_file("/b/g", b"other").unwrap();
        },
        |fs| {
            fs.rename("/a/f", "/b/f").unwrap();
            rewrite(fs, "/b/f", b"payload");
        },
        |fs, cut, n| {
            let found: Vec<_> = ["/a/f", "/b/f"]
                .into_iter()
                .filter_map(|p| fs.lookup(p).ok())
                .collect();
            assert_eq!(found.len(), 1, "cut {cut}/{n}: the file under {found:?}");
            assert_eq!(
                fs.read_to_vec(found[0]).unwrap(),
                b"payload",
                "cut {cut}/{n}"
            );
        },
    );
}

/// The first `sync` writes the directory `mkdir` made, which roll-forward
/// could not complete without its inode; the second leaves it dirty.
#[test]
fn create_in_a_synced_new_directory_under_crashes() {
    dir_sweep(
        &["/", "/d"],
        |fs| {
            fs.mkdir("/d").unwrap();
        },
        |fs| {
            fs.write_file("/d/f", b"draft").unwrap();
            rewrite(fs, "/d/f", &[4u8; 6000]);
        },
        |fs, cut, n| {
            if let Ok(ino) = fs.lookup("/d/f") {
                let data = fs.read_to_vec(ino).unwrap();
                assert!(data.is_empty() || data == [4u8; 6000], "cut {cut}/{n}");
            }
        },
    );
}

/// The cleaning sweeps run under the paper's policy, which `small()`
/// keeps, and under the shipped default's, greedy.
fn cleaning_policies() -> [LfsConfig; 2] {
    [LfsConfig::small(), LfsConfig::small().greedy()]
}

#[test]
fn crash_during_cleaning_never_loses_data() {
    for cfg in cleaning_policies() {
        crash_during_cleaning(cfg);
    }
}

/// Runs churn that triggers cleaning on a crash-recording disk under
/// `cfg`, then crashes at every 7th write point and verifies the cold
/// files.
fn crash_during_cleaning(cfg: LfsConfig) {
    let mut fs = Lfs::format(CrashDisk::new(1024), cfg).unwrap();
    for i in 0..15 {
        fs.write_file(&format!("/cold{i}"), &vec![i as u8; 8192])
            .unwrap();
    }
    fs.sync().unwrap();
    fs.device_mut().checkpoint_baseline();
    let hot = fs.create("/hot").unwrap();
    for round in 0..200u32 {
        let off = (round % 4) as u64 * 32 * 1024;
        fs.write(hot, off, &vec![round as u8; 32 * 1024]).unwrap();
    }
    fs.sync().unwrap();
    assert!(
        fs.stats().cleaner.segments_cleaned > 0,
        "{:?}: no cleaning happened",
        cfg.policy
    );

    // The suite's content expectations replace the hand-rolled cold-file
    // loop: every cold file was durable before the baseline, so every
    // cut must hold it byte-exact.
    let mut suite = InvariantSuite::new();
    for i in 0..15 {
        suite.expect_exact(format!("/cold{i}"), vec![i as u8; 8192]);
    }
    let crash: &CrashDisk = fs.device();
    let n = crash.num_writes();
    // Also cut just before every checkpoint region write (`Sync`, after
    // its flush's `Async` log writes). Map blocks reach the log with a
    // checkpoint's own flushes (and with a cleaner pass's closing flush
    // only when a victim held a live map block, which no checkpoint
    // follows), so these are the tails that hold map blocks, which
    // roll-forward ignores.
    let before_regions: Vec<usize> = (1..n)
        .filter(|&i| {
            crash.write_kind(i) == Some(WriteKind::Sync)
                && crash.write_kind(i - 1) == Some(WriteKind::Async)
        })
        .collect();
    assert!(
        before_regions.len() >= 4,
        "{:?}: only {before_regions:?}",
        cfg.policy
    );
    for cut in (0..=n).step_by(7).chain(before_regions) {
        let image = crash.image_after(cut).unwrap();
        let tag = format!("{:?}: cut {cut}/{n}", cfg.policy);
        verify_cut(&suite, image, cfg, &tag);
    }
}

/// A cleaning churn on a crash-recording disk, with the cleaner's own
/// schedule running and, every few rounds, one extra pass the churn asks
/// for itself after a `sync`. A pass writes no checkpoint: its last chunk
/// lists the victims it releases, and the fence after it makes them
/// reusable, so the log can write into them long before the next
/// checkpoint.
struct PendingChurn {
    fs: Lfs<CrashDisk>,
    cfg: LfsConfig,
    /// `(path, content, journal length once its sync returned)`: a new
    /// file per `sync`, so every cut has a last acknowledged one.
    synced: Vec<(String, Vec<u8>, usize)>,
    /// Journal cuts from the start of a pass that cleaned something to
    /// the end of the churn round that wrote the next checkpoint, with
    /// the segments the pass cleaned and the journal length at its end.
    windows: Vec<(std::ops::RangeInclusive<usize>, Vec<u32>, usize)>,
}

impl PendingChurn {
    fn run(cfg: LfsConfig) -> PendingChurn {
        let mut fs = Lfs::format(CrashDisk::new(1024), cfg).unwrap();
        for i in 0..15 {
            fs.write_file(&format!("/cold{i}"), &vec![i as u8; 8192])
                .unwrap();
        }
        let hot = fs.create("/hot").unwrap();
        fs.sync().unwrap();
        fs.device_mut().checkpoint_baseline();
        let mut churn = PendingChurn {
            fs,
            cfg,
            synced: Vec::new(),
            windows: Vec::new(),
        };
        let mut open: Option<(usize, Vec<u32>, usize)> = None;
        for round in 0..240u32 {
            let checkpoints = churn.fs.stats().checkpoints;
            let off = (round % 4) as u64 * 32 * 1024;
            churn
                .fs
                .write(hot, off, &vec![round as u8; 32 * 1024])
                .unwrap();
            if round % 4 == 3 {
                let path = format!("/synced{round}");
                let content: Vec<u8> = (0..3000u32).map(|b| (b + round) as u8).collect();
                churn.fs.write_file(&path, &content).unwrap();
                churn.fs.sync().unwrap();
                let at = churn.fs.device().num_writes();
                churn.synced.push((path, content, at));
            }
            if churn.fs.stats().checkpoints != checkpoints {
                if let Some((from, victims, end)) = open.take() {
                    let to = churn.fs.device().num_writes();
                    churn.windows.push((from..=to, victims, end));
                }
            }
            if round % 24 == 23 && open.is_none() {
                let (from, checkpoints) =
                    (churn.fs.device().num_writes(), churn.fs.stats().checkpoints);
                let before = churn.fs.segment_snapshot();
                if churn.fs.clean_pass().unwrap() > 0 && churn.fs.stats().checkpoints == checkpoints
                {
                    // The pass's victims: dirty before it, regenerated now.
                    let after = churn.fs.segment_snapshot();
                    let victims = (0..before.len() as u32)
                        .filter(|&seg| {
                            before[seg as usize].0 == SegState::Dirty
                                && matches!(
                                    after[seg as usize].0,
                                    SegState::Clean | SegState::PendingFree
                                )
                        })
                        .collect();
                    open = Some((from, victims, churn.fs.device().num_writes()));
                }
            }
        }
        churn
    }

    /// The suite for a crash that kept the first `cut` writes: the cold
    /// files byte-exact, every file whose `sync` had returned byte-exact,
    /// and the later ones absent or a prefix.
    fn suite(&self, cut: usize) -> InvariantSuite {
        let mut suite = InvariantSuite::new();
        for i in 0..15 {
            suite.expect_exact(format!("/cold{i}"), vec![i as u8; 8192]);
        }
        for (path, content, at) in &self.synced {
            if *at <= cut {
                suite.expect_exact(path.clone(), content.clone());
            } else {
                suite.expect_history(path.clone(), vec![content.clone()]);
            }
        }
        suite
    }

    /// The segment journal write `i` landed in, if it was a log write.
    fn seg_of_write(&self, i: usize) -> Option<u32> {
        let rec = self.fs.device().write_record(i)?;
        self.fs.superblock().seg_of(rec.start)
    }
}

/// A pass cleans without a checkpoint, and the fence after its last chunk
/// makes its victims reusable. A crash anywhere from the pass's first
/// write through the region write of the next checkpoint — the log
/// writing into the victims in between — must recover the cold files
/// byte-exact and every acknowledged `sync`.
#[test]
fn crash_between_a_pass_and_its_checkpoint_never_loses_data() {
    for cfg in cleaning_policies() {
        let churn = PendingChurn::run(cfg);
        let crash: &CrashDisk = churn.fs.device();
        let policy = cfg.policy;
        let mut cuts = 0;
        let mut reused = 0;
        for (window, victims, end) in &churn.windows {
            let into_victim = |i| churn.seg_of_write(i).is_some_and(|s| victims.contains(&s));
            reused += usize::from((*end..*window.end()).any(into_victim));
            for cut in window.clone() {
                let image = crash.image_after(cut).unwrap();
                let tag = format!("{policy:?}: cut {cut} in pass window {window:?}");
                verify_cut(&churn.suite(cut), image, churn.cfg, &tag);
                cuts += 1;
            }
        }
        assert!(
            reused >= 3,
            "{policy:?}: only {reused} passes had a victim reused before a checkpoint"
        );
        assert!(cuts >= 100, "{policy:?}: only {cuts} cuts");
    }
}

/// No log write lands in a segment a pass released until a fence has
/// covered the chunk whose summary lists it. The segment was sealed before
/// the last checkpoint, so from that checkpoint's region write through the
/// listing chunk nothing lands in it; and between the listing chunk and
/// the first later write into it, the journal holds a fence.
#[test]
fn pending_segments_are_never_reused_before_a_fence_covers_its_release() {
    for cfg in cleaning_policies() {
        let churn = PendingChurn::run(cfg);
        let crash: &CrashDisk = churn.fs.device();
        let fences = crash.fence_points();
        let policy = cfg.policy;
        let mut guarded = 0;
        let mut checkpointed = 0;
        for i in 0..crash.num_writes() {
            if churn.seg_of_write(i).is_none() {
                checkpointed = i; // A checkpoint region.
                continue;
            }
            let data = crash.write_data(i).unwrap();
            let Ok(summary) = Summary::decode(&data[..BLOCK_SIZE]) else {
                continue;
            };
            for &seg in &summary.released {
                let early = (checkpointed..=i).find(|&j| churn.seg_of_write(j) == Some(seg));
                assert!(
                    early.is_none(),
                    "{policy:?}: write {early:?} landed in segment {seg} before write {i} released it"
                );
                let later =
                    (i + 1..crash.num_writes()).find(|&j| churn.seg_of_write(j) == Some(seg));
                let Some(reuse) = later else {
                    continue;
                };
                assert!(
                    fences.iter().any(|&f| i < f && f <= reuse),
                    "{policy:?}: write {reuse} reused segment {seg}, released by write {i}, \
                     with no fence between"
                );
                guarded += 1;
            }
        }
        assert!(
            guarded >= 20,
            "{policy:?}: only {guarded} reuses of released segments"
        );
    }
}

#[test]
fn double_crash_recover_crash_again() {
    // Crash, recover, write more, crash again mid-way — recovery must be
    // idempotent across epochs.
    let cfg = LfsConfig::small();
    let mut fs = Lfs::format(CrashDisk::new(2048), cfg).unwrap();
    fs.write_file("/gen0", b"zero").unwrap();
    fs.flush().unwrap();
    let first_image = {
        let crash: &CrashDisk = fs.device();
        crash.image_after(crash.num_writes()).unwrap()
    };
    // First recovery.
    let fs2 = Lfs::mount(first_image, cfg).unwrap();
    let mut fs2 = {
        let img = fs2.into_device().into_image();
        Lfs::mount(CrashDisk::from_image(img), cfg).unwrap()
    };
    fs2.write_file("/gen1", b"one").unwrap();
    fs2.flush().unwrap();
    // gen0 must always be there; gen1 only if its writes survived.
    let mut suite = InvariantSuite::new();
    suite.expect_exact("/gen0", b"zero".to_vec());
    suite.expect_history("/gen1", vec![b"one".to_vec()]);
    let crash: &CrashDisk = fs2.device();
    let n = crash.num_writes();
    for cut in 0..=n {
        let image = crash.image_after(cut).unwrap();
        verify_cut(&suite, image, cfg, &format!("cut {cut}/{n}"));
    }
}

/// An acknowledged `sync` is durable without a checkpoint: write, `sync`,
/// cut the journal at its end, mount — roll-forward brings back every
/// byte, and the sync wrote no checkpoint region. Bare, and behind a
/// depth-4 submission ring, where the flush's writes reach the journal
/// only through the sync's fence.
#[test]
fn sync_survives_a_crash_without_a_checkpoint() {
    fn run<D: QueueDevice>(dev: D, journal: impl Fn(&D) -> &CrashDisk, tag: &str) {
        let cfg = LfsConfig::small();
        let mut fs = Lfs::format(dev, cfg).unwrap();
        fs.write_file("/base", &[1u8; 10_000]).unwrap();
        fs.checkpoint().unwrap();
        let mut cp_image = journal(fs.device()).image_now();

        let mut suite = InvariantSuite::new();
        let mut base = vec![1u8; 10_000];
        base[4000..9000].fill(2);
        let ino = fs.lookup("/base").unwrap();
        fs.write(ino, 4000, &[2u8; 5000]).unwrap();
        suite.expect_exact("/base", base);
        fs.mkdir("/d").unwrap();
        let synced: Vec<u8> = (0..70_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/d/synced", &synced).unwrap();
        suite.expect_exact("/d/synced", synced.clone());
        fs.link("/d/synced", "/alias").unwrap();
        suite.expect_exact("/alias", synced);

        let checkpoints = fs.stats().checkpoints;
        fs.sync().unwrap();
        assert_eq!(
            fs.stats().checkpoints,
            checkpoints,
            "{tag}: sync checkpointed"
        );

        let crash = journal(fs.device());
        let mut image = crash.image_after(crash.num_writes()).unwrap();
        let regions = |img: &mut MemDisk| {
            [CR0_ADDR, CR1_ADDR].map(|a| Checkpoint::read_from(img, a).unwrap())
        };
        assert_eq!(
            regions(&mut image),
            regions(&mut cp_image),
            "{tag}: the sync rewrote a checkpoint region"
        );
        let mut fs2 = verify_cut(&suite, image, cfg, tag);
        let alias = fs2.lookup("/alias").unwrap();
        assert_eq!(fs2.metadata(alias).unwrap().nlink, 2, "{tag}");
    }
    run(CrashDisk::new(2048), |d| d, "bare");
    run(
        QueuedDev::new(CrashDisk::new(2048), 4),
        |d| d.inner(),
        "queue 4",
    );
}

#[test]
fn checkpoint_never_splits_a_namespace_op() {
    // Regression: the cleaner (or any other checkpoint trigger) used to be
    // reachable from the auto-flush inside a directory-block write, so a
    // checkpoint could freeze a half-applied rename/unlink/create — with
    // the repairing dirlog record buried *behind* the checkpoint head,
    // where roll-forward never looks. The `nsop_depth` guard defers the
    // checkpoint to the end of the operation.
    //
    // The check that catches it: after every operation, the *raw newest
    // checkpoint* (the checkpoint-only mount, so flushed-but-not-
    // checkpointed chunks are ignored) must describe a self-consistent
    // file system. A churn workload on a small disk keeps the cleaner busy
    // enough to tempt it mid-operation; with the guard removed, several of
    // these seeds fail.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn churn(seed: u64) -> Result<(), String> {
        let cfg = LfsConfig::small();
        let mut fs = Lfs::format(CrashDisk::new(512), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for opno in 0..400 {
            let roll = rng.gen_range(0u32..100);
            let a = format!("/f{}", rng.gen_range(0u32..8));
            let r = if roll < 55 {
                let len = rng.gen_range(0usize..12_000);
                fs.write_file(&a, &vec![opno as u8; len]).map(|_| ())
            } else if roll < 70 {
                fs.unlink(&a)
            } else if roll < 85 {
                let b = format!("/f{}", rng.gen_range(0u32..8));
                fs.rename(&a, &b)
            } else {
                fs.checkpoint()
            };
            match r {
                Ok(())
                | Err(FsError::NotFound)
                | Err(FsError::AlreadyExists)
                | Err(FsError::NoSpace) => {}
                Err(e) => return Err(format!("seed {seed} op {opno}: {e}")),
            }
            let mut snap = Lfs::mount_checkpoint_only(fs.device().image_now(), cfg)
                .map_err(|e| format!("seed {seed} op {opno}: raw checkpoint unmountable: {e}"))?;
            let report = snap.check().unwrap();
            if !report.is_clean() {
                return Err(format!(
                    "seed {seed} op {opno}: checkpoint froze a half-applied \
                     namespace op: {:?}",
                    report.errors
                ));
            }
        }
        Ok(())
    }

    let failures: Vec<String> = (0..8).filter_map(|seed| churn(seed).err()).collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
