//! Property-based tests: a real LFS and the in-memory model must stay
//! observably identical under arbitrary operation sequences, across
//! remounts, and under cleaning pressure.

use blockdev::{BlockDevice, CrashDisk, DiskModel, MemDisk, SimDisk};
use lfs_core::{Lfs, LfsConfig};
use proptest::prelude::*;
use vfs::model::{assert_same_tree, ModelFs};
use vfs::{at_path, FileSystem, Names, Op, Outcome};

/// One generated step: file-system calls, each with the outcome that
/// names its inode, or `None` for a remount.
type Step = Option<Vec<(Op, Outcome)>>;

/// Maps a small integer to a path in a two-level namespace. Paths are
/// drawn from a small fixed namespace so that collisions
/// (create-over-existing, rename onto a file, …) actually happen.
fn path_for(n: u8) -> String {
    match n % 12 {
        0 => "/a".into(),
        1 => "/b".into(),
        2 => "/c".into(),
        3 => "/dir1".into(),
        4 => "/dir2".into(),
        5 => "/dir1/x".into(),
        6 => "/dir1/y".into(),
        7 => "/dir2/x".into(),
        8 => "/dir2/y".into(),
        9 => "/dir1/sub".into(),
        10 => "/dir1/sub/z".into(),
        _ => "/c2".into(),
    }
}

fn call(op: Op) -> Step {
    Some(vec![(op, Outcome::Unit)])
}

/// A call on whatever file `n` names when the step runs.
fn on_file(n: u8, op: impl FnOnce(vfs::Ino) -> Op) -> Step {
    Some(at_path(path_for(n), op).into())
}

/// Renames of a directory into itself or a descendant are skipped — both
/// systems treat this as caller error; see DESIGN.md.
fn rename(a: u8, b: u8) -> Step {
    let (from, to) = (path_for(a), path_for(b));
    if to.starts_with(&format!("{from}/")) || from == to {
        return Some(vec![]);
    }
    call(Op::Rename(from, to))
}

fn op_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u8>().prop_map(|n| call(Op::Create(path_for(n)))),
        any::<u8>().prop_map(|n| call(Op::Mkdir(path_for(n)))),
        (any::<u8>(), any::<u16>(), 0u16..6000, any::<u8>()).prop_map(
            |(file, offset, len, fill)| on_file(file, |ino| {
                Op::Write(ino, offset as u64, vec![fill; len as usize])
            })
        ),
        (any::<u8>(), any::<u16>())
            .prop_map(|(file, size)| on_file(file, |ino| Op::Truncate(ino, size as u64))),
        any::<u8>().prop_map(|n| call(Op::Unlink(path_for(n)))),
        any::<u8>().prop_map(|n| call(Op::Rmdir(path_for(n)))),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| rename(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| call(Op::Link(path_for(a), path_for(b)))),
        Just(None),
        Just(call(Op::Sync)),
    ]
}

fn run_ops(steps: &[Step], cfg: LfsConfig, disk_blocks: u64) {
    let fs = Lfs::format(MemDisk::new(disk_blocks), cfg).unwrap();
    let mut model = ModelFs::new();
    let mut fs_opt = Some(fs);
    let (mut fs_names, mut model_names) = (Names::default(), Names::default());

    for (step, calls) in steps.iter().enumerate() {
        let Some(calls) = calls else {
            // By step parity (so a case replays deterministically):
            // checkpoint before the remount, or only flush and make the
            // mount roll the tail forward (§4.2). Both must land on the
            // model's state.
            let mut f = fs_opt.take().unwrap();
            if step % 2 == 0 {
                f.sync().unwrap();
            } else {
                f.flush().unwrap();
            }
            let mut f = Lfs::mount(f.into_device(), cfg)
                .unwrap_or_else(|e| panic!("step {step} remount: {e}"));
            let report = f.check().unwrap();
            assert!(
                report.is_clean(),
                "step {step} remount: {:#?}",
                report.errors
            );
            fs_opt = Some(f);
            continue;
        };
        let fs = fs_opt.as_mut().unwrap();
        for (op, recorded) in calls {
            let a = fs_names.apply(fs, op, recorded);
            let b = model_names.apply(&mut model, op, recorded);
            // Both must fail where one does; the error may differ in edge
            // cases we don't pin down (which of two problems a path
            // triggers first), except for create.
            let codes = |r: &vfs::FsResult<Outcome>| r.as_ref().err().map(|e| e.wire_code());
            let same = match op {
                Op::Create(_) => codes(&a) == codes(&b),
                _ => a.is_ok() == b.is_ok(),
            };
            assert!(same, "step {step} {op:?}: {a:?} vs {b:?}");
        }
    }

    // Final deep comparison of every observable.
    let fs = fs_opt.as_mut().unwrap();
    assert_same_tree(fs, &mut model);
    fs.sync().unwrap();
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "fsck: {:#?}", report.errors);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Arbitrary op sequences on a comfortable disk.
    #[test]
    fn lfs_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_ops(&ops, LfsConfig::small(), 4096);
    }

    /// The same property on a small disk with constant remount/cleaning
    /// pressure (segments must be reclaimed during the run).
    #[test]
    fn lfs_matches_model_under_pressure(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_ops(&ops, LfsConfig::small(), 1024);
    }

    /// The non-default policies (greedy, which also drops the age-sort,
    /// and adaptive) must preserve the same semantics.
    #[test]
    fn lfs_matches_model_other_policies(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        run_ops(&ops, LfsConfig::small().greedy(), 1024);
        run_ops(&ops, LfsConfig::small().adaptive(), 1024);
    }

    /// Any operation sequence, crashed at any point, recovers to a
    /// consistent file system (mountable + fsck-clean) — the generalised
    /// version of the hand-written crash sweeps.
    #[test]
    fn recovery_is_always_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        cuts in proptest::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let cfg = LfsConfig::small();
        let mut fs = Lfs::format(CrashDisk::new(2048), cfg).unwrap();
        fs.device_mut().checkpoint_baseline();
        let mut names = Names::default();
        // Per-call results are ignored (validity is checked by the other
        // properties); we only care about crash states.
        for calls in &ops {
            let Some(calls) = calls else {
                let _ = fs.flush();
                continue;
            };
            for (op, recorded) in calls {
                let r = names.apply(&mut fs, op, recorded);
                assert!(*op != Op::Sync || r.is_ok(), "sync: {r:?}");
            }
        }
        fs.sync().unwrap();
        let crash: &CrashDisk = fs.device();
        let n = crash.num_writes();
        for frac in &cuts {
            let cut = ((n as f64) * frac) as usize;
            let image = crash.image_after(cut).unwrap();
            let mut recovered = Lfs::mount(image, cfg)
                .map_err(|e| TestCaseError::fail(format!("cut {cut}/{n}: mount: {e}")))?;
            let report = recovered.check().unwrap();
            prop_assert!(
                report.is_clean(),
                "cut {}/{}: fsck: {:#?}", cut, n, report.errors
            );
        }
    }

    /// Read-ahead fetches blocks before anyone asks for them, but only
    /// blocks a scan is about to ask for: scanning every file front to
    /// back in 1–3-block requests must return the bytes, move the bytes,
    /// take the simulated time and leave the image that one whole-file
    /// request per file does — in no more device requests than blocks.
    /// Offsets reach past the ten direct blocks so indirect-block loads
    /// break runs too.
    #[test]
    fn scan_request_size_changes_neither_bytes_image_nor_busy_time(
        ops in proptest::collection::vec(
            (0u8..4, 0u8..4, 0u32..300_000, 1u16..32_768, any::<u8>()), 1..40),
        steps in proptest::collection::vec(1usize..=3, 1..24),
    ) {
        let mut steps = steps.iter().cycle();
        let [whole, stepped] = [None, Some(&mut steps)].map(|mut steps| {
            let disk = SimDisk::new(4096, DiskModel::wren_iv());
            let mut fs = Lfs::format(disk, LfsConfig::small()).unwrap();
            let inos: Vec<_> = (0..4).map(|i| fs.create(&format!("/f{i}")).unwrap()).collect();
            for &(sel, file, offset, len, fill) in &ops {
                let ino = inos[file as usize];
                match sel {
                    0..=2 => fs.write(ino, offset as u64, &vec![fill; len as usize / 2]).unwrap(),
                    _ => fs.truncate(ino, offset as u64).unwrap(),
                }
            }
            fs.sync().unwrap();
            fs.drop_caches();
            let before = fs.device().stats();
            let mut bytes = Vec::new();
            for &ino in &inos {
                let size = fs.metadata(ino).unwrap().size as usize;
                let mut buf = vec![0u8; size];
                let mut pos = 0;
                while pos < size {
                    let want = steps.as_mut().map_or(size, |s| s.next().unwrap() * 4096);
                    let end = size.min(pos + want);
                    prop_assert_eq!(fs.read(ino, pos as u64, &mut buf[pos..end]).unwrap(), end - pos);
                    pos = end;
                }
                bytes.push(buf);
            }
            let after = fs.device().stats();
            fs.sync().unwrap();
            Ok((bytes, before, after, fs.into_device()))
        });
        let (whole, stepped) = (whole?, stepped?);
        prop_assert_eq!(&whole.0, &stepped.0, "read bytes diverged");
        let moved = |(_, b, a, _): &(_, blockdev::IoStats, blockdev::IoStats, _)| {
            (a.bytes_read - b.bytes_read, a.busy_ns - b.busy_ns)
        };
        prop_assert_eq!(moved(&whole), moved(&stepped), "(bytes read, busy ns) diverged");
        let requests = stepped.2.reads - stepped.1.reads;
        prop_assert!(requests * 4096 <= moved(&stepped).0, "more requests than blocks");
        prop_assert!(requests >= whole.2.reads - whole.1.reads);
        prop_assert_eq!(whole.3.image(), stepped.3.image());
    }

    /// File contents survive write/truncate sequences at random offsets
    /// (single-file, byte-exact, including holes).
    #[test]
    fn single_file_contents_exact(
        writes in proptest::collection::vec((0u32..200_000, 0usize..5000, any::<u8>()), 1..40),
        trunc in proptest::option::of(0u32..200_000),
    ) {
        let mut fs = Lfs::format(MemDisk::new(4096), LfsConfig::small()).unwrap();
        let ino = fs.create("/f").unwrap();
        let mut shadow: Vec<u8> = Vec::new();
        for (off, len, fill) in &writes {
            let data = vec![*fill; *len];
            fs.write(ino, *off as u64, &data).unwrap();
            let end = *off as usize + len;
            if shadow.len() < end {
                shadow.resize(end, 0);
            }
            shadow[*off as usize..end].fill(*fill);
        }
        if let Some(t) = trunc {
            fs.truncate(ino, t as u64).unwrap();
            shadow.resize(t as usize, 0);
        }
        prop_assert_eq!(fs.read_to_vec(ino).unwrap(), shadow.clone());
        // And again after a remount.
        fs.sync().unwrap();
        let mut fs2 = Lfs::mount(fs.into_device(), LfsConfig::small()).unwrap();
        let ino2 = fs2.lookup("/f").unwrap();
        prop_assert_eq!(fs2.read_to_vec(ino2).unwrap(), shadow);
    }
}

/// The sizes around a block's edges, where a file's last block is or is
/// not a fragment.
const EDGES: [u64; 8] = [0, 1, 7, 8, 4095, 4096, 4097, 8191];

/// One step of [`fragments_match_model`] on file `f` of four.
#[derive(Clone, Debug)]
enum FragStep {
    Write { f: usize, off: usize, len: usize },
    Append { f: usize, len: usize },
    Truncate { f: usize, size: usize },
    Unlink { f: usize },
    Clean,
    Remount,
}

fn frag_step() -> impl Strategy<Value = FragStep> {
    let file = 0usize..4;
    let edge = 0usize..EDGES.len();
    prop_oneof![
        (file.clone(), edge.clone(), edge.clone()).prop_map(|(f, off, len)| FragStep::Write {
            f,
            off,
            len
        }),
        (file.clone(), edge.clone()).prop_map(|(f, len)| FragStep::Append { f, len }),
        (file.clone(), edge.clone()).prop_map(|(f, len)| FragStep::Append { f, len }),
        (file.clone(), edge).prop_map(|(f, size)| FragStep::Truncate { f, size }),
        file.prop_map(|f| FragStep::Unlink { f }),
        Just(FragStep::Clean),
        Just(FragStep::Remount),
    ]
}

/// Applies one step to `fs`, creating the file first where it is missing.
fn apply_frag_step(fs: &mut impl FileSystem, step: &FragStep, fill: u8) {
    let path = |f: usize| format!("/frag{f}");
    let mut open = |f: usize| -> vfs::Ino {
        let p = path(f);
        fs.lookup(&p).or_else(|_| fs.create(&p)).unwrap()
    };
    match *step {
        FragStep::Write { f, off, len } => {
            let ino = open(f);
            let data = vec![fill; EDGES[len] as usize];
            fs.write(ino, EDGES[off], &data).unwrap();
        }
        FragStep::Append { f, len } => {
            let ino = open(f);
            let size = fs.metadata(ino).unwrap().size;
            fs.write(ino, size, &vec![fill; EDGES[len] as usize])
                .unwrap();
        }
        FragStep::Truncate { f, size } => {
            let ino = open(f);
            fs.truncate(ino, EDGES[size]).unwrap();
        }
        FragStep::Unlink { f } => {
            let _ = fs.unlink(&path(f));
        }
        FragStep::Clean | FragStep::Remount => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Writes, appends, truncations and unlinks whose sizes sit at a
    /// block's edges, with cleaner passes and remounts in between, leave
    /// the same files as the model: a file's partial last block moves
    /// between fragment blocks and whole blocks without losing or
    /// borrowing a byte.
    #[test]
    fn fragments_match_model(steps in proptest::collection::vec(frag_step(), 1..80)) {
        let cfg = LfsConfig::small();
        let mut fs = Lfs::format(MemDisk::new(1024), cfg).unwrap();
        let mut model = ModelFs::new();
        for (i, step) in steps.iter().enumerate() {
            let fill = i as u8 | 1;
            apply_frag_step(&mut fs, step, fill);
            apply_frag_step(&mut model, step, fill);
            match step {
                FragStep::Clean => {
                    fs.sync().unwrap();
                    fs.clean_pass().unwrap();
                }
                FragStep::Remount => {
                    if i % 2 == 0 { fs.sync().unwrap() } else { fs.flush().unwrap() }
                    fs = Lfs::mount(fs.into_device(), cfg).unwrap();
                    let report = fs.check().unwrap();
                    prop_assert!(report.is_clean(), "step {}: {:#?}", i, report.errors);
                    assert_same_tree(&mut fs, &mut model);
                }
                _ => {}
            }
        }
        assert_same_tree(&mut fs, &mut model);
        fs.sync().unwrap();
        fs.drop_caches();
        assert_same_tree(&mut fs, &mut model);
        let report = fs.check().unwrap();
        prop_assert!(report.is_clean(), "{:#?}", report.errors);
    }
}
