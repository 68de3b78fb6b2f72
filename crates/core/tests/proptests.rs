//! Property-based tests: a real LFS and the in-memory model must stay
//! observably identical under arbitrary operation sequences, across
//! remounts, and under cleaning pressure.

use blockdev::{BlockDevice, CrashDisk, DiskModel, MemDisk, SimDisk};
use lfs_core::{Lfs, LfsConfig};
use proptest::prelude::*;
use vfs::{model::ModelFs, FileSystem, FsError};

/// The operations the generator can issue. Paths are drawn from a small
/// fixed namespace so that collisions (create-over-existing, rename onto a
/// file, …) actually happen.
#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Mkdir(u8),
    WriteAt {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Truncate {
        file: u8,
        size: u16,
    },
    Unlink(u8),
    Rmdir(u8),
    Rename(u8, u8),
    Link(u8, u8),
    Remount,
    Sync,
}

/// Maps a small integer to a path in a two-level namespace.
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

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Create),
        any::<u8>().prop_map(Op::Mkdir),
        (any::<u8>(), any::<u16>(), 0u16..6000, any::<u8>()).prop_map(
            |(file, offset, len, fill)| Op::WriteAt {
                file,
                offset,
                len,
                fill
            }
        ),
        (any::<u8>(), any::<u16>()).prop_map(|(file, size)| Op::Truncate { file, size }),
        any::<u8>().prop_map(Op::Unlink),
        any::<u8>().prop_map(Op::Rmdir),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Rename(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Link(a, b)),
        Just(Op::Remount),
        Just(Op::Sync),
    ]
}

/// Normalises errors to a comparable shape: both systems must fail, but
/// the exact variant may differ in edge cases we don't pin down (e.g.
/// which of two problems a path triggers first).
fn err_kind(e: &FsError) -> &'static str {
    match e {
        FsError::NotFound => "notfound",
        FsError::AlreadyExists => "exists",
        FsError::NotADirectory => "notdir",
        FsError::IsADirectory => "isdir",
        FsError::DirectoryNotEmpty => "notempty",
        FsError::NoSpace => "nospace",
        FsError::NoInodes => "noinodes",
        FsError::NameTooLong => "toolong",
        FsError::InvalidPath => "badpath",
        FsError::FileTooLarge => "toobig",
        FsError::InvalidArgument(_) => "badarg",
        FsError::Corrupt(_) => "corrupt",
        FsError::Device(_) => "device",
    }
}

fn run_ops(ops: &[Op], cfg: LfsConfig, disk_blocks: u64) {
    let fs = Lfs::format(MemDisk::new(disk_blocks), cfg).unwrap();
    let mut model = ModelFs::new();
    let mut fs_opt = Some(fs);

    for (step, op) in ops.iter().enumerate() {
        let fs = fs_opt.as_mut().unwrap();
        match op {
            Op::Create(n) => {
                let p = path_for(*n);
                let a = fs.create(&p);
                let b = model.create(&p);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} create({p}): {a:?} vs {b:?}"
                );
                if let (Err(ea), Err(eb)) = (&a, &b) {
                    assert_eq!(err_kind(ea), err_kind(eb), "step {step} create({p})");
                }
            }
            Op::Mkdir(n) => {
                let p = path_for(*n);
                let a = fs.mkdir(&p);
                let b = model.mkdir(&p);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} mkdir({p}): {a:?} vs {b:?}"
                );
            }
            Op::WriteAt {
                file,
                offset,
                len,
                fill,
            } => {
                let p = path_for(*file);
                let (a, b) = match (fs.lookup(&p), model.lookup(&p)) {
                    (Ok(ia), Ok(ib)) => {
                        let data = vec![*fill; *len as usize];
                        (
                            fs.write(ia, *offset as u64, &data),
                            model.write(ib, *offset as u64, &data),
                        )
                    }
                    (ra, rb) => {
                        assert_eq!(ra.is_ok(), rb.is_ok(), "step {step} lookup({p})");
                        continue;
                    }
                };
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} write({p}): {a:?} vs {b:?}"
                );
            }
            Op::Truncate { file, size } => {
                let p = path_for(*file);
                if let (Ok(ia), Ok(ib)) = (fs.lookup(&p), model.lookup(&p)) {
                    let a = fs.truncate(ia, *size as u64);
                    let b = model.truncate(ib, *size as u64);
                    assert_eq!(a.is_ok(), b.is_ok(), "step {step} truncate({p})");
                }
            }
            Op::Unlink(n) => {
                let p = path_for(*n);
                let a = fs.unlink(&p);
                let b = model.unlink(&p);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} unlink({p}): {a:?} vs {b:?}"
                );
            }
            Op::Rmdir(n) => {
                let p = path_for(*n);
                let a = fs.rmdir(&p);
                let b = model.rmdir(&p);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} rmdir({p}): {a:?} vs {b:?}"
                );
            }
            Op::Rename(x, y) => {
                let from = path_for(*x);
                let to = path_for(*y);
                // Skip renames of a directory into itself/descendant —
                // both systems treat this as caller error; see DESIGN.md.
                if to.starts_with(&format!("{from}/")) || from == to {
                    continue;
                }
                let a = fs.rename(&from, &to);
                let b = model.rename(&from, &to);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} rename({from},{to}): {a:?} vs {b:?}"
                );
            }
            Op::Link(x, y) => {
                let ex = path_for(*x);
                let nw = path_for(*y);
                let a = fs.link(&ex, &nw);
                let b = model.link(&ex, &nw);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "step {step} link({ex},{nw}): {a:?} vs {b:?}"
                );
            }
            Op::Remount => {
                // By step parity (so a case replays deterministically):
                // checkpoint before the remount, or only flush and make
                // the mount roll the tail forward (§4.2). Both must land
                // on the model's state.
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
            }
            Op::Sync => {
                fs.sync().unwrap();
            }
        }
    }

    // Final deep comparison of every observable.
    let fs = fs_opt.as_mut().unwrap();
    compare(fs, &mut model, "/");
    fs.sync().unwrap();
    let report = fs.check().unwrap();
    assert!(report.is_clean(), "fsck: {:#?}", report.errors);
}

/// Recursively compares directory listings, metadata, and file contents.
fn compare(fs: &mut Lfs<MemDisk>, model: &mut ModelFs, path: &str) {
    let a = fs.readdir(path).unwrap();
    let b = model.readdir(path).unwrap();
    let names_a: Vec<&str> = a.iter().map(|e| e.name.as_str()).collect();
    let names_b: Vec<&str> = b.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names_a, names_b, "directory {path} differs");
    for (ea, eb) in a.iter().zip(&b) {
        assert_eq!(ea.ftype, eb.ftype, "{path}/{} type", ea.name);
        let child = if path == "/" {
            format!("/{}", ea.name)
        } else {
            format!("{path}/{}", ea.name)
        };
        match ea.ftype {
            vfs::FileType::Directory => compare(fs, model, &child),
            vfs::FileType::Regular => {
                let ia = fs.lookup(&child).unwrap();
                let ib = model.lookup(&child).unwrap();
                let ma = fs.metadata(ia).unwrap();
                let mb = model.metadata(ib).unwrap();
                assert_eq!(ma.size, mb.size, "{child} size");
                assert_eq!(ma.nlink, mb.nlink, "{child} nlink");
                let da = fs.read_to_vec(ia).unwrap();
                let db = model.read_to_vec(ib).unwrap();
                assert_eq!(da, db, "{child} contents differ");
            }
        }
    }
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
        let mut model = ModelFs::new();
        for op in &ops {
            // Drive both; ignore per-op results (validity is checked by
            // the other properties), we only care about crash states.
            match op {
                Op::Create(n) => {
                    let p = path_for(*n);
                    let _ = fs.create(&p);
                    let _ = model.create(&p);
                }
                Op::Mkdir(n) => {
                    let p = path_for(*n);
                    let _ = fs.mkdir(&p);
                    let _ = model.mkdir(&p);
                }
                Op::WriteAt { file, offset, len, fill } => {
                    let p = path_for(*file);
                    if let Ok(i) = fs.lookup(&p) {
                        let _ = fs.write(i, *offset as u64, &vec![*fill; *len as usize]);
                    }
                }
                Op::Truncate { file, size } => {
                    let p = path_for(*file);
                    if let Ok(i) = fs.lookup(&p) {
                        let _ = fs.truncate(i, *size as u64);
                    }
                }
                Op::Unlink(n) => {
                    let _ = fs.unlink(&path_for(*n));
                }
                Op::Rmdir(n) => {
                    let _ = fs.rmdir(&path_for(*n));
                }
                Op::Rename(a, b) => {
                    let from = path_for(*a);
                    let to = path_for(*b);
                    if !to.starts_with(&format!("{from}/")) && from != to {
                        let _ = fs.rename(&from, &to);
                    }
                }
                Op::Link(a, b) => {
                    let _ = fs.link(&path_for(*a), &path_for(*b));
                }
                Op::Remount => {
                    let _ = fs.flush();
                }
                Op::Sync => {
                    fs.sync().unwrap();
                }
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
        let _ = model;
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
