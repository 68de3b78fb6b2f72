//! End-to-end tests for the FFS baseline.

use blockdev::{BlockDevice, DiskModel, MemDisk, SimDisk};
use ffs_baseline::{Ffs, FfsConfig};
use proptest::prelude::*;
use vfs::model::{assert_same_tree, ModelFs};
use vfs::{at_path, FileSystem, FsError, Ino, Names, Op, Outcome};

fn small_fs() -> Ffs<MemDisk> {
    Ffs::format(MemDisk::new(2048), FfsConfig::small()).unwrap()
}

fn fsck_clean(fs: &mut Ffs<MemDisk>) {
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "fsck: {:#?}", report.errors);
}

#[test]
fn create_write_read_delete() {
    let mut fs = small_fs();
    fs.mkdir("/d").unwrap();
    let ino = fs.write_file("/d/f", b"hello ffs").unwrap();
    assert_eq!(fs.read_to_vec(ino).unwrap(), b"hello ffs");
    fs.unlink("/d/f").unwrap();
    assert!(fs.lookup("/d/f").is_err());
    fsck_clean(&mut fs);
}

#[test]
fn many_small_files() {
    let mut fs = small_fs();
    for i in 0..100 {
        fs.write_file(&format!("/f{i}"), &vec![i as u8; 1024])
            .unwrap();
    }
    for i in 0..100 {
        let ino = fs.lookup(&format!("/f{i}")).unwrap();
        assert_eq!(fs.read_to_vec(ino).unwrap(), vec![i as u8; 1024]);
    }
    fsck_clean(&mut fs);
}

#[test]
fn large_file_spans_indirect() {
    let mut fs = Ffs::format(MemDisk::new(8192), FfsConfig::small()).unwrap();
    let ino = fs.create("/big").unwrap();
    let nblocks = 560u64;
    for b in 0..nblocks {
        fs.write(ino, b * 4096, &vec![(b % 251) as u8; 4096])
            .unwrap();
    }
    fs.sync().unwrap();
    for b in (0..nblocks).step_by(37) {
        let mut buf = vec![0u8; 4096];
        fs.read(ino, b * 4096, &mut buf).unwrap();
        assert_eq!(buf, vec![(b % 251) as u8; 4096], "block {b}");
    }
    fsck_clean(&mut fs);
}

#[test]
fn remount_preserves_data() {
    let mut fs = small_fs();
    fs.mkdir("/dir").unwrap();
    let ino = fs.write_file("/dir/file", &[0x77; 10000]).unwrap();
    fs.sync().unwrap();
    let dev = fs.into_device();
    let mut fs2 = Ffs::mount(dev, FfsConfig::small()).unwrap();
    assert_eq!(fs2.lookup("/dir/file").unwrap(), ino);
    assert_eq!(fs2.read_to_vec(ino).unwrap(), vec![0x77; 10000]);
    fsck_clean(&mut fs2);
}

#[test]
fn sync_metadata_writes_are_counted() {
    let mut fs = small_fs();
    let before = fs.stats().sync_metadata_writes;
    fs.create("/newfile").unwrap();
    let per_create = fs.stats().sync_metadata_writes - before;
    // Two inode writes + directory data + directory inode = at least 4
    // synchronous metadata I/Os per create (§2.3 / Figure 1).
    assert!(per_create >= 4, "only {per_create} sync writes per create");
}

#[test]
fn data_blocks_allocated_contiguously() {
    // Sequential writes should allocate mostly-contiguous blocks so
    // sequential reads are fast (FFS's logical locality).
    let mut fs = small_fs();
    let ino = fs.create("/seq").unwrap();
    fs.write(ino, 0, &vec![1u8; 10 * 4096]).unwrap();
    fs.sync().unwrap();
    // Reading the file back on a SimDisk should show few seeks; here we
    // check allocation directly through read behaviour: byte-identical.
    assert_eq!(fs.read_to_vec(ino).unwrap(), vec![1u8; 10 * 4096]);
    fsck_clean(&mut fs);
}

#[test]
fn no_space_when_reserve_hit() {
    let mut fs = Ffs::format(MemDisk::new(600), FfsConfig::small()).unwrap();
    let mut got_nospace = false;
    for i in 0..200 {
        match fs.write_file(&format!("/f{i}"), &vec![0u8; 16384]) {
            Ok(_) => {}
            Err(FsError::NoSpace) => {
                got_nospace = true;
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(got_nospace);
    // The reserve keeps ~10% free.
    let s = fs.statfs().unwrap();
    assert!(s.live_bytes as f64 / s.total_bytes as f64 <= 0.95);
}

#[test]
fn rename_link_rmdir_semantics() {
    let mut fs = small_fs();
    fs.mkdir("/a").unwrap();
    let ino = fs.write_file("/a/x", b"data").unwrap();
    fs.link("/a/x", "/y").unwrap();
    assert_eq!(fs.metadata(ino).unwrap().nlink, 2);
    fs.rename("/a/x", "/z").unwrap();
    fs.unlink("/z").unwrap();
    assert_eq!(fs.metadata(ino).unwrap().nlink, 1);
    fs.unlink("/y").unwrap();
    assert!(fs.metadata(ino).is_err());
    fs.rmdir("/a").unwrap();
    fsck_clean(&mut fs);
}

#[test]
fn works_on_simdisk() {
    // The benchmarks run FFS over the simulated Wren IV; sanity-check the
    // pairing and that synchronous creates accrue sync busy time.
    let mut fs = Ffs::format(SimDisk::new(4096, DiskModel::wren_iv()), FfsConfig::small()).unwrap();
    let s0 = fs.device().stats();
    fs.write_file("/f", &[1u8; 1024]).unwrap();
    let s1 = fs.device().stats().since(&s0);
    assert!(s1.sync_busy_ns > 0, "create must block on the disk");
    assert!(s1.seeks > 0);
}

fn path_for(n: u8) -> String {
    match n % 10 {
        0 => "/a".into(),
        1 => "/b".into(),
        2 => "/dir1".into(),
        3 => "/dir2".into(),
        4 => "/dir1/x".into(),
        5 => "/dir1/y".into(),
        6 => "/dir2/x".into(),
        7 => "/dir2/sub".into(),
        8 => "/dir2/sub/z".into(),
        _ => "/c".into(),
    }
}

/// One generated step: file-system calls, each with the outcome that
/// names its inode, or `None` for a remount.
type Step = Option<Vec<(Op, Outcome)>>;

fn call(op: Op) -> Step {
    Some(vec![(op, Outcome::Unit)])
}

/// A call on whatever file `n` names when the step runs.
fn on_file(n: u8, op: impl FnOnce(Ino) -> Op) -> Step {
    Some(at_path(path_for(n), op).into())
}

fn op_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u8>().prop_map(|n| call(Op::Create(path_for(n)))),
        any::<u8>().prop_map(|n| call(Op::Mkdir(path_for(n)))),
        (any::<u8>(), any::<u16>(), 0u16..5000, any::<u8>()).prop_map(|(f, o, l, v)| on_file(
            f,
            |ino| Op::Write(ino, o as u64, vec![v; l as usize])
        )),
        (any::<u8>(), any::<u16>())
            .prop_map(|(f, s)| on_file(f, |ino| Op::Truncate(ino, s as u64))),
        any::<u8>().prop_map(|n| call(Op::Unlink(path_for(n)))),
        any::<u8>().prop_map(|n| call(Op::Rmdir(path_for(n)))),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| {
            let (from, to) = (path_for(a), path_for(b));
            if to.starts_with(&format!("{from}/")) || from == to {
                return Some(vec![]);
            }
            call(Op::Rename(from, to))
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| call(Op::Link(path_for(a), path_for(b)))),
        Just(None),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn ffs_matches_model(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let fs = Ffs::format(MemDisk::new(4096), FfsConfig::small()).unwrap();
        let mut model = ModelFs::new();
        let mut fs_opt = Some(fs);
        let (mut fs_names, mut model_names) = (Names::default(), Names::default());
        for (step, calls) in ops.iter().enumerate() {
            let Some(calls) = calls else {
                let mut f = fs_opt.take().unwrap();
                f.sync().unwrap();
                fs_opt = Some(Ffs::mount(f.into_device(), FfsConfig::small()).unwrap());
                continue;
            };
            let fs = fs_opt.as_mut().unwrap();
            for (op, recorded) in calls {
                let a = fs_names.apply(fs, op, recorded);
                let b = model_names.apply(&mut model, op, recorded);
                prop_assert_eq!(a.is_ok(), b.is_ok(), "step {} {:?}: {:?} vs {:?}", step, op, a, b);
            }
        }
        // Compare final state.
        let fs = fs_opt.as_mut().unwrap();
        assert_same_tree(fs, &mut model);
        let report = fs.fsck().unwrap();
        prop_assert!(report.is_clean(), "fsck: {:#?}", report.errors);
    }
}
