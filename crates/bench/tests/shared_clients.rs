//! Many self-verifying clients over one shared mount, in process and over
//! the wire, at smoke sizes.
//!
//! Every client of `workload::clients` checks each read byte for byte
//! against content it can recompute, so interference between clients —
//! a torn block, a lost write, a read from another client's file — shows
//! up as a verification failure. The read-heavy check counts how many
//! reads of a warm cache bypassed the writer lane; like the others it
//! reads a counter, never the clock.

use blockdev::{MemDisk, QueuedDev};
use lfs_bench::production_lfs_config;
use lfs_core::SharedLfs;
use lfs_server::{serve, Client, ServerConfig};
use vfs::FileSystem;
use workload::clients::{content, run_clients, ClientMix, MixReport};

fn shared_fs(disk_mb: u64) -> SharedLfs<QueuedDev<MemDisk>> {
    let dev = QueuedDev::new(MemDisk::new(disk_mb * 256), 4);
    SharedLfs::format(dev, production_lfs_config(disk_mb)).unwrap()
}

/// 96 mixed clients, `ops` operations each, over `threads` handles.
fn run_mix<F, MK>(ops: usize, threads: usize, make_fs: MK) -> MixReport
where
    F: FileSystem,
    MK: Fn(usize) -> F + Sync,
{
    run_clients(
        96,
        ops,
        threads,
        ClientMix::mixed(),
        1536,
        0xC0FF_EE00,
        make_fs,
    )
}

fn assert_clean(what: &str, report: &MixReport) {
    let s = &report.stats;
    assert!(s.ops > 0, "{what}: no operations ran");
    assert_eq!(
        (s.verify_failures, s.errors),
        (0, 0),
        "{what}: first failure: {:?}",
        report.first_failure
    );
}

#[test]
fn mixed_clients_over_one_shared_mount_verify() {
    let fs = shared_fs(128);
    let report = run_mix(6, 4, |_| fs.clone());
    fs.sync_all().unwrap();
    assert_clean("shared mount", &report);
}

#[test]
fn mixed_clients_over_the_wire_verify() {
    let fs = shared_fs(64);
    let config = ServerConfig {
        workers: 4,
        queue_cap: 32,
    };
    let server = serve(fs, "127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    let report = run_mix(5, 3, |_| Client::connect(addr).unwrap());
    server.stop();
    assert_clean("tcp", &report);
}

#[test]
fn warm_reads_bypass_the_writer_lane() {
    let (files, len, rounds) = (24, 6144, 40);
    let fs = shared_fs(64);
    let mut h = fs.clone();
    let mut set = Vec::new();
    for i in 0..files {
        let seed = 0xFEED_0000 + i as u64;
        let ino = h.create(&format!("/ro{i}")).unwrap();
        h.write(ino, 0, &content(seed, len)).unwrap();
        set.push((ino, content(seed, len)));
    }
    h.sync().unwrap();
    let mut buf = vec![0u8; len];
    for (ino, _) in &set {
        h.read(*ino, 0, &mut buf).unwrap();
    }

    let before = fs.shared_stats();
    for threads in [1, 2] {
        std::thread::scope(|s| {
            for _ in 0..threads {
                let mut h = fs.clone();
                let set = &set;
                s.spawn(move || {
                    let mut buf = vec![0u8; len];
                    for _ in 0..rounds {
                        for (ino, want) in set {
                            assert_eq!(h.read(*ino, 0, &mut buf).unwrap(), len);
                            assert_eq!(&buf, want, "ino {ino}");
                        }
                    }
                });
            }
        });
    }
    let after = fs.shared_stats();
    let reads = after.reads - before.reads;
    let lockfree = (after.lockfree_reads - before.lockfree_reads) as f64 / reads as f64;
    assert!(
        lockfree >= 0.9,
        "{lockfree:.3} of {reads} warm reads were lock-free"
    );
}
