//! Quickstart: format a log-structured file system, use it, remount it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use blockdev::{BlockDevice, DiskModel, SimDisk};
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;

fn main() {
    // A simulated 64 MB Wren IV disk — the drive from the paper's testbed.
    let disk = SimDisk::new(64 * 256, DiskModel::wren_iv());

    // Format and mount in one step.
    let mut fs = Lfs::format(disk, LfsConfig::default()).expect("format");

    // The VFS surface looks like any Unix file system...
    fs.mkdir("/projects").expect("mkdir");
    fs.mkdir("/projects/lfs").expect("mkdir");
    let ino = fs
        .write_file("/projects/lfs/notes.txt", b"all writes go to the log\n")
        .expect("write");
    fs.link("/projects/lfs/notes.txt", "/notes-link")
        .expect("link");

    // ...but underneath, every modification was buffered and will reach
    // the disk as one large sequential write.
    fs.sync().expect("sync");
    let stats = fs.device().stats();
    println!(
        "after sync: {} write requests, {} seeks, {} KB written",
        stats.writes,
        stats.seeks,
        stats.bytes_written / 1024
    );

    // Reading back.
    let data = fs.read_to_vec(ino).expect("read");
    println!("notes.txt: {:?}", String::from_utf8_lossy(&data).trim_end());
    for entry in fs.readdir("/projects/lfs").expect("readdir") {
        println!("dir entry: {} (inode {})", entry.name, entry.ino);
    }

    // Drop and remount: the synced state comes back from the last
    // checkpoint plus roll-forward of the log tail the sync appended.
    let disk = fs.into_device();
    let mut fs = Lfs::mount(disk, LfsConfig::default()).expect("mount");
    let ino = fs.lookup("/notes-link").expect("lookup");
    let again = fs.read_to_vec(ino).expect("read");
    assert_eq!(again, data);
    println!("remounted: /notes-link has the same content — done.");
}
