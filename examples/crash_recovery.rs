//! Crash recovery demonstration: checkpoints plus roll-forward (§4).
//!
//! Builds a file system on a crash-recording device, performs a mix of
//! operations, then simulates power failures at interesting moments and
//! shows what each recovery brings back.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use blockdev::CrashDisk;
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;

fn probe(image: blockdev::MemDisk, cfg: LfsConfig, roll_forward: bool, label: &str) {
    let mut fs = if roll_forward {
        Lfs::mount(image, cfg)
    } else {
        Lfs::mount_checkpoint_only(image, cfg)
    }
    .expect("recovery mount");
    let report = fs.check().expect("fsck");
    let names: Vec<&str> = ["/a.txt", "/b.txt", "/renamed.txt", "/dir/c.txt"]
        .into_iter()
        .filter(|p| fs.lookup(p).is_ok())
        .collect();
    println!(
        "{label}: consistent={} files present: {names:?}",
        report.is_clean()
    );
}

fn main() {
    let cfg = LfsConfig::small();
    let mut fs = Lfs::format(CrashDisk::new(4096), cfg).expect("format");

    // --- Durable state: written and checkpointed --------------------------
    fs.write_file("/a.txt", b"checkpointed data").unwrap();
    fs.checkpoint().unwrap();

    // --- Log tail: synced (appended and fenced) but NOT checkpointed ------
    fs.write_file("/b.txt", b"in the log tail").unwrap();
    fs.mkdir("/dir").unwrap();
    fs.write_file("/dir/c.txt", b"also in the tail").unwrap();
    fs.sync().unwrap();
    let cut_synced = fs.device().num_writes();

    // --- In-memory only: never reached the disk ---------------------------
    fs.write_file("/never.txt", b"lost on crash").unwrap();

    // --- A rename straddling the crash ------------------------------------
    fs.rename("/b.txt", "/renamed.txt").unwrap();
    fs.flush().unwrap();
    let cut_renamed = fs.device().num_writes();

    println!(
        "Simulating crashes at {} recorded write points...\n",
        cut_renamed
    );

    // Crash right after the un-checkpointed creates were synced.
    let crash: &CrashDisk = fs.device();
    probe(
        crash.image_after(cut_synced).unwrap(),
        cfg,
        true,
        "crash after sync         ",
    );

    // Crash after the rename hit the log.
    probe(
        crash.image_after(cut_renamed).unwrap(),
        cfg,
        true,
        "crash after rename flush ",
    );

    // Same crash, read back from the checkpoint alone, as production
    // Sprite did without roll-forward: everything since the last
    // checkpoint is discarded — acknowledged syncs included.
    probe(
        crash.image_after(cut_renamed).unwrap(),
        cfg,
        false,
        "same, checkpoint only    ",
    );

    println!(
        "\nWith roll-forward, the synced-but-not-checkpointed files (b.txt,\n\
         dir/c.txt) are recovered and the rename is atomic; from the\n\
         checkpoint alone, only the checkpointed a.txt survives. /never.txt\n\
         is gone either way — the paper assumes losing a few seconds of work\n\
         is acceptable (§2.1)."
    );
}
