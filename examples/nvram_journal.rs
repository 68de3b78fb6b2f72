//! The "NVRAM write buffer" idea from §2.1, realised as an op journal.
//!
//! "Write-buffering has the disadvantage of increasing the amount of data
//! lost during a crash ... for applications that require better crash
//! recovery, non-volatile RAM may be used for the write buffer."
//!
//! We model the NVRAM as an operation journal that survives the crash
//! (here: the recorded `(Op, Outcome)` stream, encoded to bytes kept
//! outside the file system; on real hardware they would live in
//! battery-backed RAM). After the crash, normal LFS
//! recovery restores everything up to the last flush, and then the journal
//! tail is replayed — closing the lost-seconds window entirely.
//!
//! ```sh
//! cargo run --example nvram_journal
//! ```

use blockdev::CrashDisk;
use lfs_core::{Lfs, LfsConfig};
use vfs::FileSystem;
use workload::{decode_stream, encode_stream, replay, Tracer};

fn main() {
    let cfg = LfsConfig::small();
    let fs = Lfs::format(CrashDisk::new(2048), cfg).expect("format");
    let mut traced = Tracer::new(fs);

    // Durable prefix.
    traced.mkdir("/mail").expect("mkdir");
    traced
        .write_file("/mail/inbox", b"message 1\n")
        .expect("write");
    traced.sync().expect("sync");
    let journal_mark = traced.stream().len(); // NVRAM cleared: the sync is durable.

    // The vulnerable window: buffered writes after the last sync.
    let inbox = traced.lookup("/mail/inbox").expect("lookup");
    traced
        .write(inbox, 10, b"message 2 (buffered)\n")
        .expect("write");
    traced
        .write_file("/mail/outbox", b"queued reply\n")
        .expect("write");

    // ---- CRASH: the file cache contents are gone; the op journal
    // (NVRAM) survives. -------------------------------------------------
    let nvram: Vec<u8> = encode_stream(traced.tail(journal_mark));
    let (fs, _) = traced.into_parts();
    let image = {
        let crash: &CrashDisk = fs.device();
        crash.image_after(crash.num_writes()).unwrap()
    };
    drop(fs);

    // Plain recovery: the buffered messages are lost.
    let mut plain = Lfs::mount(image, cfg).expect("recovery mount");
    let lost_outbox = plain.lookup("/mail/outbox").is_err();
    let inbox_len = {
        let ino = plain.lookup("/mail/inbox").expect("inbox survives");
        plain.metadata(ino).expect("meta").size
    };
    println!("plain recovery:  inbox {inbox_len} bytes, outbox lost: {lost_outbox}");

    // NVRAM recovery: replay the journal tail on top.
    let journal = decode_stream(&nvram).expect("journal decode");
    let replayed = replay(&mut plain, &journal).expect("journal replay");
    let ino = plain.lookup("/mail/inbox").expect("inbox");
    let inbox = plain.read_to_vec(ino).expect("read");
    let outbox = plain.lookup("/mail/outbox").is_ok();
    println!(
        "nvram recovery:  replayed {replayed} journaled ops — inbox {} bytes, outbox present: {outbox}",
        inbox.len()
    );
    assert!(outbox, "journal replay must restore the buffered file");
    assert!(inbox.ends_with(b"message 2 (buffered)\n"));
    plain.sync().expect("sync after replay");
    assert!(plain.check().expect("fsck").is_clean());
    println!("no data lost — the write buffer was effectively non-volatile.");
}
