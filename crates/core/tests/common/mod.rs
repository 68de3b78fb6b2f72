//! Shared by the equivalence suites: a churn of writes, truncates and
//! unlinks over the files `/f0`, `/f1`, … as a stream of [`Op`]s that
//! every configuration under comparison must run without an error.

use std::collections::BTreeSet;

use blockdev::QueueDevice;
use lfs_core::Lfs;
use vfs::{Ino, Names, Op, Outcome};

/// The path of churn file `file`.
pub fn path(file: Ino) -> String {
    format!("/f{file}")
}

/// Lowers generated churn to a stream in which every call succeeds.
///
/// Each op is a `Write` or `Truncate` whose inode is a churn file number,
/// an `Unlink` of a churn path, or `Sync`; `None` is a cache drop and
/// stays `None`. A write first opens its file, creating it when absent,
/// and binds the file number to it; a truncate of a present file first
/// looks it up; a truncate or unlink of an absent file drops out.
pub fn stream(churn: &[Option<Op>]) -> Vec<Option<(Op, Outcome)>> {
    let mut live = BTreeSet::new();
    let mut out = Vec::new();
    for op in churn {
        match op {
            Some(Op::Write(file, ..) | Op::Truncate(file, _)) => {
                let p = path(*file);
                let open = if live.contains(&p) {
                    Op::Lookup(p)
                } else if matches!(op, Some(Op::Write(..))) {
                    live.insert(p.clone());
                    Op::Create(p)
                } else {
                    continue;
                };
                out.push(Some((open, Outcome::Ino(*file))));
            }
            Some(Op::Unlink(p)) if !live.remove(p) => continue,
            _ => {}
        }
        out.push(op.clone().map(|op| (op, Outcome::Unit)));
    }
    out
}

/// Runs a lowered stream on `fs`; every call must succeed.
pub fn run<D: QueueDevice>(fs: &mut Lfs<D>, stream: &[Option<(Op, Outcome)>]) {
    let mut names = Names::default();
    for step in stream {
        match step {
            Some((op, recorded)) => {
                if let Err(e) = names.apply(fs, op, recorded) {
                    panic!("{op:?}: {e}");
                }
            }
            None => fs.drop_caches(),
        }
    }
}
