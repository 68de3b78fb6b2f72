//! A [`FileSystem`] call as data.
//!
//! An [`Op`] is one of the fourteen trait calls with its arguments, and an
//! [`Outcome`] is what a successful call returned. The server decodes an
//! `Op` off the wire and runs [`Op::apply`]; a recording of a workload is
//! a stream of `(Op, Outcome)` pairs that [`Names`] replays onto any other
//! file system; and anything that can carry an `Op` somewhere and bring an
//! `Outcome` back implements [`Forward`] and is a `FileSystem` for free.

use std::collections::HashMap;

use crate::{DirEntry, FileSystem, FsError, FsResult, Ino, Metadata, StatFs};

/// One [`FileSystem`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `create(path)`.
    Create(String),
    /// `mkdir(path)`.
    Mkdir(String),
    /// `lookup(path)`.
    Lookup(String),
    /// `write(ino, offset, data)`.
    Write(Ino, u64, Vec<u8>),
    /// `read(ino, offset, len)`.
    Read(Ino, u64, u32),
    /// `truncate(ino, size)`.
    Truncate(Ino, u64),
    /// `unlink(path)`.
    Unlink(String),
    /// `rmdir(path)`.
    Rmdir(String),
    /// `rename(from, to)`.
    Rename(String, String),
    /// `link(existing, new)`.
    Link(String, String),
    /// `metadata(ino)`.
    Metadata(Ino),
    /// `readdir(path)`.
    Readdir(String),
    /// `sync()`.
    Sync,
    /// `statfs()`.
    Statfs,
}

/// What a successful [`Op`] returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No payload (write/truncate/unlink/rmdir/rename/link/sync).
    Unit,
    /// An inode number (create/mkdir/lookup).
    Ino(Ino),
    /// Read payload bytes.
    Data(Vec<u8>),
    /// Stat result.
    Metadata(Metadata),
    /// Directory listing.
    Entries(Vec<DirEntry>),
    /// File-system statistics.
    Statfs(StatFs),
}

impl Op {
    /// Makes this call on `fs`.
    pub fn apply(&self, fs: &mut impl FileSystem) -> FsResult<Outcome> {
        let unit = |()| Outcome::Unit;
        match self {
            Op::Create(p) => fs.create(p).map(Outcome::Ino),
            Op::Mkdir(p) => fs.mkdir(p).map(Outcome::Ino),
            Op::Lookup(p) => fs.lookup(p).map(Outcome::Ino),
            Op::Write(ino, off, data) => fs.write(*ino, *off, data).map(unit),
            Op::Read(ino, off, len) => {
                let mut buf = vec![0u8; *len as usize];
                let n = fs.read(*ino, *off, &mut buf)?;
                buf.truncate(n);
                Ok(Outcome::Data(buf))
            }
            Op::Truncate(ino, size) => fs.truncate(*ino, *size).map(unit),
            Op::Unlink(p) => fs.unlink(p).map(unit),
            Op::Rmdir(p) => fs.rmdir(p).map(unit),
            Op::Rename(f, t) => fs.rename(f, t).map(unit),
            Op::Link(e, n) => fs.link(e, n).map(unit),
            Op::Metadata(ino) => fs.metadata(*ino).map(Outcome::Metadata),
            Op::Readdir(p) => fs.readdir(p).map(Outcome::Entries),
            Op::Sync => fs.sync().map(unit),
            Op::Statfs => fs.statfs().map(Outcome::Statfs),
        }
    }

    /// The inode this call addresses, if it addresses one.
    fn ino_mut(&mut self) -> Option<&mut Ino> {
        match self {
            Op::Write(ino, ..) | Op::Read(ino, ..) | Op::Truncate(ino, _) | Op::Metadata(ino) => {
                Some(ino)
            }
            _ => None,
        }
    }
}

/// The two stream entries that make `op` on whatever `path` names when
/// the stream runs: a lookup whose outcome binds a name, then `op` on that
/// name. The name is 0, never a real inode, so it cannot shadow one a
/// recording bound.
pub fn at_path(path: String, op: impl FnOnce(Ino) -> Op) -> [(Op, Outcome); 2] {
    [(Op::Lookup(path), Outcome::Ino(0)), (op(0), Outcome::Unit)]
}

/// One target's reading of the inode numbers in a stream of
/// `(Op, Outcome)` pairs.
///
/// Inside a stream an inode number is a name, not an address: it means
/// "the inode the op whose recorded outcome was `Outcome::Ino(name)`
/// returned". Each target a stream runs on allocates its own inodes, so
/// each keeps its own `Names`, and the same stream lands on the same files
/// everywhere, whatever was renamed, linked or unlinked in between.
#[derive(Debug, Default)]
pub struct Names(HashMap<Ino, Ino>);

impl Names {
    /// Makes the call `op` on `fs` with its inode name translated, and
    /// binds the name in `recorded`, if it is an [`Outcome::Ino`], to the
    /// inode `fs` returned — or unbinds it when the call failed. A call on
    /// a name nothing bound fails without reaching `fs`.
    pub fn apply(
        &mut self,
        fs: &mut impl FileSystem,
        op: &Op,
        recorded: &Outcome,
    ) -> FsResult<Outcome> {
        let mut op = op.clone();
        if let Some(name) = op.ino_mut() {
            *name = *self.0.get(name).ok_or(FsError::InvalidArgument(
                "inode name not bound by the stream",
            ))?;
        }
        let got = op.apply(fs);
        if let Outcome::Ino(name) = recorded {
            match got {
                Ok(Outcome::Ino(ino)) => self.0.insert(*name, ino),
                _ => self.0.remove(name),
            };
        }
        got
    }
}

/// A file system reached by handing it [`Op`]s: a client, a recorder, a
/// proxy. Implementing [`Forward::call`] implements every [`FileSystem`]
/// method.
pub trait Forward {
    /// Makes one call and returns its outcome.
    fn call(&mut self, op: Op) -> FsResult<Outcome>;
}

fn unexpected<T>(o: Outcome) -> FsResult<T> {
    Err(FsError::device(format!("unexpected outcome {o:?}")))
}

fn ino(o: Outcome) -> FsResult<Ino> {
    match o {
        Outcome::Ino(ino) => Ok(ino),
        o => unexpected(o),
    }
}

fn unit(o: Outcome) -> FsResult<()> {
    match o {
        Outcome::Unit => Ok(()),
        o => unexpected(o),
    }
}

impl<T: Forward> FileSystem for T {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        ino(self.call(Op::Create(path.into()))?)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        ino(self.call(Op::Mkdir(path.into()))?)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        ino(self.call(Op::Lookup(path.into()))?)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        unit(self.call(Op::Write(ino, offset, data.to_vec()))?)
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let len = u32::try_from(buf.len())
            .map_err(|_| FsError::InvalidArgument("read longer than 4 GiB"))?;
        match self.call(Op::Read(ino, offset, len))? {
            Outcome::Data(d) if d.len() <= buf.len() => {
                buf[..d.len()].copy_from_slice(&d);
                Ok(d.len())
            }
            o => unexpected(o),
        }
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        unit(self.call(Op::Truncate(ino, size))?)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        unit(self.call(Op::Unlink(path.into()))?)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        unit(self.call(Op::Rmdir(path.into()))?)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        unit(self.call(Op::Rename(from.into(), to.into()))?)
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        unit(self.call(Op::Link(existing.into(), new.into()))?)
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        match self.call(Op::Metadata(ino))? {
            Outcome::Metadata(m) => Ok(m),
            o => unexpected(o),
        }
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        match self.call(Op::Readdir(path.into()))? {
            Outcome::Entries(es) => Ok(es),
            o => unexpected(o),
        }
    }

    fn sync(&mut self) -> FsResult<()> {
        unit(self.call(Op::Sync)?)
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        match self.call(Op::Statfs)? {
            Outcome::Statfs(s) => Ok(s),
            o => unexpected(o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelFs;

    /// Names follow the inode, not the path: a stream replayed onto a
    /// target that allocates other inodes still reaches the same files,
    /// and a failed binding call leaves its name unbound.
    #[test]
    fn names_translate_per_target_and_unbind_on_failure() {
        let mut target = ModelFs::new();
        target.create("/pad").unwrap(); // shifts every inode the stream gets
        let stream = [
            (Op::Create("/f".into()), Outcome::Ino(2)),
            (Op::Rename("/f".into(), "/g".into()), Outcome::Unit),
            (Op::Write(2, 0, b"named".to_vec()), Outcome::Unit),
        ];
        let mut names = Names::default();
        for (op, recorded) in &stream {
            names.apply(&mut target, op, recorded).unwrap();
        }
        let g = target.lookup("/g").unwrap();
        assert_ne!(g, 2);
        assert_eq!(target.read_to_vec(g).unwrap(), b"named");

        let [lookup, write] = at_path("/missing".into(), |ino| Op::Truncate(ino, 0));
        assert!(names.apply(&mut target, &lookup.0, &lookup.1).is_err());
        assert!(matches!(
            names.apply(&mut target, &write.0, &write.1),
            Err(FsError::InvalidArgument(_))
        ));
    }
}
