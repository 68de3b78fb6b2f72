//! The rungs of the ladder as one [`FileSystem`] type, so a generator
//! can be pointed at any depth of the stack unchanged.

use lfs_core::{Lfs, SharedLfs};
use lfs_server::protocol::{decode_response, encode_response, Reply, Request};
use lfs_server::Client;
use vfs::{DirEntry, FileSystem, FsError, FsResult, Ino, Metadata, StatFs};

use crate::stack::BenchDev;

/// Where a client enters the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `lfs_server::Client` over loopback TCP: the whole stack.
    Server,
    /// `lfs-wire/1` encode → decode → execute → encode → decode in
    /// process, no socket and no second thread: the codec's share of
    /// the `server` layer.
    Wire,
    /// A `SharedLfs` handle.
    Shared,
    /// The bare `Lfs`.
    Core,
}

impl Rung {
    /// Name used in reports and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Server => "server",
            Rung::Wire => "wire",
            Rung::Shared => "shared",
            Rung::Core => "core",
        }
    }
}

/// A client's handle at one [`Rung`].
pub enum Handle<D: BenchDev> {
    /// See [`Rung::Server`].
    Server(Client),
    /// See [`Rung::Wire`]; counts the frame bytes it produced.
    Wire(SharedLfs<D>, u64),
    /// See [`Rung::Shared`].
    Shared(SharedLfs<D>),
    /// See [`Rung::Core`].
    Core(Box<Lfs<D>>),
}

impl<D: BenchDev> Handle<D> {
    /// `[cleaner passes, checkpoints, partial writes]` — readable for
    /// free only on the bare `Lfs`; zeros elsewhere.
    pub fn probe(&self) -> [u64; 3] {
        match self {
            Handle::Core(fs) => {
                let s = fs.stats();
                [s.cleaner.passes, s.checkpoints, s.partial_writes]
            }
            _ => [0; 3],
        }
    }

    /// Frame bytes (both directions, length prefixes included) a
    /// [`Handle::Wire`] has produced; 0 for other rungs.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Handle::Wire(_, bytes) => *bytes,
            _ => 0,
        }
    }
}

/// What `lfs_server::server::execute` does with a decoded request (that
/// function is private to the server crate).
fn execute<F: FileSystem>(fs: &mut F, req: Request) -> FsResult<Reply> {
    match req {
        Request::Create(p) => fs.create(&p).map(Reply::Ino),
        Request::Mkdir(p) => fs.mkdir(&p).map(Reply::Ino),
        Request::Lookup(p) => fs.lookup(&p).map(Reply::Ino),
        Request::Write(ino, off, data) => fs.write(ino, off, &data).map(|()| Reply::Unit),
        Request::Read(ino, off, len) => {
            let mut buf = vec![0u8; len as usize];
            let n = fs.read(ino, off, &mut buf)?;
            buf.truncate(n);
            Ok(Reply::Data(buf))
        }
        Request::Truncate(ino, size) => fs.truncate(ino, size).map(|()| Reply::Unit),
        Request::Unlink(p) => fs.unlink(&p).map(|()| Reply::Unit),
        Request::Rmdir(p) => fs.rmdir(&p).map(|()| Reply::Unit),
        Request::Rename(f, t) => fs.rename(&f, &t).map(|()| Reply::Unit),
        Request::Link(e, n) => fs.link(&e, &n).map(|()| Reply::Unit),
        Request::Metadata(ino) => fs.metadata(ino).map(Reply::Metadata),
        Request::Readdir(p) => fs.readdir(&p).map(Reply::Entries),
        Request::Sync => fs.sync().map(|()| Reply::Unit),
        Request::Statfs => fs.statfs().map(Reply::Statfs),
    }
}

/// One request through the codec both ways, executed on `fs` in between.
fn wire_call<F: FileSystem>(fs: &mut F, bytes: &mut u64, req: Request) -> FsResult<Reply> {
    let bad = |e: std::io::Error| FsError::device(format!("wire: {e}"));
    let frame = req.encode();
    let decoded = Request::decode(&frame).map_err(bad)?;
    let response = encode_response(&execute(fs, decoded));
    *bytes += (frame.len() + response.len() + 8) as u64;
    decode_response(&response).map_err(bad)?
}

fn unexpected<T>(r: Reply) -> FsResult<T> {
    Err(FsError::device(format!("wire: unexpected reply {r:?}")))
}

/// Forwards one method to whichever rung `$self` is. `$req` builds the
/// request for the wire rung and `$reply` unpacks its reply.
macro_rules! dispatch {
    ($self:ident, $fs:ident => $call:expr, $req:expr, $reply:pat => $out:expr) => {
        match $self {
            Handle::Server($fs) => $call,
            Handle::Shared($fs) => $call,
            Handle::Core($fs) => $call,
            Handle::Wire(fs, bytes) => match wire_call(fs, bytes, $req)? {
                $reply => Ok($out),
                r => unexpected(r),
            },
        }
    };
}

impl<D: BenchDev> FileSystem for Handle<D> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        dispatch!(self, fs => fs.create(path), Request::Create(path.into()), Reply::Ino(i) => i)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        dispatch!(self, fs => fs.mkdir(path), Request::Mkdir(path.into()), Reply::Ino(i) => i)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        dispatch!(self, fs => fs.lookup(path), Request::Lookup(path.into()), Reply::Ino(i) => i)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        dispatch!(self, fs => fs.write(ino, offset, data),
            Request::Write(ino, offset, data.to_vec()), Reply::Unit => ())
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        dispatch!(self, fs => fs.read(ino, offset, buf),
        Request::Read(ino, offset, buf.len() as u32),
        Reply::Data(d) => {
            buf[..d.len()].copy_from_slice(&d);
            d.len()
        })
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        dispatch!(self, fs => fs.truncate(ino, size), Request::Truncate(ino, size), Reply::Unit => ())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        dispatch!(self, fs => fs.unlink(path), Request::Unlink(path.into()), Reply::Unit => ())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        dispatch!(self, fs => fs.rmdir(path), Request::Rmdir(path.into()), Reply::Unit => ())
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        dispatch!(self, fs => fs.rename(from, to),
            Request::Rename(from.into(), to.into()), Reply::Unit => ())
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        dispatch!(self, fs => fs.link(existing, new),
            Request::Link(existing.into(), new.into()), Reply::Unit => ())
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        dispatch!(self, fs => fs.metadata(ino), Request::Metadata(ino), Reply::Metadata(m) => m)
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        dispatch!(self, fs => fs.readdir(path), Request::Readdir(path.into()), Reply::Entries(e) => e)
    }

    fn sync(&mut self) -> FsResult<()> {
        dispatch!(self, fs => fs.sync(), Request::Sync, Reply::Unit => ())
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        dispatch!(self, fs => fs.statfs(), Request::Statfs, Reply::Statfs(s) => s)
    }
}
