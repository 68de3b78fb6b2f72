#![warn(missing_docs)]

//! File-system interface shared by the LFS and FFS implementations.
//!
//! The benchmark harness, examples, and integration tests are written
//! against the [`FileSystem`] trait so that the log-structured file system
//! (`lfs-core`) and the Unix-FFS baseline (`ffs-baseline`) can be driven by
//! exactly the same workload code — the comparison methodology of Section 5
//! of the paper.
//!
//! A call to the trait is also data: an [`Op`], whose success is an
//! [`Outcome`]. The server runs decoded `Op`s ([`wire`] is their
//! `lfs-wire/1` encoding), a recording is a stream of `(Op, Outcome)`
//! pairs that [`Names`] replays onto any file system, and the property
//! tests generate such streams.
//!
//! The crate also ships [`model::ModelFs`], a deliberately simple in-memory
//! reference implementation used as an oracle by the property-based tests:
//! any sequence of operations must leave a real file system and the model
//! in observably identical states ([`model::assert_same_tree`]).

mod error;
pub mod model;
mod op;
pub mod path;
mod types;
pub mod wire;

pub use error::{FsError, FsResult};
pub use op::{at_path, Forward, Names, Op, Outcome};
pub use types::{DirEntry, FileType, Metadata, StatFs};

/// Inode number. Inode 1 is always the root directory; 0 is never a valid
/// inode.
pub type Ino = u32;

/// The root directory's inode number.
pub const ROOT_INO: Ino = 1;

/// Maximum length of a single path component, in bytes.
pub const MAX_NAME_LEN: usize = 255;

/// A hierarchical file system.
///
/// Paths are `/`-separated UTF-8 strings; all paths are interpreted as
/// absolute (a leading `/` is optional). Operations that name a file can
/// also be performed directly on an [`Ino`] obtained from
/// [`FileSystem::lookup`], which is what the workload generators do to
/// avoid re-resolving paths in inner loops.
pub trait FileSystem {
    /// Creates a regular file, returning its inode number.
    ///
    /// Fails with [`FsError::AlreadyExists`] if the name is taken and with
    /// [`FsError::NotFound`] if the parent directory does not exist.
    fn create(&mut self, path: &str) -> FsResult<Ino>;

    /// Creates a directory, returning its inode number.
    fn mkdir(&mut self, path: &str) -> FsResult<Ino>;

    /// Resolves a path to an inode number.
    fn lookup(&mut self, path: &str) -> FsResult<Ino>;

    /// Writes `data` at byte `offset` of the file `ino`, extending it as
    /// needed. Writing past the current end creates a hole that reads back
    /// as zeros (used by the sparse swap-file workload).
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()>;

    /// Reads up to `buf.len()` bytes at `offset`; returns the number of
    /// bytes read (short only at end of file).
    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize>;

    /// Truncates or extends the file to exactly `size` bytes.
    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()>;

    /// Removes a directory entry; the file itself is deleted when its link
    /// count reaches zero.
    fn unlink(&mut self, path: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> FsResult<()>;

    /// Atomically renames `from` to `to`, replacing a regular-file target.
    fn rename(&mut self, from: &str, to: &str) -> FsResult<()>;

    /// Creates a hard link `new` referring to the same inode as `existing`.
    fn link(&mut self, existing: &str, new: &str) -> FsResult<()>;

    /// Returns the attributes of `ino`.
    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata>;

    /// Lists a directory.
    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>>;

    /// Makes every modification acknowledged so far survive a crash.
    ///
    /// What survives is the file system's contract. On the
    /// log-structured file system, `sync` appends data, inodes, indirect
    /// blocks and namespace operations to the log and fences the device
    /// without writing a checkpoint; recovery brings them back by
    /// roll-forward. Access times and segment-usage state become durable
    /// at its next checkpoint instead. Its fence does not yet reach the
    /// device's own `sync` (the host's `fsync` on an image file).
    fn sync(&mut self) -> FsResult<()>;

    /// Returns file-system-wide statistics.
    fn statfs(&mut self) -> FsResult<StatFs>;

    /// Reads a whole file into a vector (convenience wrapper).
    fn read_to_vec(&mut self, ino: Ino) -> FsResult<Vec<u8>> {
        let size = self.metadata(ino)?.size;
        let mut buf = vec![0u8; size as usize];
        let n = self.read(ino, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Creates a file at `path` and writes `data` to it (convenience).
    fn write_file(&mut self, path: &str, data: &[u8]) -> FsResult<Ino> {
        let ino = self.create(path)?;
        self.write(ino, 0, data)?;
        Ok(ino)
    }
}
