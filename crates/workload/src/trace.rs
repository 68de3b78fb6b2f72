//! Operation traces: record a workload once, replay it anywhere.
//!
//! The paper's workload characterisation rests on trace-driven analysis
//! (§2.2 cites the BSD trace study). This module provides the plumbing:
//! a [`Tracer`] wraps any [`FileSystem`] and records the stream of
//! `(Op, Outcome)` pairs driven through it; [`replay`] applies a stream to
//! any other file system; [`encode_stream`] and [`decode_stream`] persist
//! one in the `lfs-wire/1` encoding the server speaks.
//!
//! Inside a stream an inode number is a name, bound by the
//! [`Outcome::Ino`] of the create, mkdir or lookup that returned it and
//! translated separately for each target ([`vfs::Names`]). A replayed
//! write therefore reaches the file it reached when recorded, even after
//! the file's directory was renamed or the name it was opened by was
//! unlinked.
//!
//! Two uses in this repository:
//!
//! - reproducibility: a benchmark's exact operation stream can be saved
//!   and re-applied to both file systems or to a future version;
//! - the `nvram_journal` example: §2.1 notes that "for applications that
//!   require better crash recovery, non-volatile RAM may be used for the
//!   write buffer". An operation journal in stable memory is the
//!   software shape of that idea — after a crash, recovery replays the
//!   journal tail over the recovered file system, eliminating the
//!   lost-seconds window.

use std::io;

use vfs::wire::{decode_response, encode_response};
use vfs::{FileSystem, Forward, FsResult, Names, Op, Outcome};

/// A recording wrapper: drives an inner file system and remembers every
/// successful call that changes it, plus every create, mkdir and lookup,
/// whose outcomes bind the inode names later calls use. Reads, metadata,
/// readdir and statfs are not recorded.
pub struct Tracer<F: FileSystem> {
    inner: F,
    stream: Vec<(Op, Outcome)>,
}

impl<F: FileSystem> Tracer<F> {
    /// Wraps `fs` with recording.
    pub fn new(fs: F) -> Tracer<F> {
        Tracer {
            inner: fs,
            stream: Vec::new(),
        }
    }

    /// The recorded stream so far.
    pub fn stream(&self) -> &[(Op, Outcome)] {
        &self.stream
    }

    /// Consumes the tracer, returning the inner file system and the stream.
    pub fn into_parts(self) -> (F, Vec<(Op, Outcome)>) {
        (self.inner, self.stream)
    }

    /// The stream recorded since index `from` (the journal tail).
    pub fn tail(&self, from: usize) -> &[(Op, Outcome)] {
        &self.stream[from..]
    }
}

impl<F: FileSystem> Forward for Tracer<F> {
    fn call(&mut self, op: Op) -> FsResult<Outcome> {
        let outcome = op.apply(&mut self.inner)?;
        if !matches!(
            op,
            Op::Read(..) | Op::Metadata(_) | Op::Readdir(_) | Op::Statfs
        ) {
            self.stream.push((op, outcome.clone()));
        }
        Ok(outcome)
    }
}

/// Replays a stream onto `fs`, stopping at the first error.
pub fn replay<F: FileSystem>(fs: &mut F, stream: &[(Op, Outcome)]) -> FsResult<usize> {
    let mut names = Names::default();
    for (op, recorded) in stream {
        names.apply(fs, op, recorded)?;
    }
    Ok(stream.len())
}

/// Serialises a stream: per entry, the op's request payload and then its
/// outcome's response payload, each behind a little-endian `u32` length.
pub fn encode_stream(stream: &[(Op, Outcome)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (op, outcome) in stream {
        for payload in [op.encode(), encode_response(&Ok(outcome.clone()))] {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
    }
    out
}

/// Parses what [`encode_stream`] wrote.
pub fn decode_stream(mut bytes: &[u8]) -> io::Result<Vec<(Op, Outcome)>> {
    fn payload<'a>(bytes: &mut &'a [u8]) -> io::Result<&'a [u8]> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "truncated stream");
        let len: [u8; 4] = bytes.get(..4).ok_or_else(bad)?.try_into().expect("4 bytes");
        let end = 4 + u32::from_le_bytes(len) as usize;
        let p = bytes.get(4..end).ok_or_else(bad)?;
        *bytes = &bytes[end..];
        Ok(p)
    }
    let mut stream = Vec::new();
    while !bytes.is_empty() {
        let op = Op::decode(payload(&mut bytes)?)?;
        let outcome = decode_response(payload(&mut bytes)?)?.map_err(io::Error::other)?;
        stream.push((op, outcome));
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDisk;
    use lfs_core::{Lfs, LfsConfig};
    use vfs::model::{assert_same_tree, ModelFs};

    fn sample_trace() -> Tracer<ModelFs> {
        let mut t = Tracer::new(ModelFs::new());
        t.mkdir("/d").unwrap();
        let a = t.create("/d/a").unwrap();
        t.write(a, 0, &[7u8; 500]).unwrap();
        t.write(a, 250, b"mixed-content!").unwrap();
        let b = t.create("/b").unwrap();
        t.write(b, 10, &[3u8; 100]).unwrap();
        t.truncate(b, 50).unwrap();
        t.rename("/d/a", "/d/z").unwrap();
        t.link("/d/z", "/zz").unwrap();
        t.unlink("/b").unwrap();
        t.sync().unwrap();
        // A post-rename inode-based write must resolve to the new path.
        let z = t.lookup("/d/z").unwrap();
        t.write(z, 0, b"after-rename").unwrap();
        t
    }

    #[test]
    fn replay_reproduces_state_exactly() {
        let (mut traced, stream) = sample_trace().into_parts();
        let mut fresh = ModelFs::new();
        replay(&mut fresh, &stream).unwrap();
        assert_same_tree(&mut traced, &mut fresh);
        assert!(fresh.lookup("/b").is_err());
    }

    #[test]
    fn streams_roundtrip_through_the_wire_encoding() {
        let stream = sample_trace().stream().to_vec();
        let bytes = encode_stream(&stream);
        assert_eq!(decode_stream(&bytes).unwrap(), stream);
        assert!(decode_stream(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn tail_is_the_journal_since_a_sync() {
        let mut t = Tracer::new(ModelFs::new());
        t.create("/a").unwrap();
        t.sync().unwrap();
        let mark = t.stream().len();
        t.create("/b").unwrap();
        t.create("/c").unwrap();
        assert_eq!(t.tail(mark).len(), 2);
    }

    /// Replays `trace` onto a fresh model and a fresh LFS and returns what
    /// each holds at `path`.
    fn replayed_contents(trace: impl FnOnce(&mut Tracer<ModelFs>), path: &str) -> [Vec<u8>; 2] {
        let mut t = Tracer::new(ModelFs::new());
        trace(&mut t);
        let (_, stream) = t.into_parts();
        let mut model = ModelFs::new();
        replay(&mut model, &stream).unwrap();
        let mut lfs = Lfs::format(MemDisk::new(1024), LfsConfig::small()).unwrap();
        replay(&mut lfs, &stream).unwrap();
        let model_ino = model.lookup(path).unwrap();
        let lfs_ino = lfs.lookup(path).unwrap();
        [
            model.read_to_vec(model_ino).unwrap(),
            lfs.read_to_vec(lfs_ino).unwrap(),
        ]
    }

    /// A write through an inode whose parent directory was renamed after
    /// the file was opened reaches that file on replay.
    #[test]
    fn replay_follows_a_file_whose_directory_was_renamed() {
        let got = replayed_contents(
            |t| {
                t.mkdir("/d").unwrap();
                let f = t.create("/d/f").unwrap();
                t.rename("/d", "/e").unwrap();
                t.write(f, 0, b"moved with its directory").unwrap();
            },
            "/e/f",
        );
        assert_eq!(
            got,
            [
                b"moved with its directory".to_vec(),
                b"moved with its directory".to_vec()
            ]
        );
    }

    /// A write through an inode whose recorded name was unlinked reaches
    /// the file through the hard link that remains.
    #[test]
    fn replay_follows_a_file_through_its_remaining_hard_link() {
        let got = replayed_contents(
            |t| {
                let f = t.create("/a").unwrap();
                t.link("/a", "/b").unwrap();
                t.unlink("/a").unwrap();
                t.write(f, 0, b"still linked").unwrap();
            },
            "/b",
        );
        assert_eq!(got, [b"still linked".to_vec(), b"still linked".to_vec()]);
    }
}
