//! The framed request protocol: `lfs-wire/1`.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload. A request payload is one encoded [`vfs::Op`]
//! and a response payload one encoded result; that encoding lives with
//! the types it encodes, in [`vfs::wire`], next to
//! [`vfs::FsError::wire_code`]. This module adds the frames and their
//! size limit, and keeps the protocol's names for the two payload types.
//!
//! The format deliberately has no versioning handshake: it is an
//! internal protocol between the bundled client and server, and the
//! frame-length prefix keeps it self-delimiting over any byte stream.

use std::io::{self, Read, Write};

pub use vfs::wire::{decode_response, encode_response};
/// One client request.
pub use vfs::Op as Request;
/// One successful server reply; errors travel as status codes instead.
pub use vfs::Outcome as Reply;

/// The most data one read or write frame carries. [`crate::Client`]
/// splits longer calls into pieces of this size, and the server refuses a
/// longer `Read` rather than allocate for it.
pub const MAX_IO: usize = 8 * 1024 * 1024;

/// Largest accepted frame payload: one [`MAX_IO`] piece plus headers. Far
/// above anything the workloads issue, small enough that a corrupt length
/// prefix cannot OOM the server.
pub const MAX_FRAME: usize = MAX_IO + 64;

// ----- frames ------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::{DirEntry, FileType, FsError, FsResult, Metadata, StatFs};

    fn roundtrip_req(req: Request) {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Create("/a/b".into()));
        roundtrip_req(Request::Mkdir("/d".into()));
        roundtrip_req(Request::Lookup("/".into()));
        roundtrip_req(Request::Write(7, 4096, vec![1, 2, 3]));
        roundtrip_req(Request::Read(9, 0, 65536));
        roundtrip_req(Request::Truncate(3, 12));
        roundtrip_req(Request::Unlink("/x".into()));
        roundtrip_req(Request::Rmdir("/d".into()));
        roundtrip_req(Request::Rename("/a".into(), "/b".into()));
        roundtrip_req(Request::Link("/a".into(), "/l".into()));
        roundtrip_req(Request::Metadata(2));
        roundtrip_req(Request::Readdir("/".into()));
        roundtrip_req(Request::Sync);
        roundtrip_req(Request::Statfs);
    }

    fn roundtrip_resp(res: FsResult<Reply>) {
        let enc = encode_response(&res);
        let back = decode_response(&enc).unwrap();
        match (&res, &back) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.wire_code(), b.wire_code()),
            _ => panic!("ok/err mismatch: {res:?} vs {back:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Ok(Reply::Unit));
        roundtrip_resp(Ok(Reply::Ino(42)));
        roundtrip_resp(Ok(Reply::Data(vec![0u8; 10000])));
        roundtrip_resp(Ok(Reply::Metadata(Metadata {
            ino: 5,
            ftype: FileType::Regular,
            size: 123,
            nlink: 2,
            mode: 0o644,
            mtime: 9,
            atime: 10,
            ctime: 11,
        })));
        roundtrip_resp(Ok(Reply::Entries(vec![
            DirEntry {
                name: "a".into(),
                ino: 2,
                ftype: FileType::Regular,
            },
            DirEntry {
                name: "d".into(),
                ino: 3,
                ftype: FileType::Directory,
            },
        ])));
        roundtrip_resp(Ok(Reply::Statfs(StatFs {
            total_bytes: 100,
            live_bytes: 42,
            num_files: 7,
        })));
        roundtrip_resp(Err(FsError::NotFound));
        roundtrip_resp(Err(FsError::Corrupt("bad".into())));
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        // Header cut mid-way.
        let partial = [1u8, 0];
        assert!(read_frame(&mut &partial[..]).is_err());
        // Garbage opcodes/tags.
        assert!(Request::decode(&[99]).is_err());
        assert!(decode_response(&[0, 99]).is_err());
        // Trailing junk.
        let mut enc = Request::Sync.encode();
        enc.push(0);
        assert!(Request::decode(&enc).is_err());
    }
}
