//! The `lfs-wire/1` encoding of [`Op`]s and their results.
//!
//! A request payload is a `u8` opcode followed by the op's arguments. A
//! response payload starts with a `u8` status: `0` for success, followed
//! by a reply tag and the [`Outcome`]; else an [`FsError::wire_code`]
//! followed by a detail string. All integers are little-endian; strings
//! are `u16` length + UTF-8 bytes; byte buffers are `u32` length + raw
//! bytes. Payloads carry no length of their own: whoever moves them (the
//! server's frames, a saved recording) delimits them.

use std::io;

use crate::{DirEntry, FileType, FsError, FsResult, Metadata, Op, Outcome, StatFs};

const OP_CREATE: u8 = 1;
const OP_MKDIR: u8 = 2;
const OP_LOOKUP: u8 = 3;
const OP_WRITE: u8 = 4;
const OP_READ: u8 = 5;
const OP_TRUNCATE: u8 = 6;
const OP_UNLINK: u8 = 7;
const OP_RMDIR: u8 = 8;
const OP_RENAME: u8 = 9;
const OP_LINK: u8 = 10;
const OP_METADATA: u8 = 11;
const OP_READDIR: u8 = 12;
const OP_SYNC: u8 = 13;
const OP_STATFS: u8 = 14;

const REPLY_UNIT: u8 = 0;
const REPLY_INO: u8 = 1;
const REPLY_DATA: u8 = 2;
const REPLY_METADATA: u8 = 3;
const REPLY_ENTRIES: u8 = 4;
const REPLY_STATFS: u8 = 5;

// ----- primitive encoders ------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Bounds-checked little-endian reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(invalid("truncated frame payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn u16(&mut self) -> io::Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn str(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| invalid("non-UTF-8 string".into()))
    }

    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(invalid("trailing bytes in frame".into()));
        }
        Ok(())
    }
}

fn ftype_code(t: FileType) -> u8 {
    match t {
        FileType::Regular => 0,
        FileType::Directory => 1,
    }
}

fn ftype_from(code: u8) -> io::Result<FileType> {
    match code {
        0 => Ok(FileType::Regular),
        1 => Ok(FileType::Directory),
        _ => Err(invalid("bad file-type code".into())),
    }
}

impl Op {
    /// Encodes the op into a request payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        match self {
            Op::Create(p) => {
                b.push(OP_CREATE);
                put_str(&mut b, p);
            }
            Op::Mkdir(p) => {
                b.push(OP_MKDIR);
                put_str(&mut b, p);
            }
            Op::Lookup(p) => {
                b.push(OP_LOOKUP);
                put_str(&mut b, p);
            }
            Op::Write(ino, off, data) => {
                b.push(OP_WRITE);
                put_u32(&mut b, *ino);
                put_u64(&mut b, *off);
                put_bytes(&mut b, data);
            }
            Op::Read(ino, off, len) => {
                b.push(OP_READ);
                put_u32(&mut b, *ino);
                put_u64(&mut b, *off);
                put_u32(&mut b, *len);
            }
            Op::Truncate(ino, size) => {
                b.push(OP_TRUNCATE);
                put_u32(&mut b, *ino);
                put_u64(&mut b, *size);
            }
            Op::Unlink(p) => {
                b.push(OP_UNLINK);
                put_str(&mut b, p);
            }
            Op::Rmdir(p) => {
                b.push(OP_RMDIR);
                put_str(&mut b, p);
            }
            Op::Rename(f, t) => {
                b.push(OP_RENAME);
                put_str(&mut b, f);
                put_str(&mut b, t);
            }
            Op::Link(e, n) => {
                b.push(OP_LINK);
                put_str(&mut b, e);
                put_str(&mut b, n);
            }
            Op::Metadata(ino) => {
                b.push(OP_METADATA);
                put_u32(&mut b, *ino);
            }
            Op::Readdir(p) => {
                b.push(OP_READDIR);
                put_str(&mut b, p);
            }
            Op::Sync => b.push(OP_SYNC),
            Op::Statfs => b.push(OP_STATFS),
        }
        b
    }

    /// Decodes a request payload.
    pub fn decode(payload: &[u8]) -> io::Result<Op> {
        let mut r = Reader::new(payload);
        let op = match r.u8()? {
            OP_CREATE => Op::Create(r.str()?),
            OP_MKDIR => Op::Mkdir(r.str()?),
            OP_LOOKUP => Op::Lookup(r.str()?),
            OP_WRITE => Op::Write(r.u32()?, r.u64()?, r.bytes()?),
            OP_READ => Op::Read(r.u32()?, r.u64()?, r.u32()?),
            OP_TRUNCATE => Op::Truncate(r.u32()?, r.u64()?),
            OP_UNLINK => Op::Unlink(r.str()?),
            OP_RMDIR => Op::Rmdir(r.str()?),
            OP_RENAME => Op::Rename(r.str()?, r.str()?),
            OP_LINK => Op::Link(r.str()?, r.str()?),
            OP_METADATA => Op::Metadata(r.u32()?),
            OP_READDIR => Op::Readdir(r.str()?),
            OP_SYNC => Op::Sync,
            OP_STATFS => Op::Statfs,
            op => return Err(invalid(format!("unknown opcode {op}"))),
        };
        r.done()?;
        Ok(op)
    }
}

/// Encodes a result — `Ok(outcome)` or `Err(fs error)` — into a response
/// payload.
pub fn encode_response(result: &FsResult<Outcome>) -> Vec<u8> {
    let mut b = Vec::with_capacity(16);
    match result {
        Err(e) => {
            b.push(e.wire_code());
            put_str(&mut b, &e.to_string());
        }
        Ok(outcome) => {
            b.push(0);
            match outcome {
                Outcome::Unit => b.push(REPLY_UNIT),
                Outcome::Ino(ino) => {
                    b.push(REPLY_INO);
                    put_u32(&mut b, *ino);
                }
                Outcome::Data(d) => {
                    b.push(REPLY_DATA);
                    put_bytes(&mut b, d);
                }
                Outcome::Metadata(m) => {
                    b.push(REPLY_METADATA);
                    put_u32(&mut b, m.ino);
                    b.push(ftype_code(m.ftype));
                    put_u64(&mut b, m.size);
                    put_u32(&mut b, m.nlink);
                    put_u16(&mut b, m.mode);
                    put_u64(&mut b, m.mtime);
                    put_u64(&mut b, m.atime);
                    put_u64(&mut b, m.ctime);
                }
                Outcome::Entries(es) => {
                    b.push(REPLY_ENTRIES);
                    put_u32(&mut b, es.len() as u32);
                    for e in es {
                        put_u32(&mut b, e.ino);
                        b.push(ftype_code(e.ftype));
                        put_str(&mut b, &e.name);
                    }
                }
                Outcome::Statfs(s) => {
                    b.push(REPLY_STATFS);
                    put_u64(&mut b, s.total_bytes);
                    put_u64(&mut b, s.live_bytes);
                    put_u64(&mut b, s.num_files);
                }
            }
        }
    }
    b
}

/// Decodes a response payload back into the result it carries.
pub fn decode_response(payload: &[u8]) -> io::Result<FsResult<Outcome>> {
    let mut r = Reader::new(payload);
    let status = r.u8()?;
    if status != 0 {
        let detail = r.str()?;
        r.done()?;
        return Ok(Err(FsError::from_wire(status, &detail)));
    }
    let outcome = match r.u8()? {
        REPLY_UNIT => Outcome::Unit,
        REPLY_INO => Outcome::Ino(r.u32()?),
        REPLY_DATA => Outcome::Data(r.bytes()?),
        REPLY_METADATA => Outcome::Metadata(Metadata {
            ino: r.u32()?,
            ftype: ftype_from(r.u8()?)?,
            size: r.u64()?,
            nlink: r.u32()?,
            mode: r.u16()?,
            mtime: r.u64()?,
            atime: r.u64()?,
            ctime: r.u64()?,
        }),
        REPLY_ENTRIES => {
            let n = r.u32()? as usize;
            let mut es = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                es.push(DirEntry {
                    ino: r.u32()?,
                    ftype: ftype_from(r.u8()?)?,
                    name: r.str()?,
                });
            }
            Outcome::Entries(es)
        }
        REPLY_STATFS => Outcome::Statfs(StatFs {
            total_bytes: r.u64()?,
            live_bytes: r.u64()?,
            num_files: r.u64()?,
        }),
        tag => return Err(invalid(format!("unknown reply tag {tag}"))),
    };
    r.done()?;
    Ok(Ok(outcome))
}
