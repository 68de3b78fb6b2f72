//! Golden bytes of `lfs-wire/1`: the exact payload of every request, of
//! every reply shape and of one error response, and that each decodes
//! back to what produced it. Any change to the wire format fails here.

use lfs_server::protocol::{decode_response, encode_response, Reply, Request};
use vfs::{DirEntry, FileType, FsError, Metadata, StatFs};

/// Bytes from a hex string; spaces separate fields and are ignored.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn every_request_has_pinned_bytes_and_decodes_back() {
    let golden = [
        (Request::Create("/a".into()), "01 0200 2f61"),
        (Request::Mkdir("/d".into()), "02 0200 2f64"),
        (Request::Lookup("/d/a".into()), "03 0400 2f642f61"),
        (
            Request::Write(7, 4096, vec![1, 2, 3]),
            "04 07000000 0010000000000000 03000000 010203",
        ),
        (
            Request::Read(9, 65536, 512),
            "05 09000000 0000010000000000 00020000",
        ),
        (Request::Truncate(3, 12), "06 03000000 0c00000000000000"),
        (Request::Unlink("/x".into()), "07 0200 2f78"),
        (Request::Rmdir("/d".into()), "08 0200 2f64"),
        (
            Request::Rename("/a".into(), "/b".into()),
            "09 0200 2f61 0200 2f62",
        ),
        (
            Request::Link("/a".into(), "/l".into()),
            "0a 0200 2f61 0200 2f6c",
        ),
        (Request::Metadata(2), "0b 02000000"),
        (Request::Readdir("/".into()), "0c 0100 2f"),
        (Request::Sync, "0d"),
        (Request::Statfs, "0e"),
    ];
    for (req, bytes) in golden {
        let bytes = hex(bytes);
        assert_eq!(req.encode(), bytes, "{req:?}");
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }
}

#[test]
fn every_reply_and_an_error_have_pinned_bytes_and_decode_back() {
    let golden = [
        (Reply::Unit, "00 00"),
        (Reply::Ino(42), "00 01 2a000000"),
        (Reply::Data(vec![0xaa, 0xbb]), "00 02 02000000 aabb"),
        (
            Reply::Metadata(Metadata {
                ino: 5,
                ftype: FileType::Regular,
                size: 123,
                nlink: 2,
                mode: 0o644,
                mtime: 9,
                atime: 10,
                ctime: 11,
            }),
            "00 03 05000000 00 7b00000000000000 02000000 a401 \
             0900000000000000 0a00000000000000 0b00000000000000",
        ),
        (
            Reply::Entries(vec![
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
            ]),
            "00 04 02000000 02000000 00 0100 61 03000000 01 0100 64",
        ),
        (
            Reply::Statfs(StatFs {
                total_bytes: 100,
                live_bytes: 42,
                num_files: 7,
            }),
            "00 05 6400000000000000 2a00000000000000 0700000000000000",
        ),
    ];
    for (reply, bytes) in golden {
        let bytes = hex(bytes);
        assert_eq!(encode_response(&Ok(reply.clone())), bytes, "{reply:?}");
        assert_eq!(decode_response(&bytes).unwrap().unwrap(), reply);
    }

    let mut bytes = hex("01 1900");
    bytes.extend_from_slice(b"no such file or directory");
    assert_eq!(encode_response(&Err(FsError::NotFound)), bytes);
    assert!(matches!(
        decode_response(&bytes).unwrap(),
        Err(FsError::NotFound)
    ));
}
