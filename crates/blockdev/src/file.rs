//! An image-file-backed block device for the command-line tools.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, IoSlice, IoSliceMut, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::device::{check_request, BlockDevice, WriteKind};
use crate::error::Result;
use crate::stats::IoStats;
use crate::BLOCK_SIZE;

/// A block device stored in a regular file.
///
/// Used by `mklfs`, `lfsdump`, and `lfsck` so that LFS images survive across
/// tool invocations. No timing model; operation counters only.
pub struct FileDisk {
    file: File,
    num_blocks: u64,
    stats: IoStats,
    obs: Option<crate::DeviceObs>,
}

impl FileDisk {
    /// Creates (or truncates) an image file of `num_blocks` blocks.
    pub fn create<P: AsRef<Path>>(path: P, num_blocks: u64) -> Result<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(num_blocks * BLOCK_SIZE as u64)?;
        Ok(FileDisk {
            file,
            num_blocks,
            stats: IoStats::default(),
            obs: None,
        })
    }

    /// Opens an existing image file; its size must be block-aligned.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FileDisk> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % BLOCK_SIZE as u64 != 0 {
            return Err(crate::BlockError::Misaligned { len: len as usize });
        }
        Ok(FileDisk {
            file,
            num_blocks: len / BLOCK_SIZE as u64,
            stats: IoStats::default(),
            obs: None,
        })
    }
}

impl BlockDevice for FileDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
        check_request(self.num_blocks, start, buf.len())?;
        // Positioned I/O: one `pread` per request, no separate seek.
        self.file.read_exact_at(buf, start * BLOCK_SIZE as u64)?;
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
        if let Some(obs) = &self.obs {
            obs.record(true, 0); // no timing model: count the request only
        }
        Ok(())
    }

    fn read_run_scatter(&mut self, start: u64, bufs: &mut [&mut [u8]]) -> Result<()> {
        let len = bufs.len() * BLOCK_SIZE;
        check_request(self.num_blocks, start, len)?;
        if let Some(b) = bufs.iter().find(|b| b.len() != BLOCK_SIZE) {
            return Err(crate::BlockError::Misaligned { len: b.len() });
        }
        self.file.seek(SeekFrom::Start(start * BLOCK_SIZE as u64))?;
        // One vectored read straight into the callers' buffers; a short
        // read (the kernel caps the slices per call) resumes mid-buffer.
        let mut done = 0;
        while done < len {
            let mut skip = done % BLOCK_SIZE;
            let mut slices: Vec<IoSliceMut<'_>> = bufs[done / BLOCK_SIZE..]
                .iter_mut()
                .map(|b| IoSliceMut::new(&mut b[std::mem::take(&mut skip)..]))
                .collect();
            match self.file.read_vectored(&mut slices) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.stats.reads += 1;
        self.stats.bytes_read += len as u64;
        if let Some(obs) = &self.obs {
            obs.record(true, 0); // no timing model: count the request only
        }
        Ok(())
    }

    fn write_blocks(&mut self, start: u64, buf: &[u8], _kind: WriteKind) -> Result<()> {
        check_request(self.num_blocks, start, buf.len())?;
        self.file.write_all_at(buf, start * BLOCK_SIZE as u64)?;
        self.stats.writes += 1;
        self.stats.bytes_written += buf.len() as u64;
        if let Some(obs) = &self.obs {
            obs.record(false, 0); // no timing model: count the request only
        }
        Ok(())
    }

    fn write_run_gather(&mut self, start: u64, bufs: &[&[u8]], _kind: WriteKind) -> Result<()> {
        let count = crate::device::check_gather(self.num_blocks, start, bufs)?;
        let len = count as usize * BLOCK_SIZE;
        self.file.seek(SeekFrom::Start(start * BLOCK_SIZE as u64))?;
        let slices: Vec<IoSlice<'_>> = bufs.iter().map(|b| IoSlice::new(b)).collect();
        let mut written = self.file.write_vectored(&slices)?;
        if written < len {
            // Rare partial vectored write: finish with per-slice
            // `write_all` from the point reached (the cursor already
            // advanced by `written`).
            for b in bufs {
                if written >= b.len() {
                    written -= b.len();
                    continue;
                }
                self.file.write_all(&b[written..])?;
                written = 0;
            }
        }
        self.stats.writes += 1;
        self.stats.bytes_written += len as u64;
        if let Some(obs) = &self.obs {
            obs.record(false, 0); // no timing model: count the request only
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn attach_obs(&mut self, obs: crate::DeviceObs) {
        self.obs = Some(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_reopen_read() {
        let dir = std::env::temp_dir().join(format!("blockdev-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img");
        {
            let mut d = FileDisk::create(&path, 8).unwrap();
            let b = [0x5au8; BLOCK_SIZE];
            d.write_block(3, &b, WriteKind::Sync).unwrap();
            d.sync().unwrap();
        }
        {
            let mut d = FileDisk::open(&path).unwrap();
            assert_eq!(d.num_blocks(), 8);
            let mut b = [0u8; BLOCK_SIZE];
            d.read_block(3, &mut b).unwrap();
            assert!(b.iter().all(|&x| x == 0x5a));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `FileDisk` seen through the trait's provided methods only.
    struct Defaults(FileDisk);

    impl BlockDevice for Defaults {
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
        fn read_blocks(&mut self, start: u64, buf: &mut [u8]) -> Result<()> {
            self.0.read_blocks(start, buf)
        }
        fn write_blocks(&mut self, start: u64, buf: &[u8], kind: WriteKind) -> Result<()> {
            self.0.write_blocks(start, buf, kind)
        }
        fn stats(&self) -> IoStats {
            self.0.stats()
        }
    }

    #[test]
    fn scatter_read_matches_the_bounce_default() {
        let dir = std::env::temp_dir().join(format!("blockdev-scatter-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img");
        const N: u64 = 12;
        let mut d = FileDisk::create(&path, N).unwrap();
        let image: Vec<u8> = (0..N as usize * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE * 31 + i % 251) as u8)
            .collect();
        d.write_blocks(0, &image, WriteKind::Sync).unwrap();
        let mut plain = Defaults(FileDisk::open(&path).unwrap());

        // Runs of every length at every start, the image's last block
        // included.
        for start in 0..N {
            for count in 1..=(N - start) as usize {
                let mut got = vec![vec![0xeeu8; BLOCK_SIZE]; count];
                let mut want = vec![vec![0x11u8; BLOCK_SIZE]; count];
                let before = d.stats();
                let mut bufs: Vec<&mut [u8]> = got.iter_mut().map(|b| &mut b[..]).collect();
                d.read_run_scatter(start, &mut bufs).unwrap();
                let mut bufs: Vec<&mut [u8]> = want.iter_mut().map(|b| &mut b[..]).collect();
                plain.read_run_scatter(start, &mut bufs).unwrap();
                assert_eq!(got, want, "run of {count} at {start}");
                let after = d.stats();
                assert_eq!(after.reads - before.reads, 1);
                assert_eq!(
                    after.bytes_read - before.bytes_read,
                    (count * BLOCK_SIZE) as u64
                );
            }
        }

        // Past the end: refused like `read_blocks`, nothing read.
        let mut two = vec![vec![0u8; BLOCK_SIZE]; 2];
        let mut bufs: Vec<&mut [u8]> = two.iter_mut().map(|b| &mut b[..]).collect();
        let scatter = d.read_run_scatter(N - 1, &mut bufs).unwrap_err();
        let flat = d
            .read_blocks(N - 1, &mut vec![0u8; 2 * BLOCK_SIZE])
            .unwrap_err();
        assert_eq!(scatter.to_string(), flat.to_string());
        assert!(matches!(scatter, crate::BlockError::OutOfRange { .. }));
        assert!(matches!(
            d.read_run_scatter(0, &mut []),
            Err(crate::BlockError::Misaligned { len: 0 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gather_write_roundtrips_through_reopen() {
        let dir = std::env::temp_dir().join(format!("blockdev-gather-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img");
        let a = vec![0x11u8; BLOCK_SIZE];
        let b = vec![0x22u8; 2 * BLOCK_SIZE];
        let c = vec![0x33u8; BLOCK_SIZE];
        {
            let mut d = FileDisk::create(&path, 8).unwrap();
            d.write_run_gather(3, &[&a, &b, &c], WriteKind::Async)
                .unwrap();
            let s = d.stats();
            assert_eq!(s.writes, 1);
            assert_eq!(s.bytes_written, 4 * BLOCK_SIZE as u64);
            d.sync().unwrap();
        }
        {
            let mut d = FileDisk::open(&path).unwrap();
            let mut back = vec![0u8; 4 * BLOCK_SIZE];
            d.read_blocks(3, &mut back).unwrap();
            assert_eq!(&back[..BLOCK_SIZE], a.as_slice());
            assert_eq!(&back[BLOCK_SIZE..3 * BLOCK_SIZE], b.as_slice());
            assert_eq!(&back[3 * BLOCK_SIZE..], c.as_slice());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
