//! Builds the configuration the server actually stacks —
//! `Client` → loopback TCP → `serve` → `SharedLfs` → `Lfs` → `QueuedDev`
//! → `FileDisk` — plain for measured runs and with [`TimedDev`] at both
//! device boundaries for traced ones, and reads its public counters.

use std::path::{Path, PathBuf};

use blockdev::{FileDisk, IoStats, QueueDevice, QueueStats, QueuedDev, BLOCK_SIZE};
use lfs_core::{Lfs, LfsConfig, LfsStats, SharedLfs, SharedReadStats};
use lfs_server::{serve, Client, ServerConfig, ServerHandle};

use crate::timed::{DevSpan, TimedDev};

/// Submission-ring depth of the measured stack.
pub const QUEUE_DEPTH: usize = 4;
/// Server worker threads, and therefore connections served at once.
pub const SERVER_WORKERS: usize = 2;

/// The measured device stack.
pub type PlainDev = QueuedDev<FileDisk>;
/// The traced device stack: `queue` spans outside, `dev` spans inside.
pub type TracedDev = TimedDev<QueuedDev<TimedDev<FileDisk>>>;

/// Device spans of one traced run, by layer.
#[derive(Default)]
pub struct DevTrace {
    /// Spans around `QueuedDev` (they contain the `dev` spans).
    pub queue: Vec<DevSpan>,
    /// Spans around `FileDisk`.
    pub dev: Vec<DevSpan>,
    /// `BlockDevice::sync` calls that reached `FileDisk`.
    pub dev_sync_calls: u64,
}

/// A device stack the benchmark can mount: plain or traced.
pub trait BenchDev: QueueDevice + Send + Sized + 'static {
    /// Creates (truncating) an image of `blocks` blocks at `path`.
    fn create(path: &Path, blocks: u64) -> blockdev::Result<Self>;
    /// Opens the existing image at `path`.
    fn open(path: &Path) -> blockdev::Result<Self>;
    /// Drains the device spans recorded so far (empty on the plain stack).
    fn take_trace(&mut self) -> DevTrace;
}

impl BenchDev for PlainDev {
    fn create(path: &Path, blocks: u64) -> blockdev::Result<Self> {
        Ok(QueuedDev::new(FileDisk::create(path, blocks)?, QUEUE_DEPTH))
    }

    fn open(path: &Path) -> blockdev::Result<Self> {
        Ok(QueuedDev::new(FileDisk::open(path)?, QUEUE_DEPTH))
    }

    fn take_trace(&mut self) -> DevTrace {
        DevTrace::default()
    }
}

impl BenchDev for TracedDev {
    fn create(path: &Path, blocks: u64) -> blockdev::Result<Self> {
        let disk = TimedDev::new(FileDisk::create(path, blocks)?);
        Ok(TimedDev::new(QueuedDev::new(disk, QUEUE_DEPTH)))
    }

    fn open(path: &Path) -> blockdev::Result<Self> {
        let disk = TimedDev::new(FileDisk::open(path)?);
        Ok(TimedDev::new(QueuedDev::new(disk, QUEUE_DEPTH)))
    }

    fn take_trace(&mut self) -> DevTrace {
        let queue = self.take_spans();
        let disk = self.inner_mut().inner_mut();
        DevTrace {
            queue,
            dev: disk.take_spans(),
            dev_sync_calls: disk.sync_calls(),
        }
    }
}

/// Size and configuration of one workload's file system.
#[derive(Clone, Copy)]
pub struct Geometry {
    /// Image size in MB.
    pub image_mb: u64,
    /// Mount configuration.
    pub cfg: LfsConfig,
}

impl Geometry {
    /// Image size in blocks.
    pub fn blocks(&self) -> u64 {
        self.image_mb * (1 << 20) / BLOCK_SIZE as u64
    }
}

/// The program's public counters at one instant.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    /// `lfs-core` statistics.
    pub lfs: LfsStats,
    /// `SharedLfs` read-side counters (zero on a bare `Lfs`).
    pub shared: SharedReadStats,
    /// `FileDisk` request counters, seen through the ring.
    pub io: IoStats,
    /// Submission-ring counters.
    pub queue: QueueStats,
}

/// Counters of a bare mount.
pub fn core_counters<D: QueueDevice>(fs: &Lfs<D>) -> Counters {
    Counters {
        lfs: *fs.stats(),
        shared: SharedReadStats::default(),
        io: fs.device().stats(),
        queue: fs.device().queue_stats(),
    }
}

/// Counters of a shared mount, read together on the writer lane.
pub fn shared_counters<D: QueueDevice>(fs: &SharedLfs<D>) -> Counters {
    let lfs = fs.stats();
    let (io, queue) = fs.with_fs(|fs| (fs.device().stats(), fs.device().queue_stats()));
    Counters {
        lfs,
        shared: fs.shared_stats(),
        io,
        queue,
    }
}

/// A scratch image file, removed on drop.
pub struct Image {
    path: PathBuf,
}

impl Image {
    /// Reserves `<dir>/<tag>-<pid>.img` (creating `dir`).
    pub fn new(dir: &Path, tag: &str) -> std::io::Result<Image> {
        std::fs::create_dir_all(dir)?;
        Ok(Image {
            path: dir.join(format!("{tag}-{}.img", std::process::id())),
        })
    }

    /// Where the image lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// File-system type holding `path` (from `/proc/self/mountinfo`), or
/// `unknown`: latencies on tmpfs and on a disk are not comparable, so
/// every result records which it was.
pub fn fs_type_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// A formatted shared mount, optionally behind the TCP server.
pub struct Mount<D: BenchDev> {
    /// The shared mount.
    pub fs: SharedLfs<D>,
    server: Option<ServerHandle>,
}

impl<D: BenchDev> Mount<D> {
    /// Formats a fresh image at `path`; with `tcp`, also serves it on a
    /// loopback port.
    pub fn format(path: &Path, geo: Geometry, tcp: bool) -> Result<Mount<D>, String> {
        let dev = D::create(path, geo.blocks()).map_err(|e| format!("create image: {e}"))?;
        let fs = SharedLfs::format(dev, geo.cfg).map_err(|e| format!("format: {e}"))?;
        let server = if tcp {
            let cfg = ServerConfig {
                workers: SERVER_WORKERS,
                queue_cap: 16,
            };
            Some(serve(fs.clone(), "127.0.0.1:0", cfg).map_err(|e| format!("serve: {e}"))?)
        } else {
            None
        };
        Ok(Mount { fs, server })
    }

    /// A new connection to the server.
    pub fn connect(&self) -> Result<Client, String> {
        let server = self.server.as_ref().ok_or("mount is not served")?;
        Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Connections the server has accepted (0 when not served).
    pub fn connections(&self) -> u64 {
        self.server.as_ref().map_or(0, |s| s.connections())
    }

    /// Stops the server (if any) and unwraps the mount. Every `Client`
    /// and handle clone must be gone by now.
    pub fn into_lfs(mut self) -> Result<Lfs<D>, String> {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.fs
            .into_inner()
            .map_err(|_| "mount still has live handles".to_string())
    }
}
