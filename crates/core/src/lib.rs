#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Sprite LFS — a log-structured file system.
//!
//! This crate is the heart of the reproduction: a from-scratch
//! implementation of the file system described in Rosenblum & Ousterhout,
//! *The Design and Implementation of a Log-Structured File System*
//! (SOSP 1991). All eight on-disk data structures from the paper's Table 1
//! are implemented:
//!
//! | Structure | Module | Paper § |
//! |---|---|---|
//! | Inode | [`inode`] | 3.1 |
//! | Inode map | [`inodemap`] | 3.1 |
//! | Indirect block | [`inode`] | 3.1 |
//! | Segment summary | [`summary`] | 3.2 |
//! | Segment usage table | [`usage`] | 3.6 |
//! | Superblock | [`superblock`] | — |
//! | Checkpoint region | [`checkpoint`] | 4.1 |
//! | Directory change log | [`dirlog`] | 4.2 |
//!
//! The disk is divided into fixed-size *segments* (512 KB or 1 MB by
//! default); all modifications are buffered in a file cache and written
//! sequentially to the current segment in large *partial writes*, each
//! preceded by a summary block. Free space is regenerated by the
//! [`cleaner`], which supports both the greedy policy (the default) and
//! the paper's cost-benefit policy with age-sorting. Crash recovery uses dual
//! checkpoint regions plus roll-forward over the log tail ([`recovery`]).
//!
//! The public entry point is [`Lfs`], which implements
//! [`vfs::FileSystem`] over any [`blockdev::BlockDevice`].
//!
//! # Examples
//!
//! ```
//! use blockdev::MemDisk;
//! use lfs_core::{Lfs, LfsConfig};
//! use vfs::FileSystem;
//!
//! let disk = MemDisk::new(4096); // 16 MB
//! let mut fs = Lfs::format(disk, LfsConfig::small()).unwrap();
//! fs.mkdir("/dir1").unwrap();
//! let ino = fs.write_file("/dir1/file1", b"hello from the log").unwrap();
//! fs.sync().unwrap();
//! assert_eq!(fs.read_to_vec(ino).unwrap(), b"hello from the log");
//! ```

mod cache;
#[cfg(test)]
mod cache_tests;
pub mod check;
pub mod checkpoint;
pub mod cleaner;
mod codec;
pub mod config;
mod dir;
pub mod dirlog;
mod flush;
mod fs;
pub mod inode;
pub mod inodemap;
pub mod invariants;
pub mod layout;
mod log;
mod meta;
mod obs;
pub mod ordering;
pub mod recovery;
pub mod shared;
pub mod stats;
pub mod summary;
pub mod superblock;
pub mod usage;

pub use check::CheckReport;
pub use codec::{block_checksum, checksum};
pub use config::{CleaningPolicy, LfsConfig};
pub use fs::Lfs;
pub use invariants::{InvariantReport, InvariantSuite};
pub use layout::{DiskAddr, NIL_ADDR};
pub use ordering::{CheckpointReady, Flush};
pub use shared::{SharedLfs, SharedReadStats};
pub use stats::{BlockKind, CleanerStats, LfsStats};
