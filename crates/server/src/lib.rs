#![warn(missing_docs)]

//! Network front end for the log-structured file system.
//!
//! Three pieces:
//!
//! * [`protocol`] — `lfs-wire/1`, a small framed request/response
//!   protocol: length-prefixed frames, each carrying one [`vfs::Op`] or
//!   its result in the [`vfs::wire`] encoding (numeric error codes from
//!   [`vfs::FsError::wire_code`]).
//! * `pool` — a bounded FIFO thread pool, one job per connection; the
//!   bound doubles as connection admission control.
//! * [`server`] — the TCP accept loop ([`serve`]) and the matching
//!   [`Client`], which implements [`vfs::FileSystem`] so workload
//!   generators can drive a remote mount unchanged.
//!
//! The server applies every decoded [`vfs::Op`] to an
//! [`lfs_core::SharedLfs`], so reads from concurrent connections are
//! served lock-free from the core's block cache while mutations
//! serialize through the writer lane (see `lfs_core::shared`).

mod pool;
pub mod protocol;
pub mod server;

pub use server::{serve, Client, ServerConfig, ServerHandle};
