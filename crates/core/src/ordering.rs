//! Typestate encoding of the write-ordering protocol.
//!
//! Recovery (§4) is sound only if the log reaches the disk in a specific
//! order: a partial write's summary block is sealed over the checksums of
//! every block it covers *before* the chunk goes to the device, every
//! chunk is fenced to stable storage *before* a checkpoint region claims
//! to cover it, and the region itself is written payload-first,
//! header-last. PR 6's submission ring widened the set of reorderable
//! in-flight writes, so the protocol is now encoded in the type system
//! the way SquirrelFS does with its Soup-inspired typestate pattern: each
//! protocol stage is a zero-sized token type, every token has exactly one
//! forward transition, and the operations with crash-ordering
//! consequences demand the token that proves their preconditions ran.
//! A mis-ordered write path is not a bug to hunt with the model checker —
//! it does not compile.
//!
//! The stages, in legal order:
//!
//! 1. [`Flush<DataStaged>`] — a flush chunk's blocks are chosen and their
//!    per-block content checksums computed ([`Flush::stage`]).
//! 2. [`Flush<SummarySealed>`] — the summary block covering exactly those
//!    checksums has been rendered ([`Flush::seal_summary`]); only now may
//!    the chunk be handed to the device.
//! 3. [`Flush<DataWritten>`] — the chunk (summary + blocks, one gather
//!    request) has been issued ([`Flush::submitted`]). A flush's commit
//!    stage requires this token of its last chunk: only then does it
//!    advance the sequence number and the write points and clear the
//!    dirty bits of what it wrote, the inode-map and usage-table blocks'
//!    included. A flush that fails before that leaves them all dirty.
//! 4. [`CheckpointReady`] — an ordering barrier
//!    ([`blockdev::QueueDevice::fence`]) has drained every in-flight log
//!    write ([`Flush::fence`]). This token is the *only* way to reach
//!    [`crate::checkpoint::Checkpoint::write_ordered`], and it is
//!    consumed by it: one fence authorizes one checkpoint region write.
//!    A `sync` stops here: its fence is the commit, and it writes no
//!    region. The log counts a partial write as durable only once it
//!    has seen this token.
//!
//! A cleaner pass has one more edge. Its last chunk's summary lists the
//! victims the pass releases ([`Flush::release`] turns that chunk's token
//! into a [`Released<Listed>`]). Only the fence after it
//! ([`Released::fence`]) yields the [`Released<Fenced>`] without which
//! the space manager cannot make a victim clean. So every crash image
//! that holds a write into a reused victim also holds the chunk that
//! released it, and roll-forward meets the release before the reuse.
//!
//! Every token is zero-sized, `!Clone`, and constructible only at the
//! chain's entry point, so the protocol costs nothing at runtime and the
//! compiler rejects the reorderings the crash model checker would
//! otherwise have to search for. The orderings that must not compile are
//! pinned below as `compile_fail` doctests.
//!
//! # Examples
//!
//! The legal chain, end to end:
//!
//! ```
//! use blockdev::MemDisk;
//! use lfs_core::checkpoint::Checkpoint;
//! use lfs_core::layout::CR0_ADDR;
//! use lfs_core::ordering::Flush;
//!
//! let mut dev = MemDisk::new(256);
//! // ... stage a chunk's blocks and checksums ...
//! let staged = Flush::stage();
//! // ... render the summary block over those checksums ...
//! let sealed = staged.seal_summary();
//! // ... issue the chunk (summary + blocks) to the device ...
//! let written = sealed.submitted();
//! // Barrier: all log writes durable before the region claims them.
//! let ready = written.fence(&mut dev).unwrap();
//! let cp = Checkpoint {
//!     epoch: 1, seq: 1, timestamp: 0, cur_seg: 0, cur_off: 1,
//!     extra_write_points: vec![],
//!     imap_addrs: vec![], usage_addrs: vec![], live_bytes: vec![],
//! };
//! cp.write_ordered(&mut dev, CR0_ADDR, ready).unwrap();
//! assert_eq!(Checkpoint::read_from(&mut dev, CR0_ADDR).unwrap(), cp);
//! ```
//!
//! Fencing before the summary is sealed does not compile — there is no
//! ordering barrier a chunk without a summary could meaningfully pass:
//!
//! ```compile_fail
//! use blockdev::MemDisk;
//! use lfs_core::ordering::Flush;
//!
//! let mut dev = MemDisk::new(256);
//! let staged = Flush::stage();
//! let _ = staged.fence(&mut dev); // ERROR: no `fence` on Flush<DataStaged>
//! ```
//!
//! Submitting a chunk whose summary has not been sealed does not compile
//! (the summary must be rendered over the final checksums first):
//!
//! ```compile_fail
//! use lfs_core::ordering::Flush;
//!
//! let staged = Flush::stage();
//! let _ = staged.submitted(); // ERROR: no `submitted` on Flush<DataStaged>
//! ```
//!
//! Writing a checkpoint region from an unfenced flush does not compile —
//! a submitted-but-not-drained log could still reorder around the region:
//!
//! ```compile_fail
//! use blockdev::MemDisk;
//! use lfs_core::checkpoint::Checkpoint;
//! use lfs_core::layout::CR0_ADDR;
//! use lfs_core::ordering::Flush;
//!
//! let mut dev = MemDisk::new(256);
//! let written = Flush::stage().seal_summary().submitted();
//! let cp = Checkpoint {
//!     epoch: 1, seq: 1, timestamp: 0, cur_seg: 0, cur_off: 1,
//!     extra_write_points: vec![],
//!     imap_addrs: vec![], usage_addrs: vec![], live_bytes: vec![],
//! };
//! // ERROR: expected `CheckpointReady`, found `Flush<DataWritten>`
//! cp.write_ordered(&mut dev, CR0_ADDR, written).unwrap();
//! ```
//!
//! One fence cannot authorize two checkpoint writes — the token moves:
//!
//! ```compile_fail
//! use blockdev::MemDisk;
//! use lfs_core::checkpoint::Checkpoint;
//! use lfs_core::layout::{CR0_ADDR, CR1_ADDR};
//! use lfs_core::ordering::Flush;
//!
//! let mut dev = MemDisk::new(256);
//! let ready = Flush::stage().seal_summary().submitted().fence(&mut dev).unwrap();
//! let cp = Checkpoint {
//!     epoch: 1, seq: 1, timestamp: 0, cur_seg: 0, cur_off: 1,
//!     extra_write_points: vec![],
//!     imap_addrs: vec![], usage_addrs: vec![], live_bytes: vec![],
//! };
//! cp.write_ordered(&mut dev, CR0_ADDR, ready).unwrap();
//! cp.write_ordered(&mut dev, CR1_ADDR, ready).unwrap(); // ERROR: use of moved value
//! ```
//!
//! Releasing victims without the fence does not compile either: the
//! space manager takes only a `Released<Fenced>`.
//!
//! ```compile_fail
//! use lfs_core::ordering::{Fenced, Flush, Released};
//!
//! let listed = Flush::stage().seal_summary().submitted().release(vec![3]);
//! let _: Released<Fenced> = listed; // ERROR: expected `Released<Fenced>`
//! ```
//!
//! And a `CheckpointReady` cannot be minted out of thin air:
//!
//! ```compile_fail
//! use lfs_core::ordering::CheckpointReady;
//!
//! let _ = CheckpointReady { _sealed: () }; // ERROR: field is private
//! ```

use std::marker::PhantomData;

use blockdev::QueueDevice;

/// Stage marker: the chunk's blocks are chosen and their content
/// checksums computed, but no summary covers them yet.
pub struct DataStaged {
    _sealed: (),
}

/// Stage marker: the summary block has been rendered over the staged
/// checksums; the chunk is complete and may go to the device.
pub struct SummarySealed {
    _sealed: (),
}

/// Stage marker: the sealed chunk has been issued (possibly still in
/// flight on a submission ring).
pub struct DataWritten {
    _sealed: (),
}

/// A zero-sized witness that the flush protocol has reached stage `S`.
///
/// There is no way to construct one except [`Flush::stage`], and each
/// transition consumes its input, so a value of type `Flush<S>` is proof
/// that every earlier stage ran, in order, exactly once. See the module
/// docs for the protocol.
#[must_use = "a flush token carries the ordering proof — drop it and the protocol chain is broken"]
pub struct Flush<S> {
    _stage: PhantomData<S>,
}

impl Flush<DataStaged> {
    /// Enters the protocol: a chunk's blocks are staged and their
    /// per-block checksums computed.
    #[allow(clippy::new_without_default)]
    pub fn stage() -> Flush<DataStaged> {
        Flush {
            _stage: PhantomData,
        }
    }

    /// The summary block covering the staged checksums has been rendered.
    /// Only after this may the chunk be handed to the device.
    pub fn seal_summary(self) -> Flush<SummarySealed> {
        Flush {
            _stage: PhantomData,
        }
    }
}

impl Flush<SummarySealed> {
    /// The sealed chunk (summary first, then its blocks, one gather
    /// request) has been issued to the device.
    pub fn submitted(self) -> Flush<DataWritten> {
        Flush {
            _stage: PhantomData,
        }
    }
}

impl Flush<DataWritten> {
    /// A flush with nothing to write: the log already covers the cache,
    /// so the (vacuous) protocol is trivially satisfied. Crate-internal —
    /// external users must come through [`Flush::stage`].
    pub(crate) fn idle() -> Flush<DataWritten> {
        Flush {
            _stage: PhantomData,
        }
    }

    /// Issues the ordering barrier: every issued log write is applied and
    /// the device is idle before this returns. The resulting
    /// [`CheckpointReady`] is the only key to
    /// [`crate::checkpoint::Checkpoint::write_ordered`].
    pub fn fence<D: QueueDevice>(self, dev: &mut D) -> blockdev::Result<CheckpointReady> {
        dev.fence()?;
        Ok(CheckpointReady { _sealed: () })
    }
}

impl Flush<DataWritten> {
    /// The chunk just issued lists `segs` in its summary: a cleaner pass
    /// releases them, and they wait for the fence that covers it.
    pub fn release(self, segs: Vec<u32>) -> Released<Listed> {
        Released {
            segs,
            _stage: PhantomData,
        }
    }
}

/// Stage marker: the segments are listed in an issued chunk's summary.
pub struct Listed {
    _sealed: (),
}

/// Stage marker: a fence has drained the chunk that lists them.
pub struct Fenced {
    _sealed: (),
}

/// Segments a cleaner pass released, and how far their release has got:
/// [`Listed`] in an issued summary, then [`Fenced`] behind an ordering
/// barrier. Only a `Released<Fenced>` lets the space manager make them
/// clean, so no write can land in one before the chunk that released it
/// is durable.
#[must_use = "released segments stay pending until their fence"]
pub struct Released<S> {
    segs: Vec<u32>,
    _stage: PhantomData<S>,
}

impl Released<Listed> {
    /// Issues the ordering barrier after the chunk that lists the
    /// segments (see [`Flush::fence`]). Hands back the barrier's
    /// [`CheckpointReady`] too, for the log's durable counter.
    pub fn fence<D: QueueDevice>(
        self,
        dev: &mut D,
    ) -> blockdev::Result<(Released<Fenced>, CheckpointReady)> {
        dev.fence()?;
        let fenced = Released {
            segs: self.segs,
            _stage: PhantomData,
        };
        Ok((fenced, CheckpointReady { _sealed: () }))
    }
}

impl Released<Fenced> {
    /// A release read back from the log by roll-forward: the chunk that
    /// lists `segs` is on the disk, so it is as durable as a fence makes
    /// it.
    pub(crate) fn recovered(segs: Vec<u32>) -> Released<Fenced> {
        Released {
            segs,
            _stage: PhantomData,
        }
    }

    /// The released segments.
    pub fn segs(&self) -> &[u32] {
        &self.segs
    }
}

/// Witness that an ordering barrier has drained every issued log write.
///
/// Produced only by [`Flush::fence`] and consumed by
/// [`crate::checkpoint::Checkpoint::write_ordered`]: one fence, one
/// checkpoint region write.
#[must_use = "a fence that authorizes no checkpoint write is a lost ordering edge"]
pub struct CheckpointReady {
    _sealed: (),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens must stay zero-sized — the whole protocol erases at
    /// runtime.
    #[test]
    fn tokens_are_zero_cost() {
        assert_eq!(std::mem::size_of::<Flush<DataStaged>>(), 0);
        assert_eq!(std::mem::size_of::<Flush<SummarySealed>>(), 0);
        assert_eq!(std::mem::size_of::<Flush<DataWritten>>(), 0);
        assert_eq!(std::mem::size_of::<CheckpointReady>(), 0);
    }

    #[test]
    fn a_release_reaches_fenced_only_through_a_fence() {
        let mut dev = blockdev::MemDisk::new(8);
        let listed = Flush::stage()
            .seal_summary()
            .submitted()
            .release(vec![4, 1]);
        let (fenced, _ready) = listed.fence(&mut dev).unwrap();
        assert_eq!(fenced.segs(), [4, 1]);
    }

    #[test]
    fn legal_chain_reaches_checkpoint_ready() {
        let mut dev = blockdev::MemDisk::new(8);
        let ready = Flush::stage()
            .seal_summary()
            .submitted()
            .fence(&mut dev)
            .unwrap();
        let _ = ready;
    }
}
