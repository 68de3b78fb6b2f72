//! I/O statistics accumulated by the simulated devices.

/// Counters describing the I/O a device has serviced.
///
/// Times are in simulated nanoseconds. On devices without a timing model
/// ([`crate::MemDisk`], [`crate::FileDisk`]) all `*_ns` fields stay zero but
/// the operation and byte counters are still maintained, so write-cost style
/// metrics (bytes moved per byte of new data) can always be computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of read requests serviced.
    pub reads: u64,
    /// Number of write requests serviced.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Requests that required a mechanical seek (non-sequential access).
    pub seeks: u64,
    /// Total simulated time the disk arm was busy, in nanoseconds.
    pub busy_ns: u64,
    /// Portion of `busy_ns` spent on reads and synchronous writes — time an
    /// application actually waited for.
    pub sync_busy_ns: u64,
    /// Simulated time spent in seeks and rotational latency (the
    /// non-transfer component of `busy_ns`).
    pub positioning_ns: u64,
    /// Summed per-request residency: for each request, the simulated time
    /// from submission to completion. On a synchronous device a request is
    /// submitted the instant the arm picks it up, so `service_ns ==
    /// busy_ns` exactly. Under a submission queue a request can wait for
    /// the arm while earlier requests are serviced, so residencies overlap
    /// and `service_ns > busy_ns` — while `busy_ns` keeps counting each
    /// arm-busy nanosecond exactly once and never double-counts
    /// concurrently outstanding requests.
    pub service_ns: u64,
}

impl IoStats {
    /// True when every counter in `self` is at least as large as the
    /// corresponding counter in `other`, i.e. `self` is a later snapshot
    /// of the same device.
    pub fn dominates(&self, other: &IoStats) -> bool {
        self.reads >= other.reads
            && self.writes >= other.writes
            && self.bytes_read >= other.bytes_read
            && self.bytes_written >= other.bytes_written
            && self.seeks >= other.seeks
            && self.busy_ns >= other.busy_ns
            && self.sync_busy_ns >= other.sync_busy_ns
            && self.positioning_ns >= other.positioning_ns
            && self.service_ns >= other.service_ns
    }

    /// Returns the difference `self - earlier`, field by field, saturating
    /// at zero.
    ///
    /// Useful for measuring a single phase of a benchmark: snapshot before,
    /// snapshot after, subtract. Passing the snapshots in the wrong order
    /// trips a debug assertion; in release builds each field saturates to
    /// zero instead of wrapping to a garbage ~`u64::MAX` delta. Use
    /// [`IoStats::checked_since`] when the order is not statically known.
    #[must_use]
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        debug_assert!(
            self.dominates(earlier),
            "IoStats::since: snapshots passed in the wrong order \
             (earlier has larger counters than self)"
        );
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            sync_busy_ns: self.sync_busy_ns.saturating_sub(earlier.sync_busy_ns),
            positioning_ns: self.positioning_ns.saturating_sub(earlier.positioning_ns),
            service_ns: self.service_ns.saturating_sub(earlier.service_ns),
        }
    }

    /// Like [`IoStats::since`], but returns `None` instead of saturating
    /// when the snapshots are out of order.
    #[must_use]
    pub fn checked_since(&self, earlier: &IoStats) -> Option<IoStats> {
        if !self.dominates(earlier) {
            return None;
        }
        Some(IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            seeks: self.seeks - earlier.seeks,
            busy_ns: self.busy_ns - earlier.busy_ns,
            sync_busy_ns: self.sync_busy_ns - earlier.sync_busy_ns,
            positioning_ns: self.positioning_ns - earlier.positioning_ns,
            service_ns: self.service_ns - earlier.service_ns,
        })
    }

    /// Adds `delta` into `self`, field by field.
    pub fn accumulate(&mut self, delta: &IoStats) {
        self.reads += delta.reads;
        self.writes += delta.writes;
        self.bytes_read += delta.bytes_read;
        self.bytes_written += delta.bytes_written;
        self.seeks += delta.seeks;
        self.busy_ns += delta.busy_ns;
        self.sync_busy_ns += delta.sync_busy_ns;
        self.positioning_ns += delta.positioning_ns;
        self.service_ns += delta.service_ns;
    }

    /// Fraction of busy time spent transferring data (as opposed to
    /// positioning the arm). This is the paper's notion of how much of the
    /// disk's raw bandwidth is actually used.
    ///
    /// Returns `None` for an idle disk (`busy_ns == 0`): a phase that did
    /// no I/O has no bandwidth-utilization figure, rather than a
    /// misleading "100% of bandwidth used".
    pub fn transfer_efficiency(&self) -> Option<f64> {
        if self.busy_ns == 0 {
            return None;
        }
        Some(1.0 - self.positioning_ns as f64 / self.busy_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fields() {
        let a = IoStats {
            reads: 10,
            writes: 20,
            bytes_read: 100,
            bytes_written: 200,
            seeks: 5,
            busy_ns: 1000,
            sync_busy_ns: 600,
            positioning_ns: 400,
            service_ns: 1500,
        };
        let b = IoStats {
            reads: 4,
            writes: 8,
            bytes_read: 40,
            bytes_written: 80,
            seeks: 2,
            busy_ns: 300,
            sync_busy_ns: 100,
            positioning_ns: 100,
            service_ns: 350,
        };
        let d = a.since(&b);
        assert_eq!(d.reads, 6);
        assert_eq!(d.writes, 12);
        assert_eq!(d.bytes_read, 60);
        assert_eq!(d.bytes_written, 120);
        assert_eq!(d.seeks, 3);
        assert_eq!(d.busy_ns, 700);
        assert_eq!(d.sync_busy_ns, 500);
        assert_eq!(d.positioning_ns, 300);
        assert_eq!(d.service_ns, 1150);
    }

    /// Regression (ISSUE 3): an idle disk used to report 100% bandwidth
    /// utilization; it must report "no figure" instead.
    #[test]
    fn transfer_efficiency_of_idle_disk_is_none() {
        assert_eq!(IoStats::default().transfer_efficiency(), None);
    }

    #[test]
    fn transfer_efficiency_reflects_positioning_share() {
        let s = IoStats {
            busy_ns: 1000,
            positioning_ns: 250,
            ..IoStats::default()
        };
        let eff = s.transfer_efficiency().expect("busy disk has a figure");
        assert!((eff - 0.75).abs() < 1e-12);
    }

    /// Regression (ISSUE 3): out-of-order snapshots used to wrap to
    /// ~u64::MAX deltas in release builds. `since` now saturates (and
    /// debug-asserts), and `checked_since` reports the misuse.
    #[test]
    fn checked_since_rejects_wrong_order() {
        let later = IoStats {
            reads: 10,
            busy_ns: 1000,
            ..IoStats::default()
        };
        let earlier = IoStats {
            reads: 4,
            busy_ns: 300,
            ..IoStats::default()
        };
        assert!(later.checked_since(&earlier).is_some());
        assert_eq!(earlier.checked_since(&later), None);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn since_saturates_in_release_on_wrong_order() {
        let later = IoStats {
            reads: 10,
            ..IoStats::default()
        };
        let earlier = IoStats {
            reads: 4,
            ..IoStats::default()
        };
        let d = earlier.since(&later);
        assert_eq!(d.reads, 0, "must saturate, not wrap to ~u64::MAX");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "wrong order")]
    fn since_panics_in_debug_on_wrong_order() {
        let later = IoStats {
            reads: 10,
            ..IoStats::default()
        };
        let earlier = IoStats {
            reads: 4,
            ..IoStats::default()
        };
        let _ = earlier.since(&later);
    }
}
