//! Observability wiring for the file system: per-operation simulated
//! latency histograms, trace-event emission, and metrics publication.
//!
//! Everything here is cheap when observability is off (the default):
//! [`Lfs::timed`] is one `Option` check and [`Lfs::emit`] one branch, so
//! the hot paths pay nothing for the instrumentation.

use std::sync::Arc;

use blockdev::{DeviceObs, QueueDevice};
use lfs_obs::{Histogram, MetricsSnapshot, Obs, Registry, TraceEvent};
use vfs::FsResult;

use crate::fs::Lfs;
use crate::stats::{BlockKind, LfsStats};
use crate::usage::SegState;

/// Pre-registered per-operation latency histograms. Samples are the
/// simulated disk time (`busy_ns` delta) each operation consumed,
/// including any flush or cleaning it triggered.
#[derive(Clone, Debug)]
pub(crate) struct OpHists {
    pub create: Arc<Histogram>,
    pub write: Arc<Histogram>,
    pub read: Arc<Histogram>,
    pub unlink: Arc<Histogram>,
    pub flush: Arc<Histogram>,
    pub checkpoint: Arc<Histogram>,
    pub clean: Arc<Histogram>,
}

impl OpHists {
    fn register(reg: &Registry) -> OpHists {
        OpHists {
            create: reg.histogram("op.create_ns"),
            write: reg.histogram("op.write_ns"),
            read: reg.histogram("op.read_ns"),
            unlink: reg.histogram("op.unlink_ns"),
            flush: reg.histogram("op.flush_ns"),
            checkpoint: reg.histogram("op.checkpoint_ns"),
            clean: reg.histogram("op.clean_ns"),
        }
    }
}

/// The file system's observability state: the shared [`Obs`] handle plus
/// handles registered against it. Default is fully off.
#[derive(Clone, Debug, Default)]
pub(crate) struct FsObs {
    pub obs: Obs,
    pub ops: Option<OpHists>,
}

impl<D: QueueDevice> Lfs<D> {
    /// Attaches an observability handle: registers per-operation and
    /// device histograms (when `obs` carries a registry) and routes trace
    /// events into `obs.trace`. Call any time after `format`/`mount`; use
    /// [`Lfs::mount_with_obs`](crate::Lfs) to also capture recovery
    /// events.
    pub fn set_obs(&mut self, obs: Obs) {
        if let Some(reg) = &obs.registry {
            self.obs.ops = Some(OpHists::register(reg));
            self.dev.attach_obs(DeviceObs::register(reg, "disk"));
        } else {
            self.obs.ops = None;
        }
        self.obs.obs = obs;
    }

    /// The attached observability handle (off by default).
    pub fn obs(&self) -> &Obs {
        &self.obs.obs
    }

    /// Runs `f`, recording its simulated disk time (`busy_ns` delta) into
    /// the histogram `pick` selects. One `Option` check when metrics are
    /// off. Nested timings (a write that triggers a flush that triggers a
    /// clean) each record their own inclusive sample.
    #[inline]
    pub(crate) fn timed<T>(
        &mut self,
        pick: impl FnOnce(&OpHists) -> &Arc<Histogram>,
        f: impl FnOnce(&mut Self) -> FsResult<T>,
    ) -> FsResult<T> {
        let Some(hist) = self.obs.ops.as_ref().map(|ops| pick(ops).clone()) else {
            return f(self);
        };
        let t0 = self.dev.stats().busy_ns;
        let r = f(self);
        hist.record(self.dev.stats().busy_ns.saturating_sub(t0));
        r
    }

    /// Emits a trace event stamped with the device's simulated clock.
    /// One branch when tracing is off; `make` never runs then.
    #[inline]
    pub(crate) fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        let trace = &self.obs.obs.trace;
        if trace.is_on() {
            trace.emit(self.dev.stats().busy_ns, make);
        }
    }

    /// Publishes the current [`LfsStats`] and device [`blockdev::IoStats`]
    /// into the attached registry (no-op without one). Counters are
    /// *stored*, not re-accumulated, so the registry mirrors the single
    /// authoritative accumulation in `LfsStats` — a snapshot therefore
    /// reproduces Table 2 / Table 4 figures exactly.
    pub fn publish_metrics(&self) {
        let Some(reg) = self.obs.obs.registry.as_deref() else {
            return;
        };
        self.stats().publish(reg);
        let d = self.dev.stats();
        reg.counter("disk.reads").store(d.reads);
        reg.counter("disk.writes").store(d.writes);
        reg.counter("disk.bytes_read").store(d.bytes_read);
        reg.counter("disk.bytes_written").store(d.bytes_written);
        reg.counter("disk.seeks").store(d.seeks);
        reg.counter("disk.busy_ns").store(d.busy_ns);
        reg.counter("disk.sync_busy_ns").store(d.sync_busy_ns);
        reg.counter("disk.positioning_ns").store(d.positioning_ns);
        reg.counter("disk.service_ns").store(d.service_ns);
        if let Some(eff) = d.transfer_efficiency() {
            reg.gauge("disk.transfer_efficiency").set(eff);
        }
        // How far the cleaner is from its high-water target.
        reg.gauge("lfs.cleaner.backlog_segs").set(
            self.cfg
                .clean_high_water
                .saturating_sub(self.space.usage().clean_count()) as f64,
        );
        // Active selection policy, as a presence marker (`lfstop` probes
        // the known names): counters carry no string labels.
        reg.counter(&format!("lfs.cleaner.policy.{}", self.cfg.policy.name()))
            .store(1);
        let q = self.dev.queue_stats();
        if q.submitted > 0 {
            reg.counter("queue.submitted").store(q.submitted);
            reg.counter("queue.fences").store(q.fences);
            if let Some(mean) = q.mean_in_flight_depth() {
                reg.gauge("queue.mean_in_flight_depth").set(mean);
            }
        }
        // On a multi-volume set, publish per-shard counters next to the
        // aggregates so an operator can spot a skewed or starved disk.
        let shards = self.shard_count();
        if shards > 1 {
            let shard_of = |seg| self.shard_of_seg(seg);
            let clean_per_shard = self.space.per_shard(shards, &shard_of, &[SegState::Clean]);
            for (i, &clean) in clean_per_shard.iter().enumerate() {
                let pfx = format!("shard.{i}");
                if let Some(s) = self.dev.shard_stats(i) {
                    reg.counter(&format!("{pfx}.reads")).store(s.reads);
                    reg.counter(&format!("{pfx}.writes")).store(s.writes);
                    reg.counter(&format!("{pfx}.bytes_read"))
                        .store(s.bytes_read);
                    reg.counter(&format!("{pfx}.bytes_written"))
                        .store(s.bytes_written);
                    reg.counter(&format!("{pfx}.busy_ns")).store(s.busy_ns);
                    reg.counter(&format!("{pfx}.seeks")).store(s.seeks);
                }
                if let Some(qs) = self.dev.shard_queue_stats(i) {
                    reg.counter(&format!("{pfx}.queue.submitted"))
                        .store(qs.submitted);
                    if let Some(mean) = qs.mean_in_flight_depth() {
                        reg.gauge(&format!("{pfx}.queue.mean_in_flight_depth"))
                            .set(mean);
                    }
                }
                reg.gauge(&format!("{pfx}.clean_segs")).set(clean as f64);
                reg.counter(&format!("{pfx}.cleaner.segments_cleaned"))
                    .store(self.space.cleaned_per_shard[i]);
            }
        }
    }

    /// Publishes current statistics and returns a metrics snapshot, or
    /// `None` when no registry is attached.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.publish_metrics();
        self.obs.obs.snapshot()
    }
}

impl BlockKind {
    /// Stable metric-name slug (`lfs.log_bytes.<slug>`).
    pub fn slug(self) -> &'static str {
        match self {
            BlockKind::Data => "data",
            BlockKind::Indirect => "indirect",
            BlockKind::Inode => "inode",
            BlockKind::Imap => "imap",
            BlockKind::Usage => "usage",
            BlockKind::Summary => "summary",
            BlockKind::DirLog => "dirlog",
        }
    }
}

impl LfsStats {
    /// Stores every statistic into `reg` under the `lfs.` prefix. See
    /// EXPERIMENTS.md ("Metrics snapshot schema") for the name list.
    pub fn publish(&self, reg: &Registry) {
        for kind in BlockKind::ALL {
            reg.counter(&format!("lfs.log_bytes.{}", kind.slug()))
                .store(self.log_bytes_new(kind));
            reg.counter(&format!("lfs.cleaner_log_bytes.{}", kind.slug()))
                .store(self.log_bytes_cleaner(kind));
        }
        reg.counter("lfs.checkpoints").store(self.checkpoints);
        reg.counter("lfs.group_commits").store(self.group_commits);
        reg.counter("lfs.partial_writes").store(self.partial_writes);
        reg.counter("lfs.flushes").store(self.flushes);
        for scope in crate::stats::FlushScope::ALL {
            let row = self.scope(scope);
            reg.counter(&format!("lfs.flushes.{}", scope.slug()))
                .store(row.flushes);
            reg.counter(&format!("lfs.partial_writes.{}", scope.slug()))
                .store(row.partial_writes);
        }
        reg.counter("lfs.padding_bytes").store(self.padding_bytes);
        reg.counter("lfs.fragments").store(self.fragments);
        reg.counter("lfs.fragment_blocks")
            .store(self.fragment_blocks);
        reg.counter("lfs.app_bytes_written")
            .store(self.app_bytes_written);
        reg.counter("lfs.flush_copy_bytes")
            .store(self.flush_copy_bytes);
        reg.counter("lfs.io_retries").store(self.io_retries);
        reg.counter("lfs.io_giveups").store(self.io_giveups);
        let c = &self.cleaner;
        reg.counter("lfs.cleaner.segments_cleaned")
            .store(c.segments_cleaned);
        reg.counter("lfs.cleaner.segments_empty")
            .store(c.segments_empty);
        reg.counter("lfs.cleaner.bytes_read").store(c.bytes_read);
        reg.counter("lfs.cleaner.read_requests")
            .store(c.read_requests);
        reg.counter("lfs.cleaner.bytes_written")
            .store(c.bytes_written);
        reg.counter("lfs.cleaner.passes").store(c.passes);
        reg.gauge("lfs.cleaner.utilization_sum")
            .set(c.utilization_sum);
        // Utilization-at-clean histogram: how full victims were when
        // chosen, the distribution Figure 6's bimodal argument is about.
        for (i, &n) in c.util_deciles.iter().enumerate() {
            reg.counter(&format!("lfs.cleaner.util_decile.{i}"))
                .store(n);
        }
    }
}
