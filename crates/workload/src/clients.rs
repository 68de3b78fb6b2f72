//! Closed-loop multi-client workload: N simulated clients, each a
//! deterministic state machine issuing open/read/write/unlink mixes
//! against any [`FileSystem`], with self-verifying file contents.
//!
//! Every client owns a private directory (`/cli<N>`) and tracks the
//! expected content of every file it has created (derived from a
//! deterministic seed), so *any* read can be verified byte-for-byte —
//! a torn, stale, or misdirected read under concurrency shows up as a
//! verification failure, not a silent wrong answer. The server
//! throughput gate runs thousands of these over one shared mount and
//! requires zero failures.

use rand::rngs::StdRng;
use rand::Rng;
use vfs::{FileSystem, FsError, Ino};

/// Operation weights of one client's closed loop. Weights are relative;
/// they need not sum to anything in particular.
#[derive(Clone, Copy, Debug)]
pub struct ClientMix {
    /// Weight of whole-file verified reads.
    pub read: u32,
    /// Weight of whole-file rewrites (fresh deterministic content).
    pub write: u32,
    /// Weight of file creations.
    pub create: u32,
    /// Weight of unlinks.
    pub unlink: u32,
    /// Stable name for reports.
    pub name: &'static str,
}

impl ClientMix {
    /// 90% reads — a read-scaling mix.
    pub fn read_heavy() -> ClientMix {
        ClientMix {
            read: 90,
            write: 4,
            create: 3,
            unlink: 3,
            name: "read_heavy",
        }
    }

    /// A balanced office mix.
    pub fn mixed() -> ClientMix {
        ClientMix {
            read: 50,
            write: 25,
            create: 15,
            unlink: 10,
            name: "mixed",
        }
    }

    /// Write-dominated (log-append stress).
    pub fn write_heavy() -> ClientMix {
        ClientMix {
            read: 10,
            write: 55,
            create: 20,
            unlink: 15,
            name: "write_heavy",
        }
    }
}

/// Per-client operation/verification counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Operations attempted.
    pub ops: u64,
    /// Verified whole-file reads.
    pub reads: u64,
    /// Whole-file rewrites.
    pub writes: u64,
    /// Files created.
    pub creates: u64,
    /// Files unlinked.
    pub unlinks: u64,
    /// Bytes read back (and verified).
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Reads whose content did not match the expected bytes.
    pub verify_failures: u64,
    /// Operations that returned an unexpected error.
    pub errors: u64,
}

impl ClientStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ClientStats) {
        self.ops += other.ops;
        self.reads += other.reads;
        self.writes += other.writes;
        self.creates += other.creates;
        self.unlinks += other.unlinks;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.verify_failures += other.verify_failures;
        self.errors += other.errors;
    }
}

/// Deterministic file payload: every byte is a function of `(seed, i)`,
/// so a verifier needs only the seed and length — not a stored copy.
pub fn content(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    while out.len() < len {
        // splitmix64 step.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&z.to_le_bytes()[..take]);
    }
    out
}

/// Tracked state of one file a client owns.
#[derive(Clone, Debug)]
struct TrackedFile {
    name: String,
    ino: Ino,
    seed: u64,
    len: usize,
}

/// One simulated client: a closed-loop state machine over its private
/// directory. Deterministic given `(id, seed)` — the same client issues
/// the same operation stream regardless of scheduling (its verification
/// is what notices cross-client interference).
pub struct ClientSim {
    id: usize,
    rng: StdRng,
    dir: String,
    files: Vec<TrackedFile>,
    next_seq: u64,
    mix: ClientMix,
    max_files: usize,
    mean_len: usize,
    /// Counters; read after the run.
    pub stats: ClientStats,
    /// Description of the first verification failure, if any.
    pub first_failure: Option<String>,
}

impl ClientSim {
    /// Creates client `id` with its deterministic RNG. `mean_len` is the
    /// average file size; files range from 1 byte to 4× the mean.
    pub fn new(id: usize, seed: u64, mix: ClientMix, mean_len: usize) -> ClientSim {
        ClientSim {
            id,
            rng: crate::rng(seed ^ (id as u64).wrapping_mul(0x5851_F42D_4C95_7F2D)),
            dir: format!("/cli{id}"),
            files: Vec::new(),
            next_seq: 0,
            mix,
            max_files: 24,
            mean_len: mean_len.max(1),
            stats: ClientStats::default(),
            first_failure: None,
        }
    }

    /// The client's private directory.
    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// Creates the private directory (idempotent).
    pub fn setup<F: FileSystem>(&mut self, fs: &mut F) -> Result<(), FsError> {
        match fs.mkdir(&self.dir) {
            Ok(_) | Err(FsError::AlreadyExists) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn pick_len(&mut self) -> usize {
        // Uniform in [1, 2*mean] with an occasional 4× outlier.
        let cap = if self.rng.gen_range(0..10) == 0 {
            self.mean_len * 4
        } else {
            self.mean_len * 2
        };
        self.rng.gen_range(0..cap.max(1)) + 1
    }

    fn fresh_seed(&mut self) -> u64 {
        self.next_seq += 1;
        (self.id as u64) << 32 | self.next_seq
    }

    fn note_failure(&mut self, what: String) {
        self.stats.verify_failures += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    fn do_create<F: FileSystem>(&mut self, fs: &mut F) {
        let seq = self.next_seq;
        let name = format!("{}/f{seq}", self.dir);
        let seed = self.fresh_seed();
        let len = self.pick_len();
        let data = content(seed, len);
        match fs.create(&name).and_then(|ino| {
            fs.write(ino, 0, &data)?;
            Ok(ino)
        }) {
            Ok(ino) => {
                self.stats.creates += 1;
                self.stats.write_bytes += len as u64;
                self.files.push(TrackedFile {
                    name,
                    ino,
                    seed,
                    len,
                });
            }
            Err(_) => self.stats.errors += 1,
        }
    }

    fn do_read<F: FileSystem>(&mut self, fs: &mut F) {
        let Some(idx) = self.pick_file() else { return };
        let f = self.files[idx].clone();
        let mut buf = vec![0u8; f.len];
        match fs.read(f.ino, 0, &mut buf) {
            Ok(n) => {
                self.stats.reads += 1;
                self.stats.read_bytes += n as u64;
                let expect = content(f.seed, f.len);
                if n != f.len || buf[..n] != expect[..n] {
                    self.note_failure(format!(
                        "client {}: read {} (ino {}) got {n}/{} bytes{}",
                        self.id,
                        f.name,
                        f.ino,
                        f.len,
                        if n == f.len { ", content mismatch" } else { "" }
                    ));
                }
            }
            Err(_) => self.stats.errors += 1,
        }
    }

    fn do_write<F: FileSystem>(&mut self, fs: &mut F) {
        let Some(idx) = self.pick_file() else { return };
        let seed = self.fresh_seed();
        let len = self.pick_len();
        let (ino, old_len) = (self.files[idx].ino, self.files[idx].len);
        let data = content(seed, len);
        let res = if len < old_len {
            fs.truncate(ino, len as u64)
                .and_then(|()| fs.write(ino, 0, &data))
        } else {
            fs.write(ino, 0, &data)
        };
        match res {
            Ok(()) => {
                self.stats.writes += 1;
                self.stats.write_bytes += len as u64;
                self.files[idx].seed = seed;
                self.files[idx].len = len;
            }
            Err(_) => self.stats.errors += 1,
        }
    }

    fn do_unlink<F: FileSystem>(&mut self, fs: &mut F) {
        let Some(idx) = self.pick_file() else { return };
        let f = self.files.swap_remove(idx);
        match fs.unlink(&f.name) {
            Ok(()) => self.stats.unlinks += 1,
            Err(_) => self.stats.errors += 1,
        }
    }

    fn pick_file(&mut self) -> Option<usize> {
        if self.files.is_empty() {
            None
        } else {
            Some(self.rng.gen_range(0..self.files.len()))
        }
    }

    /// Runs one operation of the closed loop.
    pub fn step<F: FileSystem>(&mut self, fs: &mut F) {
        self.stats.ops += 1;
        let total = self.mix.read + self.mix.write + self.mix.create + self.mix.unlink;
        let roll = self.rng.gen_range(0..total.max(1));
        let force_create = self.files.is_empty();
        let must_drain = self.files.len() >= self.max_files;
        if force_create || (roll >= self.mix.read + self.mix.write && !must_drain) {
            if roll < self.mix.read + self.mix.write + self.mix.create && !must_drain {
                self.do_create(fs);
            } else {
                self.do_unlink(fs);
            }
        } else if roll < self.mix.read {
            self.do_read(fs);
        } else if roll < self.mix.read + self.mix.write {
            self.do_write(fs);
        } else {
            self.do_unlink(fs);
        }
    }

    /// Final verification sweep: re-reads every tracked file.
    pub fn verify_all<F: FileSystem>(&mut self, fs: &mut F) {
        let files = self.files.clone();
        for f in files {
            let mut buf = vec![0u8; f.len];
            match fs.read(f.ino, 0, &mut buf) {
                Ok(n) => {
                    self.stats.read_bytes += n as u64;
                    let expect = content(f.seed, f.len);
                    if n != f.len || buf[..n] != expect[..n] {
                        self.note_failure(format!(
                            "client {}: final verify of {} failed ({n}/{} bytes)",
                            self.id, f.name, f.len
                        ));
                    }
                }
                Err(e) => self.note_failure(format!(
                    "client {}: final verify of {} errored: {e}",
                    self.id, f.name
                )),
            }
        }
    }
}

/// Aggregate result of a multi-client run.
#[derive(Clone, Debug, Default)]
pub struct MixReport {
    /// Merged per-client counters.
    pub stats: ClientStats,
    /// Number of clients simulated.
    pub clients: usize,
    /// First verification failure encountered, if any.
    pub first_failure: Option<String>,
}

/// Runs `nclients` closed-loop clients for `ops_per_client` operations
/// each, multiplexed over `threads` OS threads. `make_fs` builds one
/// file-system handle per thread (a [`FileSystem`] is `&mut self`, so
/// each thread needs its own — a `SharedLfs` clone, a server connection,
/// …). Clients are partitioned round-robin and stepped in rotation, so
/// the interleaving across a thread's clients is fair and deterministic
/// per thread.
pub fn run_clients<F, MK>(
    nclients: usize,
    ops_per_client: usize,
    threads: usize,
    mix: ClientMix,
    mean_len: usize,
    seed: u64,
    make_fs: MK,
) -> MixReport
where
    F: FileSystem,
    MK: Fn(usize) -> F + Sync,
{
    let threads = threads.max(1).min(nclients.max(1));
    let mut results: Vec<(ClientStats, Option<String>)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let make_fs = &make_fs;
                s.spawn(move || {
                    let mut fs = make_fs(t);
                    let mut clients: Vec<ClientSim> = (t..nclients)
                        .step_by(threads)
                        .map(|id| ClientSim::new(id, seed, mix, mean_len))
                        .collect();
                    let mut agg = ClientStats::default();
                    let mut first = None;
                    for c in &mut clients {
                        if c.setup(&mut fs).is_err() {
                            agg.errors += 1;
                        }
                    }
                    for _ in 0..ops_per_client {
                        for c in &mut clients {
                            c.step(&mut fs);
                        }
                    }
                    for c in &mut clients {
                        c.verify_all(&mut fs);
                        agg.merge(&c.stats);
                        if first.is_none() {
                            first = c.first_failure.take();
                        }
                    }
                    (agg, first)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("client thread panicked"));
        }
    });
    let mut report = MixReport {
        clients: nclients,
        ..MixReport::default()
    };
    for (stats, first) in results {
        report.stats.merge(&stats);
        if report.first_failure.is_none() {
            report.first_failure = first;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::model::ModelFs;

    #[test]
    fn content_is_deterministic_and_length_exact() {
        assert_eq!(content(7, 13), content(7, 13));
        assert_eq!(content(7, 13).len(), 13);
        assert_ne!(content(7, 64), content(8, 64));
        assert_eq!(content(1, 0).len(), 0);
    }

    #[test]
    fn single_client_loop_self_verifies_on_model_fs() {
        let mut fs = ModelFs::new();
        let mut c = ClientSim::new(0, 42, ClientMix::mixed(), 2048);
        c.setup(&mut fs).unwrap();
        for _ in 0..500 {
            c.step(&mut fs);
        }
        c.verify_all(&mut fs);
        assert_eq!(c.stats.verify_failures, 0, "{:?}", c.first_failure);
        assert_eq!(c.stats.errors, 0);
        assert!(c.stats.reads > 0 && c.stats.creates > 0 && c.stats.unlinks > 0);
    }

    #[test]
    fn run_clients_aggregates_all_clients() {
        // ModelFs is not shared here (one per "thread"), which is fine:
        // each client only touches its own namespace.
        let report = run_clients(8, 50, 2, ClientMix::read_heavy(), 512, 7, |_t| {
            ModelFs::new()
        });
        assert_eq!(report.clients, 8);
        assert_eq!(
            report.stats.verify_failures, 0,
            "{:?}",
            report.first_failure
        );
        assert_eq!(report.stats.ops, 8 * 50);
        assert!(report.stats.read_bytes > 0);
    }
}
