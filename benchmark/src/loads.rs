//! The load generators (`loadgen` layer): thin schedules over the
//! repo's own `workload` generators. The program under test only ever
//! sees the `FileSystem` calls they issue; every input derives from the
//! seed.

use vfs::{FileSystem, FsResult, Ino};
use workload::clients::{ClientMix, ClientSim};
use workload::{KvChurn, KvRun, LargeFileBench, LargeFilePhase};

/// How big a generator's data set and preparation are.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `kv_clean`: keys; `bigfile`: file bytes; unused by the office mix
    /// (its population is [`OFFICE_SIMS_PER_CONN`] users per connection).
    pub population: u64,
    /// Untimed steps during set-up: office warm-up slots per connection,
    /// `kv_clean` ageing overwrites; unused by `bigfile`.
    pub prep_steps: u64,
}

/// One client's generator.
pub trait Load: Send + Sized {
    /// Generator of client `client` (0-based) for `seed`.
    fn new(client: usize, seed: u64, sizes: Sizes) -> Self;
    /// Untimed preparation through the same handle the timed part uses:
    /// populate, warm up, age. Ends with everything synced.
    fn setup<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()>;
    /// One unit of timed work.
    fn step<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()>;
    /// Re-reads everything the generator knows the expected content of;
    /// returns the number of mismatches.
    fn verify<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<u64>;
}

/// Simulated office users multiplexed on one connection.
pub const OFFICE_SIMS_PER_CONN: usize = 32;
/// Mean office file size.
pub const OFFICE_MEAN_FILE: usize = 4096;
/// Every this-many-th slot of a connection's schedule is a `sync`.
pub const SYNC_EVERY: u64 = 64;

/// The office mix on one connection: [`OFFICE_SIMS_PER_CONN`]
/// self-verifying `ClientSim`s stepped round-robin, a `sync` every
/// [`SYNC_EVERY`] slots.
pub struct Office {
    sims: Vec<ClientSim>,
    next: usize,
    slot: u64,
    warmup_slots: u64,
}

impl Load for Office {
    fn new(client: usize, seed: u64, sizes: Sizes) -> Office {
        let first = client * OFFICE_SIMS_PER_CONN;
        Office {
            sims: (first..first + OFFICE_SIMS_PER_CONN)
                .map(|id| ClientSim::new(id, seed, ClientMix::mixed(), OFFICE_MEAN_FILE))
                .collect(),
            next: 0,
            slot: 0,
            warmup_slots: sizes.prep_steps,
        }
    }

    fn setup<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()> {
        for sim in &mut self.sims {
            sim.setup(fs)?;
        }
        for _ in 0..self.warmup_slots {
            self.step(fs)?;
        }
        fs.sync()
    }

    fn step<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()> {
        self.slot += 1;
        if self.slot.is_multiple_of(SYNC_EVERY) {
            return fs.sync();
        }
        // `ClientSim` counts errors itself; the caller sees them through
        // the timing adapter's error count.
        self.sims[self.next].step(fs);
        self.next = (self.next + 1) % self.sims.len();
        Ok(())
    }

    fn verify<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<u64> {
        let mut failures = 0;
        for sim in &mut self.sims {
            sim.verify_all(fs);
            failures += sim.stats.verify_failures;
            if let Some(first) = sim.first_failure.take() {
                eprintln!("verify: {first}");
            }
        }
        Ok(failures)
    }
}

/// Every this-many-th step of `kv_clean` re-reads and verifies every
/// key: the reads of this workload (mostly cache misses, since the live
/// set exceeds the cache) and a continuous correctness check.
pub const KV_SWEEP_EVERY: u64 = 2_048;

/// Zipfian overwrites of a fixed key population: the cleaner's workload.
pub struct Kv {
    seed: u64,
    sizes: Sizes,
    run: Option<KvRun>,
    steps: u64,
}

impl Kv {
    fn run(&mut self) -> &mut KvRun {
        self.run.as_mut().expect("Kv::setup runs first")
    }
}

impl Load for Kv {
    fn new(_client: usize, seed: u64, sizes: Sizes) -> Kv {
        Kv {
            seed,
            sizes,
            run: None,
            steps: 0,
        }
    }

    fn setup<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()> {
        let cfg = KvChurn {
            keys: self.sizes.population as u32,
            theta: 0.9,
            mean_value: 8192,
            sync_every: SYNC_EVERY as u32,
        };
        self.run = Some(KvRun::setup(fs, cfg, self.seed)?);
        for _ in 0..self.sizes.prep_steps {
            self.run().step(fs)?;
        }
        fs.sync()
    }

    fn step<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()> {
        self.run().step(fs)?;
        self.steps += 1;
        if self.steps.is_multiple_of(KV_SWEEP_EVERY) && self.verify(fs)? > 0 {
            return Err(vfs::FsError::Corrupt("kv sweep found a mismatch".into()));
        }
        Ok(())
    }

    fn verify<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<u64> {
        let failures = self.run().verify_all(fs)?;
        if let Some(first) = failures.first() {
            eprintln!("verify: {first}");
        }
        Ok(failures.len() as u64)
    }
}

/// Transfer unit per `bigfile` call.
pub const BIGFILE_IO: usize = 8192;

/// One large file, rewritten and re-read in passes of
/// seq-write → seq-read → rand-write → rand-read.
pub struct Bigfile {
    bench: LargeFileBench,
    ino: Ino,
}

impl Load for Bigfile {
    fn new(_client: usize, seed: u64, sizes: Sizes) -> Bigfile {
        Bigfile {
            bench: LargeFileBench {
                file_bytes: sizes.population,
                io_size: BIGFILE_IO,
                seed,
            },
            ino: 0,
        }
    }

    fn setup<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()> {
        self.ino = self.bench.setup(fs)?;
        self.bench.run_phase(fs, self.ino, LargeFilePhase::SeqWrite)
    }

    fn step<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<()> {
        for phase in [
            LargeFilePhase::SeqWrite,
            LargeFilePhase::SeqRead,
            LargeFilePhase::RandWrite,
            LargeFilePhase::RandRead,
        ] {
            self.bench.run_phase(fs, self.ino, phase)?;
        }
        Ok(())
    }

    fn verify<F: FileSystem>(&mut self, fs: &mut F) -> FsResult<u64> {
        // Every byte the generator ever writes is 0x42.
        let mut buf = vec![0u8; 1 << 20];
        let mut off = 0u64;
        let mut bad = 0u64;
        while off < self.bench.file_bytes {
            let n = fs.read(self.ino, off, &mut buf)?;
            if n == 0 {
                break;
            }
            bad += u64::from(buf[..n].iter().any(|&b| b != 0x42));
            off += n as u64;
        }
        bad += u64::from(off != self.bench.file_bytes);
        bad += u64::from(fs.metadata(self.ino)?.size != self.bench.file_bytes);
        Ok(bad)
    }
}
