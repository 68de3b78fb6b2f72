//! Records host-side (wall-clock) file-system throughput to
//! `bench_results/fs_throughput.jsonl`.
//!
//! Companion to the figure binaries, which report *simulated* disk time on
//! a 1989 Wren IV: this binary instead measures how fast the `lfs-core`
//! implementation itself runs on the host, over a `MemDisk` with no timing
//! model, so the repository keeps a trajectory of FS-side performance the
//! same way `sim_throughput.jsonl` tracks the cleaning simulator. See
//! EXPERIMENTS.md ("Host-side performance methodology").
//!
//! Mixes: small-file create/read/delete (the Figure 8 workload shape) and
//! large-file sequential write/read (the Figure 9 shape). Each mix is run
//! `REPS` times and the best wall-clock time is kept, which filters
//! scheduler noise the same way criterion's minimum-of-samples does.
//!
//! The configuration is the production one. `--gate` checks deterministic
//! counters only, so it cannot flake and needs no reference run: the
//! sequential-read mix must reach the device in at most one request per
//! eight blocks read (the per-file read-ahead window has to open by
//! itself for that), the write-heavy
//! mixes must memcpy fewer host bytes into write buffers
//! (`lfs.flush_copy_bytes`) than the user bytes they wrote, and the two
//! submission-queue overlap checks must hold. Wall-clock throughput is
//! recorded, not gated; the repository's benchmark (`benchmark/`) judges
//! that against the parent commit.
//!
//! ```sh
//! cargo run --release -p lfs-bench --bin fs_throughput -- <variant-label>
//! cargo run --release -p lfs-bench --bin fs_throughput -- --gate
//! ```

use std::time::Instant;

use blockdev::{BlockDevice, MemDisk, QueueDevice, QueuedDev};
use lfs_bench::{append_jsonl, or_die, smoke_mode, Table};
use lfs_core::Lfs;
use serde_json::json;
use workload::{LargeFileBench, LargeFilePhase, SmallFileBench};

const REPS: u32 = 5;

/// `--gate`: the sequential-read-heavy mix must average at least this
/// many blocks per device read request, or runs of contiguous addresses
/// have stopped being fetched as single requests. (Request counts are
/// deterministic, so unlike a wall-clock ratio this check cannot flake:
/// on a RAM-backed `MemDisk` a request costs next to nothing, which is
/// exactly why the batching claim is checked on the request counter and
/// not on time.)
const GATE_MIN_READ_BATCHING: u64 = 8;

/// `--gate`: write-heavy mixes whose flushes must memcpy strictly fewer
/// host bytes into write buffers than the user bytes written — only
/// synthesized metadata is rendered; cached data goes out by reference.
const GATE_WRITE_MIXES: [&str; 2] = ["small_create", "seq_write"];

/// `--gate`: the seq_write mix behind a depth-8 submission ring must keep
/// at least this mean in-flight depth, or flushes have stopped actually
/// overlapping (every submission draining immediately means the queue
/// path degenerated to the synchronous one). Deterministic: the ring
/// counters depend only on the submission pattern, never on wall time.
const GATE_MIN_QUEUE_DEPTH: f64 = 1.5;

/// `--gate`: minimum simulated elapsed-time win of queue depth 4 over
/// depth 1 on the chunked-write overlap model (see
/// [`lfs_bench::run_queue_depth`]). Also deterministic — the whole
/// timeline is simulated.
const GATE_MIN_OVERLAP_RATIO: f64 = 1.15;

fn mem_lfs(mb: u64) -> Lfs<MemDisk> {
    let cfg = lfs_bench::production_lfs_config(mb);
    or_die(
        "format LFS on MemDisk",
        Lfs::format(MemDisk::new(mb * 256), cfg),
    )
}

struct MixResult {
    mix: &'static str,
    ops: u64,
    bytes: u64,
    wall_ns: u128,
    /// Read requests the mix's timed phase issued to the device
    /// (deterministic — every rep sees the same value).
    dev_reads: u64,
    /// Host bytes the flush path memcpy'd into write buffers during the
    /// timed phase (deterministic, like `dev_reads`).
    copy_bytes: u64,
}

impl MixResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns as f64
    }
    fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 * 1e9 / (self.wall_ns as f64 * (1 << 20) as f64)
    }
}

/// One timed rep: wall-clock plus the deterministic counters it moved.
struct Sample {
    wall_ns: u128,
    dev_reads: u64,
    copy_bytes: u64,
}

/// Counters probed before and after the timed phase.
struct Counters {
    dev_reads: u64,
    copy_bytes: u64,
}

fn probe(fs: &Lfs<MemDisk>) -> Counters {
    Counters {
        dev_reads: fs.device().stats().reads,
        copy_bytes: fs.stats().flush_copy_bytes,
    }
}

/// One workload mix: `run()` builds fresh state and times the phase.
struct MixSpec {
    name: &'static str,
    ops: u64,
    bytes: u64,
    run: Box<dyn Fn() -> Sample>,
}

fn timed<S>(
    setup: impl FnOnce() -> S,
    f: impl FnOnce(&mut S),
    counters: impl Fn(&S) -> Counters,
) -> Sample {
    let mut state = setup();
    let before = counters(&state);
    let t = Instant::now();
    f(&mut state);
    let wall_ns = t.elapsed().as_nanos();
    let after = counters(&state);
    Sample {
        wall_ns,
        dev_reads: after.dev_reads - before.dev_reads,
        copy_bytes: after.copy_bytes - before.copy_bytes,
    }
}

/// The five mixes, in recording order.
fn mix_specs() -> Vec<MixSpec> {
    let (nfiles, large_mb, read_passes) = if smoke_mode() {
        (2_000, 8u64, 2u64)
    } else {
        (10_000, 64, 4)
    };
    let small = SmallFileBench {
        nfiles,
        file_size: 1024,
        files_per_dir: 100,
    };
    let large = LargeFileBench {
        file_bytes: large_mb << 20,
        io_size: 8192,
        seed: 0xf19,
    };
    let disk_mb = (large_mb * 4).max(64);
    let sops = small.nfiles as u64;
    let sbytes = sops * small.file_size as u64;
    let lops = large.file_bytes / large.io_size as u64;

    vec![
        // Small-file mixes: create, read back in order, delete (the
        // Figure 8 shape).
        MixSpec {
            name: "small_create",
            ops: sops,
            bytes: sbytes,
            run: Box::new(move || {
                timed(
                    || mem_lfs(disk_mb),
                    |fs| or_die("small create", small.create_phase(fs)),
                    probe,
                )
            }),
        },
        MixSpec {
            name: "small_read",
            ops: sops,
            bytes: sbytes,
            run: Box::new(move || {
                timed(
                    || {
                        let mut fs = mem_lfs(disk_mb);
                        or_die("small create", small.create_phase(&mut fs));
                        fs.drop_caches();
                        fs
                    },
                    |fs| or_die("small read", small.read_phase(fs)),
                    probe,
                )
            }),
        },
        MixSpec {
            name: "small_delete",
            ops: sops,
            bytes: sbytes,
            run: Box::new(move || {
                timed(
                    || {
                        let mut fs = mem_lfs(disk_mb);
                        or_die("small create", small.create_phase(&mut fs));
                        fs
                    },
                    |fs| or_die("small delete", small.delete_phase(fs)),
                    probe,
                )
            }),
        },
        // Large-file mixes: sequential write, then a sequential-read-heavy
        // mix (every pass starts cold, so each block is fetched from the
        // device).
        MixSpec {
            name: "seq_write",
            ops: lops,
            bytes: large.file_bytes,
            run: Box::new(move || {
                timed(
                    || mem_lfs(disk_mb),
                    |fs| {
                        let ino = or_die("large setup", large.setup(fs));
                        or_die(
                            "seq write",
                            large.run_phase(fs, ino, LargeFilePhase::SeqWrite),
                        );
                    },
                    probe,
                )
            }),
        },
        MixSpec {
            name: "seq_read",
            ops: lops * read_passes,
            bytes: large.file_bytes * read_passes,
            run: Box::new(move || {
                timed(
                    || {
                        let mut fs = mem_lfs(disk_mb);
                        let ino = or_die("large setup", large.setup(&mut fs));
                        or_die(
                            "seq write",
                            large.run_phase(&mut fs, ino, LargeFilePhase::SeqWrite),
                        );
                        (fs, ino)
                    },
                    |(fs, ino)| {
                        for _ in 0..read_passes {
                            fs.drop_caches();
                            or_die(
                                "seq read",
                                large.run_phase(fs, *ino, LargeFilePhase::SeqRead),
                            );
                        }
                    },
                    |(fs, _)| probe(fs),
                )
            }),
        },
    ]
}

/// Measures every mix, keeping its fastest rep.
fn measure() -> Vec<MixResult> {
    mix_specs()
        .into_iter()
        .map(|spec| {
            let best = (0..REPS)
                .map(|_| (spec.run)())
                .min_by_key(|s| s.wall_ns)
                .expect("REPS > 0");
            MixResult {
                mix: spec.name,
                ops: spec.ops,
                bytes: spec.bytes,
                wall_ns: best.wall_ns,
                dev_reads: best.dev_reads,
                copy_bytes: best.copy_bytes,
            }
        })
        .collect()
}

fn print_results(title: &str, results: &[MixResult]) {
    println!("{title}");
    let mut table = Table::new(&[
        "mix",
        "ops/sec",
        "MB/sec",
        "wall ms",
        "dev reads",
        "copy MB",
    ]);
    for r in results {
        table.row(vec![
            r.mix.into(),
            format!("{:.0}", r.ops_per_sec()),
            format!("{:.1}", r.mb_per_sec()),
            format!("{:.1}", r.wall_ns as f64 / 1e6),
            format!("{}", r.dev_reads),
            format!("{:.1}", r.copy_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    table.print();
}

fn record(variant: &str, results: &[MixResult]) {
    let smoke = smoke_mode();
    for r in results {
        append_jsonl(
            "fs_throughput",
            &json!({
                "bench": "fs_throughput",
                "variant": variant,
                "smoke": smoke,
                "mix": r.mix,
                "ops": r.ops,
                "bytes": r.bytes,
                "wall_ns": r.wall_ns as u64,
                "dev_reads": r.dev_reads,
                "copy_bytes": r.copy_bytes,
                "ops_per_sec": r.ops_per_sec(),
                "mb_per_sec": r.mb_per_sec(),
            }),
        );
    }
}

/// Checks the deterministic per-mix counters and returns the failures.
fn gate_failures(results: &[MixResult]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in results {
        if r.mix == "seq_read" {
            let blocks = r.bytes / blockdev::BLOCK_SIZE as u64;
            println!(
                "  seq_read: {} read requests for {blocks} blocks",
                r.dev_reads
            );
            if r.dev_reads * GATE_MIN_READ_BATCHING > blocks {
                failures.push(format!(
                    "seq_read: {} read requests for {blocks} blocks — \
                     batching fell below {GATE_MIN_READ_BATCHING} blocks per request",
                    r.dev_reads
                ));
            }
        }
        if GATE_WRITE_MIXES.contains(&r.mix) {
            println!(
                "  {}: flushes copied {} host bytes for {} user bytes",
                r.mix, r.copy_bytes, r.bytes
            );
            if r.copy_bytes >= r.bytes {
                failures.push(format!(
                    "{}: flushes copied {} host bytes for {} user bytes — \
                     cached data is being staged instead of sent by reference",
                    r.mix, r.copy_bytes, r.bytes
                ));
            }
        }
    }
    failures
}

/// The two deterministic overlap checks of the submission-queue layer.
/// Both run entirely on simulated or counted state, so they cannot flake.
fn overlap_gate_failures() -> Vec<String> {
    let mut failures = Vec::new();

    // (1) The seq_write mix behind a depth-8 ring must keep several
    // submissions in flight between ordering barriers.
    let large_mb: u64 = if smoke_mode() { 8 } else { 64 };
    let large = LargeFileBench {
        file_bytes: large_mb << 20,
        io_size: 8192,
        seed: 0xf19,
    };
    let disk_mb = (large_mb * 4).max(64);
    let cfg = lfs_bench::production_lfs_config(disk_mb);
    let mut fs = or_die(
        "format queued LFS on MemDisk",
        Lfs::format(QueuedDev::new(MemDisk::new(disk_mb * 256), 8), cfg),
    );
    let ino = or_die("large setup", large.setup(&mut fs));
    or_die(
        "queued seq write",
        large.run_phase(&mut fs, ino, LargeFilePhase::SeqWrite),
    );
    let q = fs.device().queue_stats();
    let mean = q.mean_in_flight_depth().unwrap_or(0.0);
    println!(
        "  queued seq_write depth 8: mean in-flight {mean:.2} (max {}, {} submitted, {} fences)",
        q.max_depth, q.submitted, q.fences
    );
    if mean < GATE_MIN_QUEUE_DEPTH {
        failures.push(format!(
            "queued seq_write: mean in-flight depth {mean:.2} below floor {GATE_MIN_QUEUE_DEPTH} \
             — submissions are draining synchronously"
        ));
    }

    // (2) On the simulated timeline, a depth-4 ring must beat the
    // synchronous depth-1 discipline by the overlap it is supposed to
    // buy.
    let sweep_mb: u64 = if smoke_mode() { 8 } else { 32 };
    let d1 = lfs_bench::run_queue_depth(1, sweep_mb);
    let d4 = lfs_bench::run_queue_depth(4, sweep_mb);
    let ratio = d1.elapsed_ns as f64 / d4.elapsed_ns as f64;
    println!(
        "  simulated overlap: depth 1 {:.2}s vs depth 4 {:.2}s = {ratio:.2}x",
        d1.elapsed_ns as f64 / 1e9,
        d4.elapsed_ns as f64 / 1e9
    );
    append_jsonl(
        "fs_throughput",
        &json!({
            "bench": "fs_throughput",
            "variant": "queue-overlap-gate",
            "smoke": smoke_mode(),
            "mix": "sim_chunked_write",
            "file_mb": sweep_mb,
            "depth1_elapsed_ns": d1.elapsed_ns,
            "depth4_elapsed_ns": d4.elapsed_ns,
            "overlap_ratio": ratio,
            "mean_in_flight_depth": d4.mean_depth,
        }),
    );
    if ratio < GATE_MIN_OVERLAP_RATIO {
        failures.push(format!(
            "simulated overlap: depth 4 is only {ratio:.2}x depth 1 \
             (floor {GATE_MIN_OVERLAP_RATIO}) — queued writes are not overlapping host compute"
        ));
    }
    failures
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let variant = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "current".into());
    let smoke = smoke_mode();
    let suffix = if smoke { " [smoke]" } else { "" };

    let results = measure();
    print_results(&format!("fs_throughput ({variant}){suffix}"), &results);
    record(&variant, &results);

    if gate {
        println!("\ngate: deterministic I/O-path counters");
        let mut failures = gate_failures(&results);
        println!("gate: submission-queue overlap");
        failures.extend(overlap_gate_failures());
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("GATE FAILURE: {f}");
            }
            return std::process::ExitCode::FAILURE;
        }
        println!("gate passed");
    }
    lfs_bench::finish()
}
