//! Cleaning lab: watch the segment cleaner work.
//!
//! Fills a small disk with cold data, churns a hot file until the cleaner
//! must run, and prints the segment-state picture and cleaning statistics
//! under both policies — a miniature of Figures 5-7 running on the *real*
//! file system rather than the simulator.
//!
//! ```sh
//! cargo run --release --example cleaning_lab
//! ```

use blockdev::MemDisk;
use lfs_core::usage::SegState;
use lfs_core::{CleaningPolicy, Lfs, LfsConfig};
use vfs::FileSystem;

fn segment_picture(fs: &Lfs<MemDisk>) -> String {
    fs.segment_snapshot()
        .into_iter()
        .map(|(state, u)| match state {
            SegState::Clean => '.',
            SegState::Active => '@',
            SegState::PendingFree => 'p',
            SegState::Dirty => {
                if u < 0.25 {
                    '1'
                } else if u < 0.5 {
                    '2'
                } else if u < 0.75 {
                    '3'
                } else {
                    '4'
                }
            }
        })
        .collect()
}

fn run(policy: CleaningPolicy) {
    let mut cfg = LfsConfig::small();
    cfg.policy = policy;
    let mut fs = Lfs::format(MemDisk::new(1536), cfg).unwrap();

    // Cold data: 25 files written once and never touched again.
    for i in 0..25 {
        fs.write_file(&format!("/cold{i:02}"), &[i as u8; 8192])
            .unwrap();
    }
    // Hot churn: rotate writes over a 256 KB working set.
    let hot = fs.create("/hot").unwrap();
    println!("policy {} — segment map per round", policy.name());
    println!("  legend: . clean, @ active, p pending-free, 1-4 utilization quartile\n");
    for round in 0..10u32 {
        for step in 0..30u32 {
            let off = ((round * 30 + step) % 8) as u64 * 32 * 1024;
            fs.write(hot, off, &vec![(round + step) as u8; 32 * 1024])
                .unwrap();
        }
        println!("  round {round}: {}", segment_picture(&fs));
    }
    let s = fs.stats();
    println!(
        "\n  cleaned {} segments ({:.0}% empty), avg non-empty u {:.2}, write cost {:.2}",
        s.cleaner.segments_cleaned,
        s.cleaner.empty_fraction() * 100.0,
        s.cleaner.avg_nonempty_utilization(),
        s.write_cost()
    );
    // Cold data must have survived all that cleaning.
    for i in 0..25 {
        let ino = fs.lookup(&format!("/cold{i:02}")).unwrap();
        assert_eq!(fs.read_to_vec(ino).unwrap(), vec![i as u8; 8192]);
    }
    println!("  all cold files verified intact\n");
}

fn main() {
    run(CleaningPolicy::CostBenefit);
    run(CleaningPolicy::Greedy);
    println!(
        "Cost-benefit with age-sorting segregates the cold files into their own\n\
         segments (stable '4' columns) and cleans mostly hot, mostly-empty\n\
         segments; greedy mixes them and re-copies cold data repeatedly."
    );
}
