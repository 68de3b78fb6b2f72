//! The recovery invariants, in one place.
//!
//! Everything this reproduction promises about a crash is checkable, and
//! before this module the checks were scattered: `lfsck` ran the
//! structural pass, the torture binary re-implemented byte-exactness and
//! prefix-of-history content rules, and each crash-sweep test carried its
//! own mount-and-check boilerplate. A new invariant had to be added in
//! three places or it silently guarded only one harness.
//!
//! [`InvariantSuite`] is the single predicate they all share now. Applied
//! to a post-crash image it asserts, in order:
//!
//! 1. **Recoverability** — [`Lfs::mount`] succeeds. This exercises the
//!    checkpoint checksum gating and the older-checkpoint-region fallback
//!    (§4.1): a torn newest region must be rejected by checksum and the
//!    alternate used, and roll-forward (§4.2) must replay only
//!    checksum-valid summary chunks.
//! 2. **Structural consistency** — the offline checker ([`Lfs::check`])
//!    reports clean: inode map, inodes, block pointers, directory tree,
//!    nlink counts, and the segment usage table all agree, and no block
//!    has two owners.
//! 3. **Namespace/content atomicity** — files registered with
//!    [`InvariantSuite::expect_exact`] are byte-exact (checkpointed data
//!    may never regress), and files registered with
//!    [`InvariantSuite::expect_history`] hold a *prefix of some version
//!    they legally held* (crash atomicity is per flush, not per
//!    operation: a large write may recover as a correct prefix, and a cut
//!    between a create's dirlog chunk and its data chunk leaves the file
//!    empty — those are the only legal intermediate states; a dirlog
//!    replay must never manufacture mixed or never-written content).
//!    Absent is always legal for history files: the crash may predate the
//!    create or postdate the unlink.
//!
//! The same suite runs under the `torture` sampler, under the exhaustive
//! `crash_explore` model checker, in the `crash_sweeps` tests, and (with
//! no content expectations) inside `lfsck`.

use std::fmt;

use blockdev::QueueDevice;
use vfs::{FileSystem, FsError};

use crate::check::CheckReport;
use crate::config::LfsConfig;
use crate::fs::Lfs;

/// Declarative expectations about a (possibly crashed) file-system image,
/// checked by [`InvariantSuite::verify_device`].
#[derive(Clone, Debug, Default)]
pub struct InvariantSuite {
    /// Files that must survive byte-exact (written before the crash
    /// window opened, e.g. before `checkpoint_baseline`).
    exact: Vec<(String, Vec<u8>)>,
    /// Files written inside the crash window: every content version the
    /// path has ever held, oldest first. Legal post-crash states are
    /// absent, empty, or a prefix of any version.
    history: Vec<(String, Vec<Vec<u8>>)>,
}

impl InvariantSuite {
    /// A suite with no content expectations (recoverability and
    /// structural consistency only).
    pub fn new() -> InvariantSuite {
        InvariantSuite::default()
    }

    /// Requires `path` to exist with exactly `content` after recovery.
    pub fn expect_exact(&mut self, path: impl Into<String>, content: Vec<u8>) {
        self.exact.push((path.into(), content));
    }

    /// Requires `path` to be absent, empty, or a prefix of one of
    /// `versions` after recovery.
    pub fn expect_history(&mut self, path: impl Into<String>, versions: Vec<Vec<u8>>) {
        self.history.push((path.into(), versions));
    }

    /// Appends one more legal version to `path`'s history (creating the
    /// entry if needed) — the incremental form the torture workload uses
    /// as it issues writes.
    pub fn push_version(&mut self, path: &str, content: Vec<u8>) {
        if let Some((_, versions)) = self.history.iter_mut().find(|(p, _)| p == path) {
            versions.push(content);
        } else {
            self.history.push((path.to_string(), vec![content]));
        }
    }

    /// Registered history versions for `path`, if any.
    pub fn versions(&self, path: &str) -> Option<&[Vec<u8>]> {
        self.history
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, v)| v.as_slice())
    }

    /// Mounts `dev` and asserts the full suite. On a successful mount the
    /// file system is returned alongside the report so callers can add
    /// scenario-specific assertions.
    pub fn verify_device<D: QueueDevice>(
        &self,
        dev: D,
        cfg: LfsConfig,
    ) -> (InvariantReport, Option<Lfs<D>>) {
        self.verify_device_obs(dev, cfg, None)
    }

    /// [`InvariantSuite::verify_device`] with an observability registry
    /// attached to the mount (recovery traces and latency histograms
    /// accumulate there).
    pub fn verify_device_obs<D: QueueDevice>(
        &self,
        dev: D,
        cfg: LfsConfig,
        obs: Option<lfs_obs::Obs>,
    ) -> (InvariantReport, Option<Lfs<D>>) {
        let mut report = InvariantReport::default();
        let mounted = match obs {
            Some(obs) => Lfs::mount_with_obs(dev, cfg, obs),
            None => Lfs::mount(dev, cfg),
        };
        let mut fs = match mounted {
            Ok(fs) => fs,
            Err(e) => {
                report.mount_error = Some(e.to_string());
                return (report, None);
            }
        };
        self.verify_mounted_into(&mut fs, &mut report);
        (report, Some(fs))
    }

    fn verify_mounted_into<D: QueueDevice>(&self, fs: &mut Lfs<D>, report: &mut InvariantReport) {
        match fs.check() {
            Ok(check) => {
                for e in &check.errors {
                    report.violations.push(format!("structural: {e}"));
                }
                report.check = Some(check);
            }
            Err(e) => report.check_error = Some(e.to_string()),
        }
        for (path, content) in &self.exact {
            match read_file(fs, path) {
                Ok(Some(data)) if &data == content => {}
                Ok(Some(data)) => report.violations.push(format!(
                    "content: {path} corrupted ({} bytes, expected {})",
                    data.len(),
                    content.len()
                )),
                Ok(None) => report.violations.push(format!(
                    "content: {path} lost (expected {} bytes)",
                    content.len()
                )),
                Err(e) => report
                    .violations
                    .push(format!("content: {path} unreadable: {e}")),
            }
        }
        for (path, versions) in &self.history {
            match read_file(fs, path) {
                Ok(Some(data)) => {
                    let known = data.is_empty() || versions.iter().any(|v| v.starts_with(&data));
                    if !known {
                        report.violations.push(format!(
                            "content: {path} holds a never-written state ({} bytes, {} known versions)",
                            data.len(),
                            versions.len()
                        ));
                    }
                }
                Ok(None) => {} // absent is always legal inside the window
                Err(e) => report
                    .violations
                    .push(format!("content: {path} unreadable: {e}")),
            }
        }
    }
}

/// `Ok(None)` if the path does not exist; errors other than `NotFound`
/// surface to the caller.
fn read_file<D: QueueDevice>(fs: &mut Lfs<D>, path: &str) -> Result<Option<Vec<u8>>, FsError> {
    match fs.lookup(path) {
        Ok(ino) => fs.read_to_vec(ino).map(Some),
        Err(FsError::NotFound) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The outcome of one [`InvariantSuite`] application.
#[derive(Debug, Default)]
pub struct InvariantReport {
    /// The mount failed (recoverability violated). Nothing else ran.
    pub mount_error: Option<String>,
    /// The structural checker aborted with an I/O or decode error.
    pub check_error: Option<String>,
    /// The structural checker's report, when it ran.
    pub check: Option<CheckReport>,
    /// Structural and content violations, human-readable.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when every invariant held.
    pub fn is_ok(&self) -> bool {
        self.mount_error.is_none() && self.check_error.is_none() && self.violations.is_empty()
    }

    /// All failures flattened into printable lines.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(e) = &self.mount_error {
            out.push(format!("mount failed: {e}"));
        }
        if let Some(e) = &self.check_error {
            out.push(format!("check aborted: {e}"));
        }
        out.extend(self.violations.iter().cloned());
        out
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "all invariants hold");
        }
        let failures = self.failures();
        for (i, line) in failures.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::MemDisk;

    fn fresh() -> Lfs<MemDisk> {
        Lfs::format(MemDisk::new(2048), LfsConfig::small()).unwrap()
    }

    #[test]
    fn clean_fs_passes_empty_suite() {
        let mut fs = fresh();
        fs.write_file("/a", b"hello").unwrap();
        fs.sync().unwrap();
        let dev = fs.into_device();
        let suite = InvariantSuite::new();
        let (report, fs) = suite.verify_device(dev, LfsConfig::small());
        assert!(report.is_ok(), "{report}");
        assert!(fs.is_some());
        assert!(report.check.unwrap().is_clean());
    }

    #[test]
    fn exact_expectations_catch_loss_and_corruption() {
        let mut fs = fresh();
        fs.write_file("/keep", b"precious").unwrap();
        fs.sync().unwrap();
        let dev = fs.into_device();

        let mut suite = InvariantSuite::new();
        suite.expect_exact("/keep", b"precious".to_vec());
        suite.expect_exact("/gone", b"never written".to_vec());
        let (report, _) = suite.verify_device(dev, LfsConfig::small());
        assert!(!report.is_ok());
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("/gone"), "{report}");
    }

    #[test]
    fn history_accepts_absent_empty_and_prefixes_only() {
        let mut fs = fresh();
        fs.write_file("/h", b"version-two").unwrap();
        fs.sync().unwrap();
        let dev = fs.into_device();

        let mut suite = InvariantSuite::new();
        suite.push_version("/h", b"version-one!".to_vec());
        suite.push_version("/h", b"version-two".to_vec());
        suite.expect_history("/never-created", vec![b"x".to_vec()]);
        assert_eq!(suite.versions("/h").unwrap().len(), 2);
        let (report, _) = suite.verify_device(dev, LfsConfig::small());
        assert!(report.is_ok(), "{report}");

        // A never-written content is a violation.
        let mut fs = fresh();
        fs.write_file("/h", b"rogue bytes").unwrap();
        fs.sync().unwrap();
        let dev = fs.into_device();
        let mut suite = InvariantSuite::new();
        suite.expect_history("/h", vec![b"version-one!".to_vec()]);
        let (report, _) = suite.verify_device(dev, LfsConfig::small());
        assert!(!report.is_ok());
        assert!(report.violations[0].contains("never-written"), "{report}");
    }

    #[test]
    fn garbage_image_reports_mount_error_not_panic() {
        let suite = InvariantSuite::new();
        let (report, fs) = suite.verify_device(MemDisk::new(64), LfsConfig::small());
        assert!(report.mount_error.is_some());
        assert!(fs.is_none());
        assert!(!report.is_ok());
        assert!(report.failures()[0].contains("mount failed"));
    }
}
