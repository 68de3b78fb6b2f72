//! An in-memory reference file system used as a property-test oracle.

use std::collections::{BTreeMap, HashMap};

use crate::error::{FsError, FsResult};
use crate::path;
use crate::types::{DirEntry, FileType, Metadata, StatFs};
use crate::{FileSystem, Ino, ROOT_INO};

enum Node {
    File {
        data: Vec<u8>,
        nlink: u32,
        mtime: u64,
        ctime: u64,
    },
    Dir {
        entries: BTreeMap<String, Ino>,
        mtime: u64,
        ctime: u64,
    },
}

/// A deliberately simple in-memory file system.
///
/// `ModelFs` exists so that property-based tests can run the same random
/// operation sequence against a real file system (LFS or FFS) and this
/// model, then compare every observable: lookups, metadata, directory
/// listings, and file contents. It has no blocks, no cache, and no crash
/// states — it is the specification, not an implementation.
///
/// # Examples
///
/// ```
/// use vfs::{FileSystem, model::ModelFs};
///
/// let mut fs = ModelFs::new();
/// fs.mkdir("/dir1").unwrap();
/// let ino = fs.write_file("/dir1/file1", b"hello").unwrap();
/// assert_eq!(fs.read_to_vec(ino).unwrap(), b"hello");
/// ```
pub struct ModelFs {
    nodes: HashMap<Ino, Node>,
    next_ino: Ino,
    clock: u64,
}

impl Default for ModelFs {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelFs {
    /// Creates an empty file system containing only the root directory.
    pub fn new() -> ModelFs {
        let mut nodes = HashMap::new();
        nodes.insert(
            ROOT_INO,
            Node::Dir {
                entries: BTreeMap::new(),
                mtime: 0,
                ctime: 0,
            },
        );
        ModelFs {
            nodes,
            next_ino: ROOT_INO + 1,
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn resolve(&self, parts: &[&str]) -> FsResult<Ino> {
        let mut cur = ROOT_INO;
        for part in parts {
            match self.nodes.get(&cur) {
                Some(Node::Dir { entries, .. }) => {
                    cur = *entries.get(*part).ok_or(FsError::NotFound)?;
                }
                Some(Node::File { .. }) => return Err(FsError::NotADirectory),
                None => return Err(FsError::Corrupt("dangling inode".into())),
            }
        }
        Ok(cur)
    }

    fn resolve_parent<'a>(&self, path_str: &'a str) -> FsResult<(Ino, &'a str)> {
        let (parent_parts, name) = path::split_parent(path_str)?;
        let parent = self.resolve(&parent_parts)?;
        match self.nodes.get(&parent) {
            Some(Node::Dir { .. }) => Ok((parent, name)),
            Some(_) => Err(FsError::NotADirectory),
            None => Err(FsError::Corrupt("dangling parent".into())),
        }
    }

    fn dir_entries_mut(&mut self, ino: Ino) -> &mut BTreeMap<String, Ino> {
        match self.nodes.get_mut(&ino) {
            Some(Node::Dir { entries, .. }) => entries,
            _ => unreachable!("caller checked ino is a directory"),
        }
    }

    fn insert_entry(&mut self, parent: Ino, name: &str, child: Ino) -> FsResult<()> {
        let now = self.tick();
        match self.nodes.get_mut(&parent) {
            Some(Node::Dir { entries, mtime, .. }) => {
                if entries.contains_key(name) {
                    return Err(FsError::AlreadyExists);
                }
                entries.insert(name.to_string(), child);
                *mtime = now;
                Ok(())
            }
            _ => Err(FsError::NotADirectory),
        }
    }

    /// Drops a file's link count by one, deleting it at zero.
    fn unref_file(&mut self, ino: Ino) {
        if let Some(Node::File { nlink, .. }) = self.nodes.get_mut(&ino) {
            *nlink -= 1;
            if *nlink == 0 {
                self.nodes.remove(&ino);
            }
        }
    }
}

impl FileSystem for ModelFs {
    fn create(&mut self, path_str: &str) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(path_str)?;
        let now = self.tick();
        let ino = self.next_ino;
        self.nodes.insert(
            ino,
            Node::File {
                data: Vec::new(),
                nlink: 1,
                mtime: now,
                ctime: now,
            },
        );
        if let Err(e) = self.insert_entry(parent, name, ino) {
            self.nodes.remove(&ino);
            return Err(e);
        }
        self.next_ino += 1;
        Ok(ino)
    }

    fn mkdir(&mut self, path_str: &str) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(path_str)?;
        let now = self.tick();
        let ino = self.next_ino;
        self.nodes.insert(
            ino,
            Node::Dir {
                entries: BTreeMap::new(),
                mtime: now,
                ctime: now,
            },
        );
        if let Err(e) = self.insert_entry(parent, name, ino) {
            self.nodes.remove(&ino);
            return Err(e);
        }
        self.next_ino += 1;
        Ok(ino)
    }

    fn lookup(&mut self, path_str: &str) -> FsResult<Ino> {
        let parts = path::components(path_str)?;
        self.resolve(&parts)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        let now = self.tick();
        match self.nodes.get_mut(&ino) {
            // An empty write changes nothing, not even a size it would
            // extend (POSIX `pwrite` of zero bytes).
            Some(Node::File { .. }) if data.is_empty() => Ok(()),
            Some(Node::File {
                data: file, mtime, ..
            }) => {
                let end = offset as usize + data.len();
                if file.len() < end {
                    file.resize(end, 0);
                }
                file[offset as usize..end].copy_from_slice(data);
                *mtime = now;
                Ok(())
            }
            Some(Node::Dir { .. }) => Err(FsError::IsADirectory),
            None => Err(FsError::InvalidArgument("no such inode")),
        }
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        match self.nodes.get(&ino) {
            Some(Node::File { data, .. }) => {
                let start = (offset as usize).min(data.len());
                let n = buf.len().min(data.len() - start);
                buf[..n].copy_from_slice(&data[start..start + n]);
                Ok(n)
            }
            Some(Node::Dir { .. }) => Err(FsError::IsADirectory),
            None => Err(FsError::InvalidArgument("no such inode")),
        }
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        let now = self.tick();
        match self.nodes.get_mut(&ino) {
            Some(Node::File { data, mtime, .. }) => {
                data.resize(size as usize, 0);
                *mtime = now;
                Ok(())
            }
            Some(Node::Dir { .. }) => Err(FsError::IsADirectory),
            None => Err(FsError::InvalidArgument("no such inode")),
        }
    }

    fn unlink(&mut self, path_str: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path_str)?;
        let target = *self
            .dir_entries_mut(parent)
            .get(name)
            .ok_or(FsError::NotFound)?;
        if matches!(self.nodes.get(&target), Some(Node::Dir { .. })) {
            return Err(FsError::IsADirectory);
        }
        let now = self.tick();
        self.dir_entries_mut(parent).remove(name);
        if let Some(Node::Dir { mtime, .. }) = self.nodes.get_mut(&parent) {
            *mtime = now;
        }
        self.unref_file(target);
        Ok(())
    }

    fn rmdir(&mut self, path_str: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path_str)?;
        let target = *self
            .dir_entries_mut(parent)
            .get(name)
            .ok_or(FsError::NotFound)?;
        match self.nodes.get(&target) {
            Some(Node::Dir { entries, .. }) => {
                if !entries.is_empty() {
                    return Err(FsError::DirectoryNotEmpty);
                }
            }
            Some(Node::File { .. }) => return Err(FsError::NotADirectory),
            None => return Err(FsError::Corrupt("dangling entry".into())),
        }
        let now = self.tick();
        self.dir_entries_mut(parent).remove(name);
        if let Some(Node::Dir { mtime, .. }) = self.nodes.get_mut(&parent) {
            *mtime = now;
        }
        self.nodes.remove(&target);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let (to_parent, to_name) = self.resolve_parent(to)?;
        let src = *self
            .dir_entries_mut(from_parent)
            .get(from_name)
            .ok_or(FsError::NotFound)?;
        // Renaming a directory into itself or its descendants is out of
        // scope (as in the paper's workloads); reject directory sources
        // whose destination already exists, and file-over-dir replacements.
        if let Some(&dst) = self.dir_entries_mut(to_parent).get(to_name) {
            if dst == src {
                return Ok(());
            }
            let src_is_dir = matches!(self.nodes.get(&src), Some(Node::Dir { .. }));
            let dst_is_dir = matches!(self.nodes.get(&dst), Some(Node::Dir { .. }));
            if src_is_dir || dst_is_dir {
                return Err(FsError::AlreadyExists);
            }
            self.unref_file(dst);
        }
        let now = self.tick();
        self.dir_entries_mut(from_parent).remove(from_name);
        self.dir_entries_mut(to_parent)
            .insert(to_name.to_string(), src);
        for dir in [from_parent, to_parent] {
            if let Some(Node::Dir { mtime, .. }) = self.nodes.get_mut(&dir) {
                *mtime = now;
            }
        }
        Ok(())
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        let src = self.lookup(existing)?;
        if matches!(self.nodes.get(&src), Some(Node::Dir { .. })) {
            return Err(FsError::IsADirectory);
        }
        let (parent, name) = self.resolve_parent(new)?;
        self.insert_entry(parent, name, src)?;
        if let Some(Node::File { nlink, ctime, .. }) = self.nodes.get_mut(&src) {
            *nlink += 1;
            *ctime = self.clock;
        }
        Ok(())
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        match self.nodes.get(&ino) {
            Some(Node::File {
                data,
                nlink,
                mtime,
                ctime,
            }) => Ok(Metadata {
                ino,
                ftype: FileType::Regular,
                size: data.len() as u64,
                nlink: *nlink,
                mode: 0o644,
                mtime: *mtime,
                atime: 0,
                ctime: *ctime,
            }),
            Some(Node::Dir {
                entries,
                mtime,
                ctime,
            }) => Ok(Metadata {
                ino,
                ftype: FileType::Directory,
                size: entries.len() as u64,
                nlink: 1,
                mode: 0o755,
                mtime: *mtime,
                atime: 0,
                ctime: *ctime,
            }),
            None => Err(FsError::InvalidArgument("no such inode")),
        }
    }

    fn readdir(&mut self, path_str: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.lookup(path_str)?;
        match self.nodes.get(&ino) {
            Some(Node::Dir { entries, .. }) => {
                let mut out = Vec::with_capacity(entries.len());
                for (name, &child) in entries {
                    let ftype = match self.nodes.get(&child) {
                        Some(Node::Dir { .. }) => FileType::Directory,
                        _ => FileType::Regular,
                    };
                    out.push(DirEntry {
                        name: name.clone(),
                        ino: child,
                        ftype,
                    });
                }
                Ok(out)
            }
            Some(Node::File { .. }) => Err(FsError::NotADirectory),
            None => Err(FsError::Corrupt("dangling inode".into())),
        }
    }

    fn sync(&mut self) -> FsResult<()> {
        Ok(())
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        let mut live = 0u64;
        let mut files = 0u64;
        for (ino, node) in &self.nodes {
            if let Node::File { data, .. } = node {
                live += data.len() as u64;
                files += 1;
            } else if *ino != ROOT_INO {
                files += 1;
            }
        }
        Ok(StatFs {
            total_bytes: u64::MAX,
            live_bytes: live,
            num_files: files,
        })
    }
}

/// Asserts that two file systems hold the same tree: the same names and
/// types in every directory, and the same size, link count and contents
/// in every regular file. Panics at the first difference.
pub fn assert_same_tree(a: &mut impl FileSystem, b: &mut impl FileSystem) {
    fn walk(a: &mut impl FileSystem, b: &mut impl FileSystem, dir: &str) {
        let ea = a.readdir(dir).unwrap();
        let eb = b.readdir(dir).unwrap();
        let names = |es: &[DirEntry]| -> Vec<(String, FileType)> {
            es.iter().map(|e| (e.name.clone(), e.ftype)).collect()
        };
        assert_eq!(names(&ea), names(&eb), "directory {dir} differs");
        for e in &ea {
            let child = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            if e.ftype == FileType::Directory {
                walk(a, b, &child);
                continue;
            }
            let (ia, ib) = (a.lookup(&child).unwrap(), b.lookup(&child).unwrap());
            let (ma, mb) = (a.metadata(ia).unwrap(), b.metadata(ib).unwrap());
            assert_eq!(ma.size, mb.size, "{child} size");
            assert_eq!(ma.nlink, mb.nlink, "{child} nlink");
            let (da, db) = (a.read_to_vec(ia).unwrap(), b.read_to_vec(ib).unwrap());
            assert!(da == db, "{child} contents differ");
        }
    }
    walk(a, b, "/");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write_roundtrip() {
        let mut fs = ModelFs::new();
        let ino = fs.write_file("/f", b"hello world").unwrap();
        assert_eq!(fs.read_to_vec(ino).unwrap(), b"hello world");
    }

    #[test]
    fn create_in_missing_dir_fails() {
        let mut fs = ModelFs::new();
        assert!(matches!(fs.create("/no/f"), Err(FsError::NotFound)));
    }

    #[test]
    fn duplicate_create_fails() {
        let mut fs = ModelFs::new();
        fs.create("/f").unwrap();
        assert!(matches!(fs.create("/f"), Err(FsError::AlreadyExists)));
    }

    #[test]
    fn write_at_offset_creates_hole() {
        let mut fs = ModelFs::new();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 10, b"x").unwrap();
        let data = fs.read_to_vec(ino).unwrap();
        assert_eq!(data.len(), 11);
        assert!(data[..10].iter().all(|&b| b == 0));
        assert_eq!(data[10], b'x');
    }

    #[test]
    fn unlink_deletes_when_last_link_drops() {
        let mut fs = ModelFs::new();
        let ino = fs.write_file("/f", b"data").unwrap();
        fs.link("/f", "/g").unwrap();
        assert_eq!(fs.metadata(ino).unwrap().nlink, 2);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.metadata(ino).unwrap().nlink, 1);
        assert_eq!(fs.read_to_vec(ino).unwrap(), b"data");
        fs.unlink("/g").unwrap();
        assert!(fs.metadata(ino).is_err());
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = ModelFs::new();
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        assert!(matches!(fs.rmdir("/d"), Err(FsError::DirectoryNotEmpty)));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(fs.lookup("/d").is_err());
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = ModelFs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        let ino = fs.write_file("/a/f", b"1").unwrap();
        fs.write_file("/b/g", b"2").unwrap();
        fs.rename("/a/f", "/b/g").unwrap();
        assert!(fs.lookup("/a/f").is_err());
        assert_eq!(fs.lookup("/b/g").unwrap(), ino);
        assert_eq!(fs.read_to_vec(ino).unwrap(), b"1");
    }

    #[test]
    fn readdir_is_sorted_and_typed() {
        let mut fs = ModelFs::new();
        fs.mkdir("/z").unwrap();
        fs.create("/a").unwrap();
        let list = fs.readdir("/").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "a");
        assert_eq!(list[0].ftype, FileType::Regular);
        assert_eq!(list[1].name, "z");
        assert_eq!(list[1].ftype, FileType::Directory);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut fs = ModelFs::new();
        let ino = fs.write_file("/f", b"abcdef").unwrap();
        fs.truncate(ino, 3).unwrap();
        assert_eq!(fs.read_to_vec(ino).unwrap(), b"abc");
        fs.truncate(ino, 5).unwrap();
        assert_eq!(fs.read_to_vec(ino).unwrap(), b"abc\0\0");
    }

    #[test]
    fn statfs_counts_live_bytes_and_files() {
        let mut fs = ModelFs::new();
        fs.write_file("/f", &[0u8; 100]).unwrap();
        fs.mkdir("/d").unwrap();
        let s = fs.statfs().unwrap();
        assert_eq!(s.live_bytes, 100);
        assert_eq!(s.num_files, 2);
    }

    #[test]
    fn read_past_eof_returns_short() {
        let mut fs = ModelFs::new();
        let ino = fs.write_file("/f", b"abc").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read(ino, 1, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"bc");
        assert_eq!(fs.read(ino, 100, &mut buf).unwrap(), 0);
    }
}
