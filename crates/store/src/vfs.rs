//! The store's filesystem seam: a minimal VFS trait with a production
//! implementation ([`StdVfs`]) and a deterministic crash injector
//! ([`FaultVfs`]).
//!
//! Every byte the store persists flows through this trait, so the
//! crash-recovery suite can kill the "process" at an exact byte offset:
//! [`FaultVfs`] carries a budget of mutating work, writes the partial
//! prefix that fits, and then fails *every* subsequent mutation — the
//! on-disk state is exactly what a `kill -9` at that instant would have
//! left behind (modulo sector-atomicity, which CRC framing covers).
//! Reads always pass through: recovery happens in a fresh "process".

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// A writable store file.
pub trait VfsFile: Write + Send {
    /// Durably flushes written bytes to the backing medium.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations the store needs. All paths are absolute.
pub trait Vfs: Send + Sync {
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to` (the commit primitive).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) inside a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Truncates a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Durably flushes directory metadata (created/renamed entries).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production VFS: plain `std::fs`.
#[derive(Default, Debug, Clone, Copy)]
pub struct StdVfs;

struct StdFile(std::fs::File);

impl Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for StdFile {
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(
            std::fs::OpenOptions::new().append(true).open(path)?,
        )))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is how renames become durable on POSIX. Best
        // effort elsewhere: opening a directory read-only can fail on
        // some platforms, which must not fail the store.
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all().or(Ok(())),
            Err(_) => Ok(()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

fn fault() -> io::Error {
    io::Error::other("injected crash: write budget exhausted")
}

/// Shared kill switch: a budget of mutating bytes/operations, after which
/// the simulated process is dead.
#[derive(Debug)]
struct FaultState {
    /// Remaining mutation budget. Writes consume their byte count;
    /// metadata mutations (create/rename/remove/truncate) consume
    /// [`FaultVfs::METADATA_COST`] each.
    budget: AtomicI64,
    /// Set once the budget ran out mid-operation; everything mutating
    /// fails from then on.
    dead: AtomicBool,
}

impl FaultState {
    /// Charges `cost` units; returns how many were granted. Marks the
    /// state dead when the grant falls short.
    fn charge(&self, cost: i64) -> i64 {
        if self.dead.load(Ordering::SeqCst) {
            return 0;
        }
        let before = self.budget.fetch_sub(cost, Ordering::SeqCst);
        let granted = before.clamp(0, cost);
        if granted < cost {
            self.dead.store(true, Ordering::SeqCst);
        }
        granted
    }
}

/// A [`Vfs`] that injects a crash at a configurable byte offset: the
/// `budget`-th mutated byte is the last one that reaches the inner VFS.
/// Deterministic — the same budget over the same operation sequence
/// always kills at the same point — which is what lets the proptest
/// crash suite enumerate kill points instead of relying on timing.
pub struct FaultVfs<V: Vfs> {
    inner: V,
    state: Arc<FaultState>,
}

impl<V: Vfs> FaultVfs<V> {
    /// Budget units charged per metadata mutation (create, rename,
    /// remove, truncate). Non-zero so kill points *between* file writes —
    /// e.g. after a checkpoint body is synced but before its rename — are
    /// reachable by budget choice.
    pub const METADATA_COST: i64 = 1;

    /// Wraps `inner`, allowing `budget` units of mutation before the
    /// simulated crash.
    pub fn new(inner: V, budget: i64) -> Self {
        Self {
            inner,
            state: Arc::new(FaultState {
                budget: AtomicI64::new(budget),
                dead: AtomicBool::new(false),
            }),
        }
    }

    /// Whether the injected crash has happened.
    pub fn tripped(&self) -> bool {
        self.state.dead.load(Ordering::SeqCst)
    }

    /// Remaining mutation budget (may be negative after the trip).
    pub fn remaining(&self) -> i64 {
        self.state.budget.load(Ordering::SeqCst)
    }

    fn metadata_gate(&self) -> io::Result<()> {
        if self.state.charge(Self::METADATA_COST) < Self::METADATA_COST {
            return Err(fault());
        }
        Ok(())
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let granted = self.state.charge(buf.len() as i64);
        if granted > 0 {
            // Flush the granted prefix so the torn write is actually on
            // disk — this is the mid-record kill the WAL must survive.
            self.inner.write_all(&buf[..granted as usize])?;
            let _ = self.inner.flush();
        }
        if (granted as usize) < buf.len() {
            return Err(fault());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.dead.load(Ordering::SeqCst) {
            return Err(fault());
        }
        self.inner.flush()
    }
}

impl VfsFile for FaultFile {
    fn sync(&mut self) -> io::Result<()> {
        if self.state.dead.load(Ordering::SeqCst) {
            return Err(fault());
        }
        self.inner.sync()
    }
}

impl<V: Vfs> Vfs for FaultVfs<V> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.metadata_gate()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.state.dead.load(Ordering::SeqCst) {
            return Err(fault());
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.open_append(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.metadata_gate()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.metadata_gate()?;
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.metadata_gate()?;
        self.inner.truncate(path, len)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // Directory creation happens once at open, before any feedback
        // exists; free so budgets index into the interesting work.
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.state.dead.load(Ordering::SeqCst) {
            return Err(fault());
        }
        self.inner.sync_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "selearn-vfs-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn fault_vfs_writes_exact_prefix_then_dies() {
        let dir = tmp_dir("prefix");
        let vfs = FaultVfs::new(StdVfs, FaultVfs::<StdVfs>::METADATA_COST + 10);
        let path = dir.join("f");
        let mut f = vfs.create(&path).expect("create");
        let err = f.write_all(b"0123456789abcdef").unwrap_err();
        assert_eq!(err.to_string(), fault().to_string());
        assert!(vfs.tripped());
        drop(f);
        assert_eq!(std::fs::read(&path).expect("read"), b"0123456789");
        // Everything mutating now fails; reads still work.
        assert!(vfs.create(&dir.join("g")).is_err());
        assert!(vfs.rename(&path, &dir.join("h")).is_err());
        assert!(vfs.read(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_vfs_charges_metadata_ops() {
        let dir = tmp_dir("meta");
        // Enough for exactly one metadata op: the second create dies.
        let vfs = FaultVfs::new(StdVfs, FaultVfs::<StdVfs>::METADATA_COST);
        assert!(vfs.create(&dir.join("a")).is_ok());
        assert!(vfs.create(&dir.join("b")).is_err());
        assert!(vfs.tripped());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn std_vfs_round_trip() {
        let dir = tmp_dir("std");
        let vfs = StdVfs;
        let path = dir.join("x");
        let mut f = vfs.create(&path).expect("create");
        f.write_all(b"hello").expect("write");
        f.sync().expect("sync");
        drop(f);
        let mut f = vfs.open_append(&path).expect("append");
        f.write_all(b" world").expect("write");
        drop(f);
        assert_eq!(vfs.read(&path).expect("read"), b"hello world");
        vfs.truncate(&path, 5).expect("truncate");
        assert_eq!(vfs.read(&path).expect("read"), b"hello");
        assert_eq!(vfs.list(&dir).expect("list"), vec!["x".to_string()]);
        vfs.rename(&path, &dir.join("y")).expect("rename");
        assert!(vfs.exists(&dir.join("y")) && !vfs.exists(&path));
        vfs.remove_file(&dir.join("y")).expect("rm");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
