//! The filesystem seam the write path runs through.
//!
//! Everything durable — WAL segments, sealed partitions, the manifest —
//! goes through [`WalFs`], a flat namespace of store-relative file names
//! (`'/'` allowed, treated as directories only by [`StdFs`]). Two
//! implementations:
//!
//! * [`StdFs`] — the real filesystem under a root directory, with real
//!   `fsync` on [`WalFs::sync`] and atomic `rename`.
//! * [`SimFs`] — an in-memory model for the crash-recovery chaos suite.
//!   Each file tracks its full content *and* its durable prefix (advanced
//!   only by `sync`). A [`FaultHandle`] crash schedule (the same
//!   SplitMix64 machinery as [`tklus_storage::FaultPager`]'s crash
//!   channel) kills the write path at the Nth mutating operation: the
//!   dying append persists a seeded prefix of its bytes, every later
//!   operation fails [`WalError::Crashed`], and
//!   [`SimFs::crash_and_lose_unsynced`] then models the kernel dropping
//!   un-synced page-cache bytes — each file keeps its durable prefix plus
//!   a seeded slice of whatever was volatile, which is exactly the torn
//!   tail recovery must tolerate.
//!
//! Durability model of the directory operations: `create`, `rename`, and
//! `remove` are atomic and immediately durable (the journal-protected
//! metadata path), while *content* is durable only up to the last `sync`.
//! The write-temp/fsync/rename discipline the compactor uses is honest
//! under this model **only if it syncs before renaming** — a missing sync
//! shows up in the chaos suite as a manifest pointing at truncated files.

use crate::error::WalError;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use tklus_storage::{splitmix64, CrashVerdict, FaultHandle};

/// The flat file-store interface of the write path.
pub trait WalFs: Send + Sync {
    /// All file names in the store, sorted.
    fn list(&self) -> Result<Vec<String>, WalError>;
    /// Whole-file read.
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError>;
    /// Creates (or truncates) `name` as an empty file.
    fn create(&self, name: &str) -> Result<(), WalError>;
    /// Appends `bytes` to `name` (which must exist).
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
    /// Makes `name`'s current content durable.
    fn sync(&self, name: &str) -> Result<(), WalError>;
    /// Truncates `name` to `len` bytes (recovery's torn-tail cut).
    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError>;
    /// Atomically replaces `to` with `from` (the manifest swap). An
    /// error does not mean nothing happened: the rename itself may have
    /// landed before its directory fsync failed.
    fn rename(&self, from: &str, to: &str) -> Result<(), WalError>;
    /// Removes `name` (absent is fine — deletion is idempotent so a crash
    /// between compaction's removals just retries at the next open).
    fn remove(&self, name: &str) -> Result<(), WalError>;
}

fn io_err(op: &'static str, path: &str, source: std::io::Error) -> WalError {
    WalError::Io { op, path: path.to_string(), source }
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`WalFs`] over a root directory on the real filesystem.
pub struct StdFs {
    root: PathBuf,
}

impl StdFs {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, WalError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err("create_dir", &root.to_string_lossy(), e))?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Fsyncs the directory holding `name`, so a create, rename, or
    /// remove in it survives power loss. A failure is returned, never
    /// dropped: after a failed fsync the directory's durable state is
    /// unknown, and only the caller knows what that means.
    fn sync_dir(&self, op: &'static str, name: &str) -> Result<(), WalError> {
        let dir = self.path(name).parent().map(PathBuf::from).unwrap_or_else(|| self.root.clone());
        std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err(op, name, e))
    }
}

impl WalFs for StdFs {
    fn list(&self) -> Result<Vec<String>, WalError> {
        let mut out = Vec::new();
        let mut stack = vec![(self.root.clone(), String::new())];
        while let Some((dir, prefix)) = stack.pop() {
            let entries = std::fs::read_dir(&dir).map_err(|e| io_err("list", &prefix, e))?;
            for entry in entries {
                let entry = entry.map_err(|e| io_err("list", &prefix, e))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let rel = if prefix.is_empty() { name } else { format!("{prefix}/{name}") };
                let ty = entry.file_type().map_err(|e| io_err("list", &rel, e))?;
                if ty.is_dir() {
                    stack.push((entry.path(), rel));
                } else {
                    out.push(rel);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        std::fs::read(self.path(name)).map_err(|e| io_err("read", name, e))
    }

    fn create(&self, name: &str) -> Result<(), WalError> {
        if let Some(parent) = self.path(name).parent() {
            std::fs::create_dir_all(parent).map_err(|e| io_err("create", name, e))?;
        }
        std::fs::File::create(self.path(name)).map_err(|e| io_err("create", name, e))?;
        self.sync_dir("create", name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .map_err(|e| io_err("append", name, e))?;
        f.write_all(bytes).map_err(|e| io_err("append", name, e))
    }

    fn sync(&self, name: &str) -> Result<(), WalError> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("sync", name, e))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| io_err("truncate", name, e))?;
        f.set_len(len).and_then(|()| f.sync_all()).map_err(|e| io_err("truncate", name, e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), WalError> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| io_err("rename", from, e))?;
        self.sync_dir("rename", to)
    }

    fn remove(&self, name: &str) -> Result<(), WalError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir("remove", name),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", name, e)),
        }
    }
}

// ---------------------------------------------------------------------
// Simulated crash filesystem
// ---------------------------------------------------------------------

/// One simulated file: full (volatile) content plus the durable prefix.
#[derive(Debug, Clone, Default)]
struct SimFile {
    data: Vec<u8>,
    durable: usize,
}

/// In-memory [`WalFs`] with deterministic crash injection. See the module
/// docs for the durability model.
pub struct SimFs {
    files: Mutex<BTreeMap<String, SimFile>>,
    handle: Arc<FaultHandle>,
    seed: u64,
}

impl SimFs {
    /// An empty simulated store with a crash schedule seeded by `seed`.
    /// The returned [`FaultHandle`] arms crash points via
    /// [`FaultHandle::arm_crash_at`]; while disarmed the store behaves
    /// like a perfectly reliable disk.
    pub fn new(seed: u64) -> (Arc<Self>, Arc<FaultHandle>) {
        let handle = FaultHandle::new();
        (
            Arc::new(Self {
                files: Mutex::new(BTreeMap::new()),
                handle: Arc::clone(&handle),
                seed,
            }),
            handle,
        )
    }

    /// The crash-schedule handle.
    pub fn handle(&self) -> Arc<FaultHandle> {
        Arc::clone(&self.handle)
    }

    /// Models the machine dying and rebooting: every file loses its
    /// volatile suffix except a seeded prefix of it (the torn tail a real
    /// disk's partially flushed cache leaves behind), and the crash latch
    /// is cleared so the store accepts operations again. Call after the
    /// scheduled crash fired — or at any quiescent point to model an
    /// un-scheduled power cut.
    pub fn crash_and_lose_unsynced(&self) {
        let mut files = self.files.lock();
        for (name, file) in files.iter_mut() {
            let volatile = file.data.len() - file.durable;
            if volatile > 0 {
                let mut h = self.seed ^ 0xC0FF_EE00;
                for b in name.bytes() {
                    h = splitmix64(h ^ u64::from(b));
                }
                let keep = (splitmix64(h) % (volatile as u64 + 1)) as usize;
                file.data.truncate(file.durable + keep);
            }
            // What survived the reboot is what is on the platter now.
            file.durable = file.data.len();
        }
        self.handle.arm_crash_at(0);
    }

    /// A snapshot of `(name, durable_len, total_len)` for assertions.
    pub fn file_sizes(&self) -> Vec<(String, usize, usize)> {
        self.files.lock().iter().map(|(n, f)| (n.clone(), f.durable, f.data.len())).collect()
    }

    /// Consults the crash schedule for one mutating operation.
    fn gate(&self) -> Result<Option<u64>, WalError> {
        match self.handle.crash_verdict() {
            CrashVerdict::Proceed => Ok(None),
            CrashVerdict::Kill(op) => Ok(Some(op)),
            CrashVerdict::Dead => Err(WalError::Crashed),
        }
    }
}

impl WalFs for SimFs {
    fn list(&self) -> Result<Vec<String>, WalError> {
        if self.handle.is_crashed() {
            return Err(WalError::Crashed);
        }
        Ok(self.files.lock().keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        if self.handle.is_crashed() {
            return Err(WalError::Crashed);
        }
        self.files.lock().get(name).map(|f| f.data.clone()).ok_or_else(|| {
            io_err("read", name, std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"))
        })
    }

    fn create(&self, name: &str) -> Result<(), WalError> {
        if self.gate()?.is_some() {
            return Err(WalError::Crashed);
        }
        self.files.lock().insert(name.to_string(), SimFile::default());
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let kill = self.gate()?;
        let mut files = self.files.lock();
        let Some(file) = files.get_mut(name) else {
            return Err(io_err(
                "append",
                name,
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            ));
        };
        match kill {
            None => {
                file.data.extend_from_slice(bytes);
                Ok(())
            }
            Some(op) => {
                // The dying append lands a SplitMix64-sized prefix — from
                // nothing to everything — and the "process" never learns.
                let keep = (splitmix64(self.seed ^ op.wrapping_mul(0x9E37_79B9))
                    % (bytes.len() as u64 + 1)) as usize;
                file.data.extend_from_slice(&bytes[..keep]);
                Err(WalError::Crashed)
            }
        }
    }

    fn sync(&self, name: &str) -> Result<(), WalError> {
        if self.gate()?.is_some() {
            return Err(WalError::Crashed);
        }
        let mut files = self.files.lock();
        let Some(file) = files.get_mut(name) else {
            return Err(io_err(
                "sync",
                name,
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            ));
        };
        file.durable = file.data.len();
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        if self.gate()?.is_some() {
            return Err(WalError::Crashed);
        }
        let mut files = self.files.lock();
        let Some(file) = files.get_mut(name) else {
            return Err(io_err(
                "truncate",
                name,
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            ));
        };
        file.data.truncate(len as usize);
        file.durable = file.durable.min(file.data.len());
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), WalError> {
        if self.gate()?.is_some() {
            return Err(WalError::Crashed);
        }
        let mut files = self.files.lock();
        let Some(file) = files.remove(from) else {
            return Err(io_err(
                "rename",
                from,
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            ));
        };
        files.insert(to.to_string(), file);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), WalError> {
        if self.gate()?.is_some() {
            return Err(WalError::Crashed);
        }
        self.files.lock().remove(name);
        Ok(())
    }
}

/// Test-only [`WalFs`] wrapper with scripted *transient* failures —
/// unlike [`SimFs`]'s crash latch (which kills every later operation),
/// a `FlakyFs` fault fails one call and then recovers, modelling an
/// `ENOSPC`-style error the process survives. A scripted append failure
/// still lands a prefix of its bytes first, like a partial `write_all`.
#[cfg(test)]
pub(crate) struct FlakyFs {
    inner: Arc<SimFs>,
    /// `(appends until failure, bytes of the failing append that land)`.
    fail_append: Mutex<Option<(u32, usize)>>,
    /// Syncs until failure (the frame before it lands whole).
    fail_sync: Mutex<Option<u32>>,
}

#[cfg(test)]
impl FlakyFs {
    pub(crate) fn new(inner: Arc<SimFs>) -> Arc<Self> {
        Arc::new(Self { inner, fail_append: Mutex::new(None), fail_sync: Mutex::new(None) })
    }

    /// Fails the `nth` append from now (1-based), persisting `partial`
    /// bytes of it before erroring.
    pub(crate) fn fail_append_at(&self, nth: u32, partial: usize) {
        *self.fail_append.lock() = Some((nth, partial));
    }

    /// Fails the `nth` sync from now (1-based).
    pub(crate) fn fail_sync_at(&self, nth: u32) {
        *self.fail_sync.lock() = Some(nth);
    }

    fn flake(op: &'static str, name: &str) -> WalError {
        io_err(op, name, std::io::Error::other("flaky disk: out of space"))
    }
}

#[cfg(test)]
impl WalFs for FlakyFs {
    fn list(&self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.inner.read(name)
    }
    fn create(&self, name: &str) -> Result<(), WalError> {
        self.inner.create(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let mut script = self.fail_append.lock();
        if let Some((left, partial)) = script.as_mut() {
            *left -= 1;
            if *left == 0 {
                let keep = (*partial).min(bytes.len());
                *script = None;
                self.inner.append(name, &bytes[..keep])?;
                return Err(Self::flake("append", name));
            }
        }
        self.inner.append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), WalError> {
        let mut script = self.fail_sync.lock();
        if let Some(left) = script.as_mut() {
            *left -= 1;
            if *left == 0 {
                *script = None;
                return Err(Self::flake("sync", name));
            }
        }
        self.inner.sync(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        self.inner.truncate(name, len)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), WalError> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> Result<(), WalError> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code: panics are the failure report

    use super::*;

    #[test]
    fn sim_fs_sync_advances_durability() {
        let (fs, _) = SimFs::new(1);
        fs.create("a").unwrap();
        fs.append("a", b"hello ").unwrap();
        fs.sync("a").unwrap();
        fs.append("a", b"world").unwrap();
        fs.crash_and_lose_unsynced();
        let data = fs.read("a").unwrap();
        assert!(data.starts_with(b"hello "), "synced prefix must survive: {data:?}");
        assert!(data.len() <= b"hello world".len());
    }

    #[test]
    fn sim_fs_scheduled_crash_kills_everything_after() {
        let (fs, handle) = SimFs::new(7);
        fs.create("a").unwrap(); // op 1 pre-arm? No: arming resets the counter.
        handle.arm_crash_at(2);
        fs.append("a", b"one").unwrap(); // op 1
        assert!(matches!(fs.append("a", b"two"), Err(WalError::Crashed))); // op 2: dies
        assert!(matches!(fs.sync("a"), Err(WalError::Crashed)));
        assert!(matches!(fs.read("a"), Err(WalError::Crashed)));
        fs.crash_and_lose_unsynced();
        // Nothing was synced: whatever survived is a prefix of "onetwo"'s
        // written part; the store works again.
        let data = fs.read("a").unwrap();
        assert!(b"onetwo".starts_with(&data[..]), "{data:?}");
    }

    #[test]
    fn std_fs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tklus-wal-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = StdFs::open(&dir).unwrap();
        fs.create("seg/a.log").unwrap();
        fs.append("seg/a.log", b"abc").unwrap();
        fs.sync("seg/a.log").unwrap();
        fs.create("m.tmp").unwrap();
        fs.append("m.tmp", b"manifest").unwrap();
        fs.sync("m.tmp").unwrap();
        fs.rename("m.tmp", "MANIFEST").unwrap();
        assert_eq!(fs.read("MANIFEST").unwrap(), b"manifest");
        assert_eq!(fs.list().unwrap(), vec!["MANIFEST".to_string(), "seg/a.log".to_string()]);
        fs.truncate("seg/a.log", 1).unwrap();
        assert_eq!(fs.read("seg/a.log").unwrap(), b"a");
        fs.remove("seg/a.log").unwrap();
        fs.remove("seg/a.log").unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }
}
