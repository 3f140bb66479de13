//! Filesystem seam for deterministic storage-fault injection.
//!
//! Every durable write path in the workspace — the sealed journals
//! ([`DurableAppender`](crate::journal::DurableAppender)), the engine's
//! level checkpoints, per-job progress journals, and the daemon's job
//! journal and design cache — goes through a [`Vfs`] so storage
//! failures can be *injected on a schedule* instead of requiring a full
//! disk, a broken device, or root-only tmpfs tricks.
//!
//! Two implementations:
//!
//! * [`RealFs`] — the zero-cost default. File operations delegate
//!   straight to `std::fs`; the only added cost on the journal write
//!   path is one vtable dispatch per call, which is noise next to the
//!   `fdatasync` each durable append already pays.
//! * [`FaultFs`] — wraps another [`Vfs`] and injects ENOSPC, EIO,
//!   short writes, and torn syncs on a SplitMix64-seeded schedule
//!   ([`FaultConfig`]). The schedule is a pure function of the seed and
//!   the operation sequence, so a failing run replays exactly.
//!
//! Fault semantics mirror what real kernels do:
//!
//! * **enospc / eio** — the operation fails atomically; nothing
//!   reaches the file.
//! * **short** — a *prefix* of the buffer reaches the file, then the
//!   write errors: the torn-record shape a crash mid-`write` leaves.
//! * **torn** — on `sync_data`: bytes written since the last
//!   successful sync are partially truncated away before the sync
//!   errors, modeling data that never reached the platter.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open file behind the seam. Only the operations the durable
/// writers actually use — append, sync, truncate, seek-to-end.
pub trait VfsFile: Send + fmt::Debug {
    /// Writes the whole buffer (the journal's one-`write`-per-record
    /// contract relies on this being a single call).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`: the record is durable when this returns.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates (or extends) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Seeks to the end, returning the offset (= current file length).
    fn seek_end(&mut self) -> io::Result<u64>;
}

/// The filesystem operations the workspace's durable paths need.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates (truncating if present) a writable file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file read+write without truncating.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes a whole file (non-durable; pair with [`Vfs::rename`] for
    /// the temp-then-rename atomic-replace idiom).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production filesystem: straight delegation to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl VfsFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        self.seek(SeekFrom::End(0))
    }
}

impl Vfs for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(
            OpenOptions::new().read(true).write(true).open(path)?,
        ))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// The shared production filesystem handle — what every durable path
/// uses unless a fault schedule is injected.
pub fn real_fs() -> Arc<dyn Vfs> {
    Arc::new(RealFs)
}

/// SplitMix64 step — the workspace's standard cheap deterministic
/// stream (same generator the daemon's backoff jitter uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One kind of injectable storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`: the write fails atomically, disk-full style.
    Enospc,
    /// `EIO`: the operation fails atomically, flaky-device style.
    Eio,
    /// A prefix of the buffer lands, then the write errors.
    Short,
    /// `sync_data` truncates part of the unsynced tail, then errors.
    Torn,
}

/// A deterministic fault schedule: after `fail_after` fault-eligible
/// operations, each further operation faults with probability `rate`,
/// drawing the fault kind from `kinds`. Everything is derived from
/// `seed` via SplitMix64, so a schedule replays bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// SplitMix64 seed for the fault stream.
    pub seed: u64,
    /// Fault-eligible operations that always succeed before faults
    /// become possible (lets a run get off the ground).
    pub fail_after: u64,
    /// Per-operation fault probability once eligible, in `[0, 1]`.
    pub rate: f64,
    /// The kinds the schedule may inject (must be non-empty).
    pub kinds: Vec<FaultKind>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            fail_after: 0,
            rate: 1.0,
            kinds: vec![
                FaultKind::Enospc,
                FaultKind::Eio,
                FaultKind::Short,
                FaultKind::Torn,
            ],
        }
    }
}

impl FaultConfig {
    /// Parses the compact CLI form:
    /// `seed=7,after=10,rate=0.25,kinds=enospc|short`. Every field is
    /// optional; omitted fields take the [`Default`] (seed 0, no grace
    /// ops, rate 1.0, all kinds).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed field.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault field {part:?}: expected key=value"))?;
            match key.trim() {
                "seed" => {
                    cfg.seed = val
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad fault seed {val:?}: {e}"))?;
                }
                "after" => {
                    cfg.fail_after = val
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad fault after {val:?}: {e}"))?;
                }
                "rate" => {
                    let r: f64 = val
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad fault rate {val:?}: {e}"))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(format!("fault rate {r} outside [0, 1]"));
                    }
                    cfg.rate = r;
                }
                "kinds" => {
                    let mut kinds = Vec::new();
                    for k in val.split('|').filter(|k| !k.trim().is_empty()) {
                        kinds.push(match k.trim() {
                            "enospc" => FaultKind::Enospc,
                            "eio" => FaultKind::Eio,
                            "short" => FaultKind::Short,
                            "torn" => FaultKind::Torn,
                            other => return Err(format!("unknown fault kind {other:?}")),
                        });
                    }
                    if kinds.is_empty() {
                        return Err("fault kinds list is empty".to_string());
                    }
                    cfg.kinds = kinds;
                }
                other => return Err(format!("unknown fault field {other:?}")),
            }
        }
        Ok(cfg)
    }
}

#[derive(Debug, Default)]
struct FaultState {
    rng: u64,
    ops: u64,
    injected: u64,
}

/// A [`Vfs`] decorator injecting storage faults on a [`FaultConfig`]
/// schedule. All files opened through one `FaultFs` share its operation
/// counter and RNG stream, so a single-threaded run replays exactly.
#[derive(Debug, Clone)]
pub struct FaultFs {
    inner: Arc<dyn Vfs>,
    cfg: FaultConfig,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFs {
    /// A fault-injecting view over `inner`.
    pub fn new(inner: Arc<dyn Vfs>, cfg: FaultConfig) -> FaultFs {
        let rng = cfg.seed;
        FaultFs {
            inner,
            cfg,
            state: Arc::new(Mutex::new(FaultState {
                rng,
                ops: 0,
                injected: 0,
            })),
        }
    }

    /// Shorthand: a schedule over the real filesystem.
    pub fn over_real(cfg: FaultConfig) -> FaultFs {
        FaultFs::new(real_fs(), cfg)
    }

    /// Faults injected so far — test gates assert this is non-zero to
    /// prove the fault path actually ran.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("fault state").injected
    }

    /// Fault-eligible operations seen so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault state").ops
    }

    /// One schedule step: count the operation, decide whether it
    /// faults, and if so which kind. Also returns a raw draw for
    /// fault-internal choices (the torn-sync cut point).
    fn decide(&self) -> Option<(FaultKind, u64)> {
        let mut st = self.state.lock().expect("fault state");
        st.ops += 1;
        if st.ops <= self.cfg.fail_after {
            return None;
        }
        let draw = splitmix64(&mut st.rng);
        // Map the draw to [0, 1) with 53-bit precision.
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.cfg.rate {
            return None;
        }
        let pick = splitmix64(&mut st.rng);
        let kind = self.cfg.kinds[(pick % self.cfg.kinds.len() as u64) as usize];
        let aux = splitmix64(&mut st.rng);
        st.injected += 1;
        Some((kind, aux))
    }
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

fn eio() -> io::Error {
    io::Error::from_raw_os_error(5) // EIO
}

/// Maps a metadata-operation fault (create/rename/whole-file write) to
/// an error: short/torn degrade to EIO, which is what a failed
/// metadata op looks like from userspace.
fn meta_error(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Enospc => enospc(),
        _ => eio(),
    }
}

impl Vfs for FaultFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if let Some((kind, _)) = self.decide() {
            return Err(meta_error(kind));
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            fs: self.clone(),
            len: 0,
            synced_len: 0,
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if let Some((kind, _)) = self.decide() {
            return Err(meta_error(kind));
        }
        Ok(Box::new(FaultFile {
            inner: self.inner.open_rw(path)?,
            fs: self.clone(),
            len: 0,
            synced_len: 0,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.decide().is_some() {
            return Err(eio());
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide() {
            None => self.inner.write(path, bytes),
            Some((FaultKind::Short, aux)) if !bytes.is_empty() => {
                // A prefix lands — the torn-artifact shape ENOSPC
                // mid-write leaves for whole-file writes.
                let cut = (aux % bytes.len() as u64) as usize;
                self.inner.write(path, &bytes[..cut])?;
                Err(enospc())
            }
            Some((kind, _)) => Err(meta_error(kind)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some((kind, _)) = self.decide() {
            return Err(meta_error(kind));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        // Deletion never faults: retention/GC must stay able to free
        // space on a disk that is failing writes — exactly when it is
        // needed most.
        self.inner.remove_file(path)
    }
}

/// A file opened through a [`FaultFs`]: tracks written vs synced
/// lengths so torn syncs can chop the unsynced tail deterministically.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    fs: FaultFs,
    len: u64,
    synced_len: u64,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.fs.decide() {
            None => {
                self.inner.write_all(buf)?;
                self.len += buf.len() as u64;
                Ok(())
            }
            Some((FaultKind::Short, aux)) if buf.len() > 1 => {
                // Strictly partial: at least one byte lands, at least
                // one is lost — the single-torn-record crash shape.
                let cut = 1 + (aux % (buf.len() as u64 - 1)) as usize;
                self.inner.write_all(&buf[..cut])?;
                self.len += cut as u64;
                Err(enospc())
            }
            Some((FaultKind::Enospc, _)) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.fs.decide() {
            None => {
                self.inner.sync_data()?;
                self.synced_len = self.len;
                Ok(())
            }
            Some((FaultKind::Torn, aux)) if self.len > self.synced_len => {
                // Part of the unsynced tail never reached the platter:
                // truncate to somewhere in (synced_len, len), then fail
                // the sync. The journal reader sees one torn record.
                let span = self.len - self.synced_len;
                let keep = self.synced_len + aux % span;
                self.inner.set_len(keep)?;
                self.len = keep;
                Err(eio())
            }
            Some((FaultKind::Enospc, _)) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        // Truncation is part of crash *recovery* (dropping a torn
        // tail); like remove_file it never faults.
        self.inner.set_len(len)?;
        self.len = len;
        self.synced_len = self.synced_len.min(len);
        Ok(())
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        let off = self.inner.seek_end()?;
        self.len = off;
        self.synced_len = off;
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{read_journal, DurableAppender};
    use crate::json::Value;

    fn rec(i: u64) -> Value {
        Value::obj().with("type", "t").with("i", i)
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sllt_vfs_{tag}_{}", std::process::id()))
    }

    #[test]
    fn fault_config_parses_and_rejects() {
        let c = FaultConfig::parse("seed=7,after=10,rate=0.25,kinds=enospc|short").unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.fail_after, 10);
        assert_eq!(c.rate, 0.25);
        assert_eq!(c.kinds, vec![FaultKind::Enospc, FaultKind::Short]);
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
        assert!(FaultConfig::parse("rate=2.0").is_err());
        assert!(FaultConfig::parse("kinds=bogus").is_err());
        assert!(FaultConfig::parse("nope=1").is_err());
        assert!(FaultConfig::parse("seed").is_err());
    }

    #[test]
    fn schedule_is_deterministic() {
        let cfg = FaultConfig::parse("seed=42,after=3,rate=0.5").unwrap();
        let run = || {
            let fs = FaultFs::over_real(cfg.clone());
            let mut kinds = Vec::new();
            for _ in 0..64 {
                kinds.push(fs.decide().map(|(k, _)| k));
            }
            kinds
        };
        let a = run();
        assert_eq!(a, run(), "same seed must replay the same schedule");
        assert!(a.iter().take(3).all(Option::is_none), "grace ops held");
        assert!(a.iter().any(Option::is_some), "rate 0.5 must fire in 64");
        assert!(a.iter().any(Option::is_none));
    }

    #[test]
    fn enospc_write_leaves_no_bytes_and_journal_stays_readable() {
        let path = tmp("enospc");
        let cfg = FaultConfig::parse("seed=1,after=3,kinds=enospc").unwrap();
        let fs = FaultFs::over_real(cfg);
        // Op 1 = create; ops 2..=3 = first append's write+sync succeed.
        let mut app = DurableAppender::create_with(&fs, &path).unwrap();
        app.append(&rec(0)).unwrap();
        let err = app.append(&rec(1)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
        drop(app);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records, vec![rec(0)]);
        assert!(j.torn_tail.is_none(), "ENOSPC is atomic: no torn bytes");
        assert!(fs.injected() >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_leaves_exactly_one_torn_tail() {
        let path = tmp("short");
        let cfg = FaultConfig::parse("seed=9,after=3,kinds=short").unwrap();
        let fs = FaultFs::over_real(cfg);
        let mut app = DurableAppender::create_with(&fs, &path).unwrap();
        app.append(&rec(0)).unwrap();
        assert!(app.append(&rec(1)).is_err());
        drop(app);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records, vec![rec(0)]);
        assert!(j.torn_tail.is_some(), "a strict prefix landed");
        // Recovery: truncate the tear, append again through clean fs.
        let mut app = DurableAppender::reopen(&path, j.valid_len).unwrap();
        app.append(&rec(2)).unwrap();
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records, vec![rec(0), rec(2)]);
        assert!(j.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_sync_truncates_the_unsynced_tail() {
        let path = tmp("torn");
        let cfg = FaultConfig::parse("seed=5,after=4,kinds=torn").unwrap();
        let fs = FaultFs::over_real(cfg);
        let mut app = DurableAppender::create_with(&fs, &path).unwrap();
        app.append(&rec(0)).unwrap(); // ops 2,3 (write, sync)
                                      // Op 4 is the next write (grace), op 5 the sync -> torn.
        assert!(app.append(&rec(1)).is_err());
        drop(app);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records, vec![rec(0)], "unsynced record must be torn");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rate_zero_injects_nothing() {
        let path = tmp("clean");
        let fs = FaultFs::over_real(FaultConfig::parse("rate=0").unwrap());
        let mut app = DurableAppender::create_with(&fs, &path).unwrap();
        for i in 0..8 {
            app.append(&rec(i)).unwrap();
        }
        drop(app);
        assert_eq!(fs.injected(), 0);
        assert_eq!(read_journal(&path).unwrap().records.len(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn whole_file_write_and_rename_fault_atomically_or_partially() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("sllt_vfs_wf_a_{}", std::process::id()));
        let b = dir.join(format!("sllt_vfs_wf_b_{}", std::process::id()));
        let fs = FaultFs::over_real(FaultConfig::parse("seed=3,kinds=enospc").unwrap());
        assert!(fs.write(&a, b"payload").is_err());
        assert!(!a.exists(), "ENOSPC whole-file write must be atomic");
        let real = real_fs();
        real.write(&a, b"payload").unwrap();
        assert!(fs.rename(&a, &b).is_err());
        assert!(a.exists() && !b.exists(), "failed rename must not move");
        real.remove_file(&a).unwrap();
    }
}
