//! The write-ahead snapshot directory: crash-safe persistence for
//! session images.
//!
//! ## Atomicity & fsync story
//!
//! A snapshot is never written in place. Each save goes to
//! `sess-<id>.g<gen>.awrs.tmp`, is `fsync`ed, atomically renamed to
//! `sess-<id>.g<gen>.awrs`, and the *directory* is `fsync`ed so the
//! rename itself survives a power cut. A reader therefore never
//! observes a half-renamed file; what it can observe — on filesystems
//! that reorder data and metadata, or after outright disk corruption —
//! is a final file with mangled bytes, which is why every file carries
//! a length prefix and checksum and why the store keeps **two
//! generations** per session: if `g<N>` fails to decode, `g<N-1>` is
//! tried before the session is declared unrecoverable. Wealth is never
//! silently reset — a session whose every generation is corrupt answers
//! `corrupt_snapshot`, not a fresh budget.
//!
//! ## Naming
//!
//! `sess-<id>.g<gen>.awrs`, with `id` and `gen` in decimal. Scanning
//! the directory on startup rebuilds the index (latest generation per
//! session) without reading any payload — restore is lazy, paid by the
//! first command that touches a spilled session.
//!
//! ## Replica images
//!
//! A shard holding a *warm replica* of a session homed elsewhere keeps
//! the shipped image as `repl-<id>.e<epoch>.awrs` — same tmp + fsync +
//! rename discipline, but a separate namespace: a replica is never a
//! generation of the primary, and the primary scan ignores it. The
//! store keeps no replica index: the service's held-replica map is the
//! one record, every replica call names its epoch, and
//! [`SnapshotStore::replica_entries`] scans the directory once, at
//! service start. The epoch lives in the file name so a restarted shard
//! (and a restarted router scanning via `list_sessions`) knows exactly
//! how fresh each held image is without decoding it. Promotion re-reads
//! the file as the authoritative bytes and re-validates from scratch —
//! a tampered replica fails there and is refused, never adopted.
//!
//! ## Fault injection
//!
//! The chaos harness needs the *disk* half of its fault matrix here:
//! [`SnapshotStore::set_fault_hook`] installs a callback consulted
//! once per durable write (primary and replica paths alike) that can
//! inject a short write, ENOSPC, or an fsync failure. The invariant
//! under every injected fault is the one the tmp + rename discipline
//! already provides against real crashes: a failed save never
//! advances the index, never touches the previous generation, and the
//! next `load` still answers with the last durable image — wealth is
//! never reset by a disk that misbehaves mid-save.

use crate::error::{ErrorCode, ServeError};
use crate::proto::SessionId;
use crate::snapshot::{self, SessionImage};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot generations kept per session; older ones are pruned after a
/// successful save.
pub const GENERATIONS_KEPT: u64 = 2;

/// An injectable write-path fault — the disk half of the chaos
/// harness. Returned by a [`SnapshotStore::set_fault_hook`] callback
/// to make the *next stage* of a durable write fail exactly the way a
/// sick disk would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Persist only the first `n` bytes of the tmp file, then fail —
    /// the torn tail a crash mid-`write` leaves behind.
    ShortWrite(usize),
    /// Refuse the data write outright: no space left on device.
    NoSpace,
    /// Accept every byte but fail the `fsync` — data may or may not be
    /// on the platter, so the save must not be considered durable.
    FsyncFail,
}

/// Callback consulted once per durable write with the final path the
/// write is headed for (`sess-…` or `repl-…`).
type FaultHook = Box<dyn Fn(&Path) -> Option<WriteFault> + Send + Sync>;

/// A directory of durable session snapshots.
pub struct SnapshotStore {
    root: PathBuf,
    /// Latest known generation per session.
    index: Mutex<HashMap<SessionId, u64>>,
    /// Serializes writers (and `remove`): two concurrent saves of the
    /// same session must not race on one generation's tmp/final path,
    /// and a save in flight while `remove` runs must finish before the
    /// files go. Readers never take this lock, so lazy restores are
    /// never stuck behind an fsync.
    save_lock: Mutex<()>,
    /// Sessions removed after a clean close: a late save (the periodic
    /// snapshotter holding a stale entry) must not resurrect them. Ids
    /// are never reallocated, so a tombstone is one u64 forever.
    retired: Mutex<HashSet<SessionId>>,
    /// Snapshot files that failed to decode since the store opened.
    corrupt: AtomicU64,
    /// Chaos hook consulted once per durable write; see [`WriteFault`].
    fault_hook: Mutex<Option<FaultHook>>,
    /// Writes the hook actually failed since the store opened.
    faults: AtomicU64,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory and scans it.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<SnapshotStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let index = scan(&root, "sess-", ".g")?;
        Ok(SnapshotStore {
            root,
            index: Mutex::new(index),
            save_lock: Mutex::new(()),
            retired: Mutex::new(HashSet::new()),
            corrupt: AtomicU64::new(0),
            fault_hook: Mutex::new(None),
            faults: AtomicU64::new(0),
        })
    }

    /// Installs the chaos hook: consulted once per durable write with
    /// the final path, and whatever [`WriteFault`] it returns is
    /// injected into that write. Replaces any previous hook.
    pub fn set_fault_hook(
        &self,
        hook: impl Fn(&Path) -> Option<WriteFault> + Send + Sync + 'static,
    ) {
        *self.fault_hook.lock().unwrap() = Some(Box::new(hook));
    }

    /// Removes the chaos hook — the disk is healthy again.
    pub fn clear_fault_hook(&self) {
        *self.fault_hook.lock().unwrap() = None;
    }

    /// Writes the hook actually failed since the store opened.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// The tmp + fsync + rename + directory-fsync discipline both save
    /// paths share, with the chaos hook applied. On any failure —
    /// injected or real — the final path is untouched: the tmp file is
    /// left behind exactly as a crash would leave it (the startup scan
    /// ignores it) and the caller's index entry is not advanced.
    fn write_durable(&self, tmp_path: &Path, final_path: &Path, bytes: &[u8]) -> io::Result<()> {
        let fault = self
            .fault_hook
            .lock()
            .unwrap()
            .as_ref()
            .and_then(|hook| hook(final_path));
        if fault.is_some() {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        if matches!(fault, Some(WriteFault::NoSpace)) {
            return Err(io::Error::other("no space left on device (injected)"));
        }
        let mut file = fs::File::create(tmp_path)?;
        if let Some(WriteFault::ShortWrite(n)) = fault {
            let n = n.min(bytes.len());
            io::Write::write_all(&mut file, &bytes[..n])?;
            let _ = file.sync_all();
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("short write (injected): {n} of {} bytes", bytes.len()),
            ));
        }
        io::Write::write_all(&mut file, bytes)?;
        if matches!(fault, Some(WriteFault::FsyncFail)) {
            return Err(io::Error::other("fsync failed (injected)"));
        }
        file.sync_all()?;
        fs::rename(tmp_path, final_path)?;
        // Persist the rename: fsync the directory entry.
        fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }

    /// The directory this store writes into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of sessions with at least one on-disk snapshot.
    pub fn persisted(&self) -> u64 {
        self.index.lock().unwrap().len() as u64
    }

    /// Snapshot files that failed to decode since the store opened.
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// True when `id` has an on-disk snapshot.
    pub fn contains(&self, id: SessionId) -> bool {
        self.index.lock().unwrap().contains_key(&id)
    }

    /// Ids of every persisted session (startup reporting).
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.index.lock().unwrap().keys().copied().collect()
    }

    /// The largest persisted session id, if any — a restarted server
    /// resumes id allocation above it so restored sessions and new ones
    /// can never collide.
    pub fn max_session_id(&self) -> Option<SessionId> {
        self.index.lock().unwrap().keys().max().copied()
    }

    fn file_path(&self, id: SessionId, gen: u64) -> PathBuf {
        self.root.join(format!("sess-{id}.g{gen}.awrs"))
    }

    /// Durably writes a new generation for `image.id`: tmp + fsync +
    /// rename + directory fsync, then prunes generations older than
    /// [`GENERATIONS_KEPT`]. A save for a session already removed by
    /// [`SnapshotStore::remove`] is a no-op — closed sessions stay
    /// closed.
    pub fn save(&self, image: &SessionImage) -> io::Result<()> {
        let bytes = snapshot::encode(image);
        let _writers = self.save_lock.lock().unwrap();
        if self.retired.lock().unwrap().contains(&image.id) {
            return Ok(());
        }
        let gen = {
            let index = self.index.lock().unwrap();
            index.get(&image.id).map_or(1, |g| g + 1)
        };
        let final_path = self.file_path(image.id, gen);
        let tmp_path = final_path.with_extension("awrs.tmp");
        self.write_durable(&tmp_path, &final_path, &bytes)?;
        self.index.lock().unwrap().insert(image.id, gen);
        if gen > GENERATIONS_KEPT {
            let _ = fs::remove_file(self.file_path(image.id, gen - GENERATIONS_KEPT));
        }
        Ok(())
    }

    /// Loads the newest decodable generation of `id`. Corrupt
    /// generations are skipped (and counted); if every generation is
    /// corrupt the session is unrecoverable and the caller gets
    /// [`ErrorCode::CorruptSnapshot`] — never a silently reset wealth.
    pub fn load(&self, id: SessionId) -> Result<SessionImage, ServeError> {
        let Some(latest) = self.index.lock().unwrap().get(&id).copied() else {
            return Err(ServeError::unknown_session(id));
        };
        let mut last_error: Option<ServeError> = None;
        for gen in (latest.saturating_sub(GENERATIONS_KEPT - 1)..=latest).rev() {
            let path = self.file_path(id, gen);
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => {
                    last_error = Some(ServeError {
                        code: ErrorCode::CorruptSnapshot,
                        message: format!("cannot read {}: {e}", path.display()),
                    });
                    continue;
                }
            };
            match snapshot::decode(&bytes) {
                Ok(image) if image.id == id => return Ok(image),
                Ok(image) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    last_error = Some(ServeError {
                        code: ErrorCode::CorruptSnapshot,
                        message: format!(
                            "{} contains session {} (expected {id})",
                            path.display(),
                            image.id
                        ),
                    });
                }
                Err(e) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    last_error = Some(ServeError {
                        code: ErrorCode::CorruptSnapshot,
                        message: format!("{}: {}", path.display(), e.message),
                    });
                }
            }
        }
        Err(last_error.unwrap_or_else(|| ServeError {
            code: ErrorCode::CorruptSnapshot,
            message: format!("every snapshot generation of session {id} is missing"),
        }))
    }

    /// Clears `id`'s tombstone so the session can persist here again —
    /// every install (create, import, promotion) calls this: a session
    /// closed or exported off this shard (which tombstones the id
    /// against late snapshotter saves) that later enters *again* must
    /// not find its saves silently refused forever.
    pub fn revive(&self, id: SessionId) {
        let _writers = self.save_lock.lock().unwrap();
        self.retired.lock().unwrap().remove(&id);
    }

    /// Deletes `id`'s on-disk generations (after a clean close) and
    /// tombstones the id so an in-flight snapshotter save cannot
    /// resurrect the session.
    pub fn remove(&self, id: SessionId) {
        let _writers = self.save_lock.lock().unwrap();
        self.retired.lock().unwrap().insert(id);
        let Some(latest) = self.index.lock().unwrap().remove(&id) else {
            return;
        };
        // Only the last GENERATIONS_KEPT files can exist (saves prune),
        // plus possibly a tmp leftover from a crashed write.
        for gen in latest.saturating_sub(GENERATIONS_KEPT - 1)..=latest {
            let _ = fs::remove_file(self.file_path(id, gen));
        }
        let _ = fs::remove_file(self.file_path(id, latest + 1).with_extension("awrs.tmp"));
    }

    // -- replica images -----------------------------------------------------

    fn replica_path(&self, id: SessionId, epoch: u64) -> PathBuf {
        self.root.join(format!("repl-{id}.e{epoch}.awrs"))
    }

    /// Durably writes the replica image for `id` at `epoch` (tmp +
    /// fsync + rename + directory fsync) and deletes the `replaced`
    /// epoch's file. The caller has already validated the bytes; the
    /// store just keeps them safe.
    pub fn save_replica(
        &self,
        id: SessionId,
        epoch: u64,
        replaced: Option<u64>,
        bytes: &[u8],
    ) -> io::Result<()> {
        let _writers = self.save_lock.lock().unwrap();
        let final_path = self.replica_path(id, epoch);
        self.write_durable(&final_path.with_extension("awrs.tmp"), &final_path, bytes)?;
        if let Some(replaced) = replaced.filter(|&r| r != epoch) {
            let _ = fs::remove_file(self.replica_path(id, replaced));
        }
        Ok(())
    }

    /// Reads the replica image of `id` at `epoch` straight from disk —
    /// the authoritative bytes a promotion re-validates.
    pub fn load_replica(&self, id: SessionId, epoch: u64) -> Option<Vec<u8>> {
        fs::read(self.replica_path(id, epoch)).ok()
    }

    /// Deletes the replica image of `id` at `epoch` (idempotent).
    pub fn remove_replica(&self, id: SessionId, epoch: u64) {
        let _writers = self.save_lock.lock().unwrap();
        let path = self.replica_path(id, epoch);
        let _ = fs::remove_file(path.with_extension("awrs.tmp"));
        let _ = fs::remove_file(path);
    }

    /// Every replica image on disk as `(session, latest epoch)` — one
    /// directory scan, which re-seeds the service's held-replica map at
    /// start.
    pub fn replica_entries(&self) -> io::Result<Vec<(SessionId, u64)>> {
        Ok(scan(&self.root, "repl-", ".e")?.into_iter().collect())
    }
}

/// The newest `<n>` per id among `<prefix><id><sep><n>.awrs` files in
/// `root`; tmp leftovers and foreign files are ignored.
fn scan(root: &Path, prefix: &str, sep: &str) -> io::Result<HashMap<SessionId, u64>> {
    let mut latest: HashMap<SessionId, u64> = HashMap::new();
    for entry in fs::read_dir(root)? {
        let name = entry?.file_name();
        if let Some((id, n)) = parse_name(&name.to_string_lossy(), prefix, sep) {
            let newest = latest.entry(id).or_insert(n);
            *newest = (*newest).max(n);
        }
    }
    Ok(latest)
}

/// Parses `<prefix><id><sep><n>.awrs` (`sess-<id>.g<gen>.awrs`,
/// `repl-<id>.e<epoch>.awrs`).
fn parse_name(name: &str, prefix: &str, sep: &str) -> Option<(SessionId, u64)> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(".awrs")?;
    let (id, n) = rest.split_once(sep)?;
    Some((id.parse().ok()?, n.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PolicySpec;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::Predicate;
    use std::sync::Arc;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aware-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn image(id: SessionId, steps: usize) -> SessionImage {
        let table = Arc::new(CensusGenerator::new(5).generate(800));
        let policy = PolicySpec::Fixed { gamma: 10.0 };
        let mut s =
            aware_core::session::Session::shared(table, 0.05, policy.build().unwrap()).unwrap();
        for i in 0..steps {
            let filter = Predicate::eq("survey_wave", format!("Wave-{}", (i % 4) + 1).as_str());
            let _ = s.add_visualization("race", filter);
        }
        SessionImage {
            id,
            dataset: "census".into(),
            fingerprint: Some(0x1234_5678_9abc_def0),
            policy,
            policy_since: 0,
            session: s.snapshot(),
        }
    }

    #[test]
    fn save_load_remove_lifecycle() {
        let root = temp_root("lifecycle");
        let store = SnapshotStore::open(&root).unwrap();
        assert_eq!(store.persisted(), 0);
        assert!(!store.contains(7));
        let img = image(7, 2);
        store.save(&img).unwrap();
        assert!(store.contains(7));
        assert_eq!(store.persisted(), 1);
        assert_eq!(store.load(7).unwrap(), img);
        assert_eq!(store.load(8).unwrap_err().code, ErrorCode::UnknownSession);
        store.remove(7);
        assert!(!store.contains(7));
        assert!(
            fs::read_dir(&root).unwrap().next().is_none(),
            "no leftovers"
        );
        // A save racing past a close is a no-op: closed sessions stay
        // closed (the snapshotter may hold a stale entry Arc).
        store.save(&img).unwrap();
        assert!(!store.contains(7), "tombstone must refuse resurrection");
        assert!(fs::read_dir(&root).unwrap().next().is_none());
        // …but an id revived by an import persists again: the session
        // deliberately came back, this is not a race.
        store.revive(7);
        store.save(&img).unwrap();
        assert!(store.contains(7), "revived id must persist again");
        assert_eq!(store.load(7).unwrap(), img);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn generations_rotate_and_scan_resumes() {
        let root = temp_root("generations");
        let store = SnapshotStore::open(&root).unwrap();
        for steps in 1..=4 {
            store.save(&image(3, steps)).unwrap();
        }
        // Only the two newest generations remain on disk.
        let mut names: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["sess-3.g3.awrs", "sess-3.g4.awrs"]);
        // A fresh store (server restart) scans the same state and keeps
        // allocating generations above it.
        let reopened = SnapshotStore::open(&root).unwrap();
        assert_eq!(reopened.persisted(), 1);
        assert_eq!(reopened.max_session_id(), Some(3));
        assert_eq!(
            reopened.load(3).unwrap().session.visualizations.len(),
            4,
            "newest generation wins"
        );
        reopened.save(&image(3, 5)).unwrap();
        assert!(root.join("sess-3.g5.awrs").exists());
        assert!(!root.join("sess-3.g3.awrs").exists(), "pruned");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_newest_generation_falls_back_to_previous() {
        let root = temp_root("torn");
        let store = SnapshotStore::open(&root).unwrap();
        store.save(&image(9, 1)).unwrap();
        store.save(&image(9, 2)).unwrap();
        // Tear the newest file at an arbitrary byte.
        let newest = root.join("sess-9.g2.awrs");
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let reopened = SnapshotStore::open(&root).unwrap();
        let restored = reopened.load(9).unwrap();
        assert_eq!(restored.session.visualizations.len(), 1, "previous gen");
        assert_eq!(reopened.corrupt_count(), 1);
        // Tear the fallback too: the session is unrecoverable, loudly.
        let previous = root.join("sess-9.g1.awrs");
        let bytes = fs::read(&previous).unwrap();
        fs::write(&previous, &bytes[..bytes.len() / 2]).unwrap();
        let err = reopened.load(9).unwrap_err();
        assert_eq!(err.code, ErrorCode::CorruptSnapshot);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn replica_images_live_in_their_own_namespace() {
        let root = temp_root("replica");
        let store = SnapshotStore::open(&root).unwrap();
        // A replica is not a primary: saving one changes nothing about
        // the primary index, and vice versa.
        store.save_replica(7, 1, None, b"replica bytes e1").unwrap();
        assert!(!store.contains(7));
        assert_eq!(store.persisted(), 0);
        assert_eq!(store.replica_entries().unwrap(), vec![(7, 1)]);
        assert_eq!(store.load_replica(7, 1), Some(b"replica bytes e1".to_vec()));
        // A newer epoch supersedes (and deletes) the older file.
        store
            .save_replica(7, 5, Some(1), b"replica bytes e5")
            .unwrap();
        assert!(!root.join("repl-7.e1.awrs").exists(), "superseded");
        assert!(root.join("repl-7.e5.awrs").exists());
        assert_eq!(store.load_replica(7, 5), Some(b"replica bytes e5".to_vec()));
        // A restart rescans the replica namespace with epochs intact.
        store.save(&image(7, 1)).unwrap();
        let reopened = SnapshotStore::open(&root).unwrap();
        assert_eq!(reopened.replica_entries().unwrap(), vec![(7, 5)]);
        assert!(reopened.contains(7), "primary scan unaffected");
        // Dropping a replica leaves the primary alone, and is
        // idempotent.
        reopened.remove_replica(7, 5);
        reopened.remove_replica(7, 5);
        assert!(reopened.replica_entries().unwrap().is_empty());
        assert_eq!(reopened.load_replica(7, 5), None);
        assert!(reopened.contains(7));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_disk_faults_never_lose_the_previous_generation() {
        let root = temp_root("faults");
        let store = SnapshotStore::open(&root).unwrap();
        let durable = image(4, 1);
        store.save(&durable).unwrap();

        // Every fault flavor in turn: the save errors loudly, the index
        // does not advance, and the last durable image still loads —
        // wealth is never reset by a sick disk.
        for fault in [
            WriteFault::ShortWrite(4),
            WriteFault::NoSpace,
            WriteFault::FsyncFail,
        ] {
            store.set_fault_hook(move |_| Some(fault));
            let err = store.save(&image(4, 3)).unwrap_err();
            assert!(
                err.to_string().contains("injected"),
                "{fault:?}: unexpected error {err}"
            );
            assert_eq!(store.load(4).unwrap(), durable, "{fault:?} lost data");
            assert!(
                !root.join("sess-4.g2.awrs").exists(),
                "{fault:?} must not produce a final file"
            );
        }
        assert_eq!(store.faults_injected(), 3);

        // The replica path rides the same discipline.
        let err = store
            .save_replica(9, 1, None, b"replica bytes")
            .unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert!(store.replica_entries().unwrap().is_empty());
        assert_eq!(store.load_replica(9, 1), None);

        // Disk healed: the very next save lands, and a rescan (restart)
        // sees only intact state despite the torn tmp leftovers.
        store.clear_fault_hook();
        let healed = image(4, 3);
        store.save(&healed).unwrap();
        assert_eq!(store.load(4).unwrap(), healed);
        let reopened = SnapshotStore::open(&root).unwrap();
        assert_eq!(reopened.load(4).unwrap(), healed);
        assert_eq!(reopened.corrupt_count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fault_hook_can_target_one_path_namespace() {
        let root = temp_root("fault-target");
        let store = SnapshotStore::open(&root).unwrap();
        // Only replica writes fail: the primary namespace is healthy.
        store.set_fault_hook(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .filter(|n| n.starts_with("repl-"))
                .map(|_| WriteFault::NoSpace)
        });
        store.save(&image(2, 1)).unwrap();
        assert!(store.contains(2));
        assert!(store.save_replica(2, 1, None, b"bytes").is_err());
        assert!(store.replica_entries().unwrap().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stray_files_are_ignored_by_the_scan() {
        let root = temp_root("stray");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("README.txt"), b"not a snapshot").unwrap();
        fs::write(root.join("sess-1.g1.awrs.tmp"), b"crashed mid-write").unwrap();
        fs::write(root.join("sess-x.g1.awrs"), b"bad id").unwrap();
        let store = SnapshotStore::open(&root).unwrap();
        assert_eq!(store.persisted(), 0);
        let _ = fs::remove_dir_all(&root);
    }
}
