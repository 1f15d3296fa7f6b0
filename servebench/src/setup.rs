//! Building what each workload serves: datasets, the in-process
//! `olap-server`, and for ingest-follow a file-backed leader with one
//! follower. Temporary stores live under the benchmark's own `out/`
//! directory and are removed with their WAL sidecars.

use olap_cube::StoreBackend;
use olap_server::{enable_replication, Follower, Server, ServerConfig};
use olap_store::FileStore;
use polap_cli::{Dataset, SharedData};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Scenario-cache size for the cached workloads (MiB).
pub const CACHE_MB: usize = 64;

/// The benchmark's output directory (spans; temporary stores while a
/// run is live). Ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under [`out_dir`], removed on drop
/// together with everything in it.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let p = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p)?;
        Ok(TempDir(p))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deletes a store file and its WAL sidecar.
pub fn remove_store(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(olap_store::wal::sidecar_path(p));
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        max_sessions: 16,
        drain_grace_ms: 500,
        ..ServerConfig::default()
    }
}

/// The dataset behind `olap-server`, with the workload's cache size.
pub fn load(dataset: Dataset, cache_mb: usize) -> Arc<SharedData> {
    let mut shared = SharedData::load(dataset);
    shared.set_cache_mb(cache_mb);
    Arc::new(shared)
}

/// One served dataset over TCP.
pub struct Single {
    pub shared: Arc<SharedData>,
    pub server: Server,
}

impl Single {
    pub fn start(dataset: Dataset, cache_mb: usize) -> std::io::Result<Single> {
        let shared = load(dataset, cache_mb);
        let server = Server::start(Arc::clone(&shared), "127.0.0.1:0", server_cfg())?;
        Ok(Single { shared, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// A file-backed leader capturing replication, and one follower seeded
/// from a copy of its base image, serving reads with a cache.
pub struct Pair {
    pub leader: Arc<SharedData>,
    pub leader_server: Server,
    pub follower_shared: Arc<SharedData>,
    pub follower: Follower,
    pub leader_path: PathBuf,
    pub follower_path: PathBuf,
    /// Replication position of the base image.
    pub base: u64,
}

impl Pair {
    pub fn start(dataset: Dataset, dir: &TempDir, tag: &str) -> Result<Pair, String> {
        let leader_path = dir.file(&format!("{tag}-leader.cube"));
        let follower_path = dir.file(&format!("{tag}-follower.cube"));
        remove_store(&leader_path);
        remove_store(&follower_path);
        // The leader runs cache-off: `ScenarioCache` assumes a fixed
        // input cube, and the leader's base changes at every commit.
        let leader = Arc::new(
            SharedData::load_with_backend(dataset, StoreBackend::File(leader_path.clone()))
                .map_err(|e| format!("leader store: {e}"))?,
        );
        let base = enable_replication(&leader).ok_or("leader store is not file-backed")?;
        std::fs::copy(&leader_path, &follower_path).map_err(|e| format!("seed follower: {e}"))?;
        let mut fshared =
            SharedData::load_with_backend(dataset, StoreBackend::Attach(follower_path.clone()))
                .map_err(|e| format!("follower store: {e}"))?;
        fshared.set_cache_mb(CACHE_MB);
        let follower_shared = Arc::new(fshared);
        let leader_server = Server::start(Arc::clone(&leader), "127.0.0.1:0", server_cfg())
            .map_err(|e| format!("leader bind: {e}"))?;
        let follower = Follower::start(
            Arc::clone(&follower_shared),
            "127.0.0.1:0",
            server_cfg(),
            leader_server.addr(),
        )
        .map_err(|e| format!("follower start: {e}"))?;
        Ok(Pair {
            leader,
            leader_server,
            follower_shared,
            follower,
            leader_path,
            follower_path,
            base,
        })
    }

    /// Sets one writer batch and flushes it; returns the leader's
    /// replication position after the commit.
    pub fn commit(&self, batch: &crate::script::Batch) -> Result<u64, String> {
        let cube = self.leader.cube();
        for (coords, v) in batch {
            cube.set(coords, olap_store::CellValue::num(*v))
                .map_err(|e| format!("leader write: {e}"))?;
        }
        cube.flush().map_err(|e| format!("leader flush: {e}"))?;
        Ok(leader_position(&self.leader))
    }

    /// Waits (bounded) until the follower has applied `pos`.
    pub fn wait_follower(&self, pos: u64, timeout: std::time::Duration) -> Result<(), String> {
        let t0 = std::time::Instant::now();
        while self.follower.position() < pos {
            if self.follower.is_dead() || t0.elapsed() > timeout {
                return Err(format!(
                    "follower stuck at {} (wanted {pos}, dead: {})",
                    self.follower.position(),
                    self.follower.is_dead()
                ));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        Ok(())
    }

    /// Stops both servers and deletes both stores. Returns whether the
    /// follower's file was byte-identical to the leader's at stop.
    pub fn stop(self) -> Result<(), String> {
        let same = match (
            std::fs::read(&self.leader_path),
            std::fs::read(&self.follower_path),
        ) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Ok(a), Ok(b)) => Err(format!(
                "follower store diverged: {} bytes vs leader {}",
                b.len(),
                a.len()
            )),
            (a, b) => Err(format!("store read: {:?} / {:?}", a.err(), b.err())),
        };
        self.follower.shutdown();
        self.leader_server.shutdown();
        drop(self.follower_shared);
        drop(self.leader);
        remove_store(&self.leader_path);
        remove_store(&self.follower_path);
        same
    }
}

/// The replication position of a file-backed dataset.
pub fn leader_position(shared: &SharedData) -> u64 {
    shared.cube().with_pool(|p| {
        p.store()
            .as_any()
            .downcast_ref::<FileStore>()
            .map(|fs| fs.replication_position())
            .unwrap_or(0)
    })
}

/// A file-backed dataset's WAL counters.
pub fn wal_stats(shared: &SharedData) -> olap_store::WalStats {
    shared.cube().with_pool(|p| {
        p.store()
            .as_any()
            .downcast_ref::<FileStore>()
            .map(|fs| fs.wal_stats())
            .unwrap_or_default()
    })
}
