//! Catalog construction and server start-up: the part of every run that
//! `setup_s` times.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swim_catalog::{Catalog, CatalogOptions};
use swim_scenario::{generate_into_catalog, presets, Scenario, ScenarioStream, DEFAULT_CHUNK};
use swim_serve::{serve, ServeOptions, ServerHandle};
use swim_store::StoreOptions;

use crate::Fail;

/// The 14-day multi-tenant catalog behind the scan and
/// ingest-mixed workloads.
pub fn saas_14d() -> Scenario {
    let mut scenario = presets::multitenant_saas();
    scenario.days = 14.0;
    scenario
}

pub fn catalog_options(jobs_per_shard: u32) -> CatalogOptions {
    CatalogOptions {
        jobs_per_shard,
        store: StoreOptions::default(),
    }
}

/// One scenario streamed into a catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ingested {
    /// Jobs the scenario stream declared it emitted.
    pub declared_jobs: u64,
    /// Jobs the catalog says it committed.
    pub committed_jobs: u64,
    /// Wall time of generation plus ingest.
    pub wall: Duration,
    /// Of `wall`, time spent inside `ScenarioStream::next_chunk`
    /// (traced runs only; zero otherwise).
    pub generate: Duration,
    /// Largest `ScenarioStream::resident_bytes` seen (traced runs only).
    pub resident_max: usize,
}

/// Stream `jobs` jobs of `scenario` into `catalog`. Untraced runs call
/// `generate_into_catalog`; traced runs drive the same stream by hand
/// so generator time can be split from ingest time.
pub fn ingest(
    catalog: &mut Catalog,
    scenario: &Scenario,
    seed: u64,
    jobs: u64,
    options: &CatalogOptions,
    traced: bool,
) -> Result<Ingested, Fail> {
    let start = Instant::now();
    if !traced {
        let outcome = generate_into_catalog(scenario, seed, jobs, DEFAULT_CHUNK, catalog, options)
            .map_err(|e| Fail::new(format!("generate {}: {e}", scenario.name)))?;
        return Ok(Ingested {
            declared_jobs: outcome.stats.generation.jobs,
            committed_jobs: outcome.ingest.jobs,
            wall: start.elapsed(),
            ..Ingested::default()
        });
    }
    let mut stream = ScenarioStream::new(scenario, seed, jobs)
        .map_err(|e| Fail::new(format!("scenario {}: {e}", scenario.name)))?
        .chunk_size(DEFAULT_CHUNK);
    let kind = stream.kind().clone();
    let machines = stream.machines();
    let mut generate = Duration::ZERO;
    let mut resident_max = 0usize;
    let timed_chunks = std::iter::from_fn(|| {
        let t = Instant::now();
        let chunk = stream.next_chunk();
        generate += t.elapsed();
        resident_max = resident_max.max(stream.resident_bytes());
        chunk
    });
    let stats = catalog
        .ingest_stream(kind, machines, timed_chunks, options)
        .map_err(|e| Fail::new(format!("ingest {}: {e}", scenario.name)))?;
    Ok(Ingested {
        declared_jobs: stream.stats().generation.jobs,
        committed_jobs: stats.jobs,
        wall: start.elapsed(),
        generate,
        resident_max,
    })
}

/// A catalog built from one or more scenarios, plus the server on it.
pub struct Deployment {
    pub dir: PathBuf,
    pub server: ServerHandle,
    pub ingests: Vec<Ingested>,
    /// Wall time of catalog build plus server start.
    pub setup: Duration,
}

impl Deployment {
    pub fn declared_jobs(&self) -> u64 {
        self.ingests.iter().map(|i| i.declared_jobs).sum()
    }

    pub fn ingest_jobs_per_s(&self) -> f64 {
        let jobs: u64 = self.ingests.iter().map(|i| i.committed_jobs).sum();
        let wall: f64 = self.ingests.iter().map(|i| i.wall.as_secs_f64()).sum();
        crate::util::ratio(jobs as f64, wall)
    }

    pub fn stop(self) {
        self.server.shutdown_join();
    }
}

/// Everything that decides what a deployment holds.
pub struct CatalogSpec {
    /// `(scenario, seed, jobs)` streamed in order, one generation each.
    pub parts: Vec<(Scenario, u64, u64)>,
    pub jobs_per_shard: u32,
}

/// Stream every part of `spec` into a new catalog at `dir`.
fn build(dir: &Path, spec: &CatalogSpec, traced: bool) -> Result<Vec<Ingested>, Fail> {
    let mut catalog =
        Catalog::init(dir).map_err(|e| Fail::new(format!("init {}: {e}", dir.display())))?;
    let options = catalog_options(spec.jobs_per_shard);
    spec.parts
        .iter()
        .map(|(scenario, seed, jobs)| {
            ingest(&mut catalog, scenario, *seed, *jobs, &options, traced)
        })
        .collect()
}

/// Build the catalog in a fresh `dir` and start a server on it.
pub fn deploy(
    dir: &Path,
    spec: &CatalogSpec,
    serve_options: ServeOptions,
    traced: bool,
) -> Result<Deployment, Fail> {
    // Removing the previous set-up's catalog is not set-up work.
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let ingests = build(dir, spec, traced)?;
    let server = serve(dir, serve_options).map_err(|e| Fail::new(format!("serve: {e}")))?;
    Ok(Deployment {
        dir: dir.to_path_buf(),
        server,
        ingests,
        setup: start.elapsed(),
    })
}

/// The last of several deployments, with the median set-up time.
pub struct Repeated {
    pub deployment: Deployment,
    /// Median set-up time (`setup_s`).
    pub seconds: f64,
}

/// Deploy `repeats` times from scratch and keep the last deployment.
/// `between` runs after each set-up, outside its timing.
pub fn deploy_repeated(
    dir: &Path,
    spec: &CatalogSpec,
    serve_options: &ServeOptions,
    repeats: usize,
    mut between: impl FnMut() -> Result<(), Fail>,
) -> Result<Repeated, Fail> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = last.take() {
            Deployment::stop(previous);
        }
        let deployment = deploy(dir, spec, serve_options.clone(), false)?;
        times.push(deployment.setup.as_secs_f64());
        last = Some(deployment);
        between()?;
    }
    Ok(Repeated {
        deployment: last.ok_or_else(|| Fail::new("no deployment"))?,
        seconds: crate::util::median(&times),
    })
}

/// One sample of the ingest rate of the workloads without a writer:
/// one thread per load thread builds the catalog of `spec` from scratch
/// under `dir`, all at once, and the rate is the jobs they all
/// committed per second of the round. One build at a time would measure
/// one core, whose speed on a shared host swings with what its
/// neighbours run; every core at once measures what the host can
/// ingest.
pub fn concurrent_ingest(dir: &Path, spec: &CatalogSpec) -> Result<f64, Fail> {
    let dirs: Vec<PathBuf> = (0..crate::workload::LOAD_THREADS)
        .map(|k| dir.join(format!("ingest-{k}")))
        .collect();
    let start = Instant::now();
    let committed: Result<u64, Fail> = std::thread::scope(|s| {
        let builders: Vec<_> = dirs
            .iter()
            .map(|d| s.spawn(move || build(d, spec, false)))
            .collect();
        builders
            .into_iter()
            .map(|b| {
                let ingests = b
                    .join()
                    .map_err(|_| Fail::new("ingest thread panicked"))??;
                Ok(ingests.iter().map(|i| i.committed_jobs).sum::<u64>())
            })
            .sum()
    });
    let seconds = start.elapsed().as_secs_f64();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(crate::util::ratio(committed? as f64, seconds))
}

/// Shard bytes on disk per job visible in the catalog.
pub fn bytes_per_job(catalog: &Catalog) -> f64 {
    let bytes: u64 = catalog.shards().iter().map(|s| s.bytes).sum();
    crate::util::ratio(bytes as f64, catalog.job_count() as f64)
}
