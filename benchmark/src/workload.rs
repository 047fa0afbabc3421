//! The three workloads: what each deploys and what its timed phase does.

use std::collections::{BTreeMap, HashSet};
use std::io::BufReader;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use swim_catalog::{Catalog, MANIFEST_FILE};
use swim_scenario::{presets, Scenario, StudyOptions};
use swim_serve::ServeOptions;

use crate::client::{self, Sample};
use crate::pool;
use crate::setup::{self, CatalogSpec, Ingested};
use crate::util::{Rng, Zipf};
use crate::Fail;

/// Client threads (and connections) every workload uses for load.
pub const LOAD_THREADS: usize = 2;

/// Jobs per shard of the ingest-mixed and study catalogs (the
/// catalog's default).
const SHARD_JOBS: u32 = 262_144;
/// The scan catalog: 14 days of multitenant-saas in 2,048-job shards,
/// the layout many small ingests leave behind: about 75 shards, more
/// than the 64-shard column cache holds. It is small enough that a run
/// completes about a thousand full scans, so that ten lie beyond the
/// 99th percentile.
const SCAN_JOBS: u64 = 160_000;
const SCAN_SHARD: u32 = 2_048;
/// The interactive request pool the open-loop readers draw from, and
/// its Zipf re-access skew.
const POOL_SIZE: usize = 4_000;
const ZIPF_S: f64 = 0.8;
/// ingest-mixed: base catalog, writer batches, the writer's pace (one
/// batch per interval at most, so the reader's server is not
/// saturated), compaction cadence and the open-loop reader's rate. The
/// interval is not a multiple of the reader's 100 ms report beat, so
/// over a run the reports land at every phase of the writer's cycle
/// rather than at one that depends on when the run started.
const INGEST_BASE_JOBS: u64 = 200_000;
const BATCH_JOBS: u64 = 10_000;
const BATCH_INTERVAL: Duration = Duration::from_millis(270);
const COMPACT_EVERY: u64 = 4;
const INGEST_READER_QPS: f64 = 100.0;
/// The cross-scenario study: presets compared, jobs per preset, sweep
/// cluster sizes, and the rate of the interactive reader that runs
/// beside it on the study workload. `bursty-telecom` is left out: its
/// flash crowds make the simulator's cost vary about fivefold with
/// the seed, which would make `study_s` a measure of the seed.
const STUDY_PRESETS: [&str; 3] = ["steady-retail", "multitenant-saas", "diurnal-webmedia"];
const STUDY_JOBS: u64 = 20_000;
const STUDY_NODES: [u32; 2] = [50, 200];
const STUDY_READER_QPS: f64 = 100.0;
/// An open-loop run is invalid when its sends fall this far behind
/// schedule at the 99th percentile.
pub const MAX_GENERATOR_LATE_MS: f64 = 50.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Scan,
    IngestMixed,
    Study,
}

/// Derive an independent seed for one part of a run.
pub fn derive(seed: u64, part: u64) -> u64 {
    Rng::new(seed, part).next_u64()
}

fn preset(name: &str) -> Result<Scenario, Fail> {
    presets::find(name).map_err(|e| Fail::new(format!("preset {name}: {e}")))
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan" => Some(Workload::Scan),
            "ingest-mixed" => Some(Workload::IngestMixed),
            "study" => Some(Workload::Study),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::IngestMixed => "ingest-mixed",
            Workload::Study => "study",
        }
    }

    pub fn catalog_spec(self, seed: u64) -> Result<CatalogSpec, Fail> {
        let saas = |jobs| vec![(setup::saas_14d(), derive(seed, 1), jobs)];
        Ok(match self {
            Workload::Scan => CatalogSpec {
                parts: saas(SCAN_JOBS),
                jobs_per_shard: SCAN_SHARD,
            },
            Workload::IngestMixed => CatalogSpec {
                parts: saas(INGEST_BASE_JOBS),
                jobs_per_shard: SHARD_JOBS,
            },
            Workload::Study => CatalogSpec {
                parts: study_scenarios()?
                    .into_iter()
                    .map(|s| (s, derive(seed, 2), STUDY_JOBS))
                    .collect(),
                jobs_per_shard: SHARD_JOBS,
            },
        })
    }

    pub fn serve_options(self) -> ServeOptions {
        ServeOptions {
            // Only ingest-mixed needs `vacuum` over the wire.
            allow_admin: self == Workload::IngestMixed,
            ..ServeOptions::default()
        }
    }

    /// Seconds of submit time the catalog spans (for query windows).
    fn span_secs(self) -> u64 {
        match self {
            Workload::Study => 3 * 86_400,
            _ => 14 * 86_400,
        }
    }

    /// The scenario whose batches the writer (or the traced compaction
    /// probe) ingests.
    pub fn batch_scenario(self) -> Result<Scenario, Fail> {
        match self {
            Workload::Study => preset("steady-retail"),
            Workload::IngestMixed => preset("bursty-telecom"),
            _ => Ok(setup::saas_14d()),
        }
    }
}

pub fn study_scenarios() -> Result<Vec<Scenario>, Fail> {
    STUDY_PRESETS.iter().map(|n| preset(n)).collect()
}

pub fn study_options(seed: u64, threads: Option<usize>) -> StudyOptions {
    StudyOptions {
        seed: derive(seed, 3),
        jobs_per_scenario: STUDY_JOBS,
        nodes: STUDY_NODES.to_vec(),
        threads,
    }
}

/// One study run of the timed phase.
pub struct StudyRun {
    pub wall: Duration,
    /// [`crate::util::digest`] of the rendered report.
    pub digest: u128,
}

/// The cross-scenario study, rendered to Markdown.
pub fn run_study(seed: u64, threads: Option<usize>) -> Result<String, Fail> {
    let report = swim_scenario::compare(&study_scenarios()?, &study_options(seed, threads))
        .map_err(|e| Fail::new(format!("study: {e}")))?;
    Ok(swim_report::markdown::render_report(&report))
}

/// ingest-mixed's writer: what it committed and how long it took.
#[derive(Default)]
pub struct WriterReport {
    pub ingests: Vec<Ingested>,
    pub compactions: Vec<(Duration, u64)>,
    pub vacuums: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Time the writer spent working (its pacing sleeps excluded).
    pub busy: Duration,
    /// Per compaction cycle (its batches, the compaction and the
    /// vacuum): jobs committed per second of busy time.
    pub cycle_rates: Vec<f64>,
    /// Manifest text of every generation the writer published.
    pub manifests: BTreeMap<u64, String>,
}

impl WriterReport {
    pub fn jobs(&self) -> u64 {
        self.ingests.iter().map(|i| i.committed_jobs).sum()
    }

    pub fn declared_jobs(&self) -> u64 {
        self.ingests.iter().map(|i| i.declared_jobs).sum()
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.first_error.get_or_insert(message);
    }
}

/// Keeps every shard file any generation referenced (as hard links in
/// `keep`), plus each generation's manifest, so answers given at old
/// generations can be re-executed after vacuum removed their files.
pub struct History {
    pub keep: PathBuf,
    linked: HashSet<String>,
}

impl History {
    pub fn new(keep: PathBuf) -> Result<History, Fail> {
        std::fs::create_dir_all(&keep)
            .map_err(|e| Fail::new(format!("create {}: {e}", keep.display())))?;
        Ok(History {
            keep,
            linked: HashSet::new(),
        })
    }

    pub fn record(&mut self, catalog: &Catalog, report: &mut WriterReport) -> Result<(), Fail> {
        for shard in catalog.shards() {
            if self.linked.insert(shard.file.clone()) {
                std::fs::hard_link(catalog.dir().join(&shard.file), self.keep.join(&shard.file))
                    .map_err(|e| Fail::new(format!("keep {}: {e}", shard.file)))?;
            }
        }
        let manifest = std::fs::read_to_string(catalog.dir().join(MANIFEST_FILE))
            .map_err(|e| Fail::new(format!("read manifest: {e}")))?;
        report.manifests.insert(catalog.generation(), manifest);
        Ok(())
    }

    /// A session at `generation`, from the kept files.
    pub fn open(
        &self,
        manifests: &BTreeMap<u64, String>,
        generation: u64,
    ) -> Result<swim_query::Session, Fail> {
        let text = manifests
            .get(&generation)
            .ok_or_else(|| Fail::new(format!("no manifest kept for generation {generation}")))?;
        std::fs::write(self.keep.join(MANIFEST_FILE), text)
            .map_err(|e| Fail::new(format!("write manifest: {e}")))?;
        let catalog = Catalog::open(&self.keep)
            .map_err(|e| Fail::new(format!("open generation {generation}: {e}")))?;
        Ok(swim_query::Session::from_catalog(catalog))
    }
}

/// Append scenario batches until `deadline`, compacting every
/// [`COMPACT_EVERY`] batches and then vacuuming through the server, so
/// that the server's reader-drain protocol protects in-flight queries.
fn writer(
    dir: &Path,
    history: &mut History,
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    deadline: Instant,
    traced: bool,
) -> WriterReport {
    let mut report = WriterReport::default();
    let result = (|| -> Result<(), Fail> {
        let scenario = workload.batch_scenario()?;
        let options = setup::catalog_options(SHARD_JOBS);
        let mut catalog = Catalog::open(dir).map_err(|e| Fail::new(format!("writer open: {e}")))?;
        history.record(&catalog, &mut report)?;
        let mut stream = client::connect(addr).map_err(|e| Fail::new(format!("connect: {e}")))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| Fail::new(format!("clone: {e}")))?,
        );
        let mut batch = 0u64;
        let (mut cycle_jobs, mut cycle_busy) = (0u64, Duration::ZERO);
        let mut next_slot = Instant::now();
        while next_slot < deadline {
            let now = Instant::now();
            if now < next_slot {
                std::thread::sleep(next_slot - now);
            }
            next_slot += BATCH_INTERVAL;
            let work = Instant::now();
            report.attempted += 1;
            let seed = derive(seed, 1_000 + batch);
            match setup::ingest(&mut catalog, &scenario, seed, BATCH_JOBS, &options, traced) {
                Ok(ingested) => report.ingests.push(ingested),
                Err(e) => {
                    report.fail(e.0);
                    report.busy += work.elapsed();
                    continue;
                }
            }
            history.record(&catalog, &mut report)?;
            batch += 1;
            if !batch.is_multiple_of(COMPACT_EVERY) {
                report.busy += work.elapsed();
                continue;
            }
            report.attempted += 1;
            let t = Instant::now();
            match catalog.compact(&options) {
                Ok(stats) => report.compactions.push((t.elapsed(), stats.jobs)),
                Err(e) => report.fail(format!("compact: {e}")),
            }
            history.record(&catalog, &mut report)?;
            report.attempted += 1;
            let mut vacuumed = false;
            for _ in 0..20 {
                match client::roundtrip(&mut stream, &mut reader, "vacuum") {
                    Ok(r) if r.ok => {
                        vacuumed = true;
                        break;
                    }
                    Ok(r) if r.kind == Some(swim_serve::ErrorKind::Busy) => continue,
                    Ok(r) => {
                        report.fail(format!("vacuum: {}", r.body_text().trim()));
                        break;
                    }
                    Err(e) => {
                        report.fail(format!("vacuum: {e}"));
                        break;
                    }
                }
            }
            if vacuumed {
                report.vacuums += 1;
            }
            report.busy += work.elapsed();
            let jobs = report.jobs();
            let secs = (report.busy - cycle_busy).as_secs_f64();
            report
                .cycle_rates
                .push(crate::util::ratio((jobs - cycle_jobs) as f64, secs));
            (cycle_jobs, cycle_busy) = (jobs, report.busy);
        }
        Ok(())
    })();
    if let Err(e) = result {
        report.fail(e.0);
    }
    report
}

/// What a timed phase produced.
pub struct Phase {
    /// Every request of the phase, warm-up included (all are checked).
    pub samples: Vec<Sample>,
    /// The measured window: warm-up ends at `from`, sending stops at
    /// `to`.
    pub from: Instant,
    pub to: Instant,
    pub writer: Option<WriterReport>,
    pub studies: Vec<StudyRun>,
    /// Open-loop phases: how many sends the schedule called for.
    pub scheduled: Option<u64>,
    /// Peak resident memory (MiB) from the start of the measured
    /// window to the end of the load.
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Samples whose answer arrived inside the measured window (or
    /// after it, for the requests in flight when it closed).
    pub fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.done >= self.from)
    }
}

/// The open-loop reader's request stream over the interactive pool:
/// request `i` takes the pool's kind `i % 10` (so every tenth request
/// is a report, on a fixed beat), and within that kind a Zipf-drawn
/// popularity rank.
fn interactive_picker(seed: u64, span: u64) -> impl FnMut() -> String {
    let pool = pool::interactive(seed, POOL_SIZE, span);
    let zipf = Zipf::new(pool.len() / pool::KINDS, ZIPF_S);
    let mut rng = Rng::new(seed, 0x2_0000);
    let mut sent = 0usize;
    move || {
        let kind = sent % pool::KINDS;
        sent += 1;
        pool[zipf.sample(&mut rng) * pool::KINDS + kind].clone()
    }
}

impl Workload {
    /// Deployments per untraced run; `setup_s` is their median. Cheap
    /// set-ups repeat more, so that each run's median is steady.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::Scan => 9,
            Workload::IngestMixed => 7,
            Workload::Study => 40,
        }
    }

    /// Untimed load before the measured window, so that the
    /// connections and the column cache are warm when timing starts. The
    /// open-loop workloads measure from their first request: their
    /// caches are the writer's or the study's to disturb.
    pub fn warmup(self) -> Duration {
        match self {
            Workload::Scan => Duration::from_secs(1),
            Workload::IngestMixed | Workload::Study => Duration::ZERO,
        }
    }
}

/// Run the workload's load against `addr`: warm-up, then `seconds` of
/// measured load.
pub fn timed_phase(
    workload: Workload,
    addr: SocketAddr,
    dir: &Path,
    history: Option<&mut History>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, Fail> {
    let start = Instant::now();
    let from = start + workload.warmup();
    let deadline = from + Duration::from_secs_f64(seconds);
    let drain = Duration::from_secs(30);
    let pool_seed = derive(seed, 4);
    let span = workload.span_secs();
    let mut phase = Phase {
        samples: Vec::new(),
        from,
        to: deadline,
        writer: None,
        studies: Vec::new(),
        scheduled: None,
        peak_rss_mb: 0.0,
    };
    std::thread::scope(|s| -> Result<(), Fail> {
        // The kernel's high-water mark counts from the start of the
        // measured window, so set-up and warm-up allocations do not
        // raise it.
        let reset = s.spawn(|| {
            std::thread::sleep(from.saturating_duration_since(Instant::now()));
            crate::util::reset_peak_rss()
        });
        let loaded = (|| -> Result<(), Fail> {
            match workload {
                Workload::Scan => {
                    let counter = AtomicU64::new(0);
                    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
                        let handles: Vec<_> = (0..LOAD_THREADS)
                            .map(|_| {
                                s.spawn(|| {
                                    client::closed_loop(addr, deadline, || {
                                        let i = counter.fetch_add(1, Ordering::Relaxed);
                                        pool::scan(pool_seed, i)
                                    })
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().unwrap_or_default())
                            .collect()
                    });
                    phase.samples = per_client.into_iter().flatten().collect();
                }
                Workload::IngestMixed => {
                    let history =
                        history.ok_or_else(|| Fail::new("ingest-mixed needs a history"))?;
                    let (samples, report) = std::thread::scope(|s| {
                        let reader = s.spawn(|| {
                            client::open_loop(
                                addr,
                                from,
                                deadline,
                                INGEST_READER_QPS,
                                drain,
                                interactive_picker(pool_seed, span),
                            )
                        });
                        let writer = s
                            .spawn(|| writer(dir, history, addr, workload, seed, deadline, traced));
                        (
                            reader.join().unwrap_or_default(),
                            writer.join().unwrap_or_default(),
                        )
                    });
                    phase.samples = samples;
                    phase.writer = Some(report);
                    phase.scheduled = Some((seconds * INGEST_READER_QPS).ceil() as u64);
                }
                Workload::Study => {
                    let (samples, studies) = std::thread::scope(|s| {
                        let reader = s.spawn(|| {
                            client::open_loop(
                                addr,
                                from,
                                deadline,
                                STUDY_READER_QPS,
                                drain,
                                interactive_picker(pool_seed, span),
                            )
                        });
                        let mut studies = Vec::new();
                        while Instant::now() < deadline {
                            let t = Instant::now();
                            let markdown = run_study(seed, None);
                            studies.push(markdown.map(|markdown| StudyRun {
                                wall: t.elapsed(),
                                digest: crate::util::digest(markdown.as_bytes()),
                            }));
                        }
                        (reader.join().unwrap_or_default(), studies)
                    });
                    phase.samples = samples;
                    phase.studies = studies.into_iter().collect::<Result<_, _>>()?;
                    phase.scheduled = Some((seconds * STUDY_READER_QPS).ceil() as u64);
                }
            }
            Ok(())
        })();
        let reset = reset
            .join()
            .map_err(|_| Fail::new("peak-memory reset panicked"))?;
        loaded?;
        reset?;
        phase.peak_rss_mb = crate::util::peak_rss_mib()?;
        Ok(())
    })?;
    Ok(phase)
}
