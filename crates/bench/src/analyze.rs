//! The `swim-analyze` pipeline: ingest an external per-job trace, run the
//! full characterization, emit an **anonymized, aggregated** metrics
//! document, and optionally synthesize a scaled-down replay bundle.
//!
//! This is the user-facing path of the original SWIM release (§8 of the
//! paper: "retain the job history logs generated by existing Hadoop
//! tools, run the tools …, and share the results"). The exported document
//! deliberately contains only aggregates — distribution quantiles, slopes,
//! ratios, cluster centroids — never raw job names or path identifiers,
//! matching the paper's call for "anonymized and aggregated metrics for
//! workload comparisons offsite".

use swim_core::workload::WorkloadAnalysis;
use swim_obs::json::{self, Value};
use swim_synth::datagen::DataGenPlan;
use swim_synth::sample::{sample_windows, SampleConfig};
use swim_synth::scaledown::{scale_trace, ScaleConfig, ScaleMode};
use swim_synth::validate::SynthesisReport;
use swim_synth::ReplayPlan;
use swim_trace::{DataSize, Trace};

/// Quantiles exported per data dimension.
const EXPORT_QUANTILES: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

/// One anonymized job-type centroid row: `(count, input, shuffle, output,
/// duration_s, map_s, reduce_s, label)`.
pub type JobTypeRow = (u64, u64, u64, u64, u64, u64, u64, String);

/// The anonymized, aggregated metrics document for offsite sharing.
#[derive(Debug, Clone)]
pub struct SharedMetrics {
    /// Workload label (operator-chosen; not derived from job content).
    pub workload: String,
    /// Number of jobs analyzed.
    pub jobs: usize,
    /// Trace length in hours.
    pub length_hours: f64,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Per-dimension quantiles: `(probability, input, shuffle, output)` bytes.
    pub size_quantiles: Vec<(f64, f64, f64, f64)>,
    /// Zipf rank–frequency slope of input-file accesses, if paths present.
    pub input_zipf_slope: Option<f64>,
    /// Fraction of re-accesses within six hours.
    pub locality_within_6h: f64,
    /// Fraction of jobs re-accessing pre-existing data.
    pub frac_jobs_reaccessing: f64,
    /// Peak-to-median ratio of hourly task-time.
    pub peak_to_median: Option<f64>,
    /// Fig. 9 correlation triple `(jobs↔bytes, jobs↔task, bytes↔task)`.
    pub correlations: (f64, f64, f64),
    /// Whether a daily cycle was detected in submissions.
    pub diurnal_detected: Option<bool>,
    /// Job-type clusters: `(count, input, shuffle, output, duration_s,
    /// map_s, reduce_s, label)` — centroids only, no job identities.
    pub job_types: Vec<JobTypeRow>,
    /// Framework shares of jobs, by framework label.
    pub framework_job_shares: Vec<(String, f64)>,
}

impl SharedMetrics {
    /// Build the shareable document from a full analysis.
    pub fn from_analysis(analysis: &WorkloadAnalysis) -> SharedMetrics {
        let size_quantiles = EXPORT_QUANTILES
            .iter()
            .map(|&p| {
                (
                    p,
                    analysis.input_sizes.quantile(p),
                    analysis.shuffle_sizes.quantile(p),
                    analysis.output_sizes.quantile(p),
                )
            })
            .collect();
        SharedMetrics {
            workload: analysis.summary.workload.clone(),
            jobs: analysis.summary.jobs,
            length_hours: analysis.summary.length.as_hours_f64(),
            bytes_moved: analysis.summary.bytes_moved.bytes(),
            size_quantiles,
            input_zipf_slope: analysis
                .input_access
                .zipf_fit(Some(300))
                .map(|fit| fit.slope),
            locality_within_6h: analysis.locality.fraction_within(6.0 * 3600.0),
            frac_jobs_reaccessing: analysis.locality.frac_jobs_reaccessing(),
            peak_to_median: analysis.burstiness.as_ref().map(|b| b.peak_to_median),
            correlations: (
                analysis.correlations.jobs_bytes,
                analysis.correlations.jobs_task_seconds,
                analysis.correlations.bytes_task_seconds,
            ),
            diurnal_detected: analysis.diurnal.map(|d| d.detected),
            job_types: analysis
                .job_types
                .clusters
                .iter()
                .map(|c| {
                    (
                        c.count,
                        c.input.bytes(),
                        c.shuffle.bytes(),
                        c.output.bytes(),
                        c.duration.secs(),
                        c.map_time.secs(),
                        c.reduce_time.secs(),
                        c.label.clone(),
                    )
                })
                .collect(),
            framework_job_shares: analysis
                .names
                .framework_shares()
                .iter()
                .map(|s| (s.framework.label().to_owned(), s.jobs))
                .collect(),
        }
    }

    /// Serialize to pretty JSON (two-space indent), keys in field order;
    /// tuples are arrays and absent options are `null`.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
        let floats = |fs: &[f64]| Value::Array(fs.iter().map(|&f| Value::F64(f)).collect());
        let (jb, jt, bt) = self.correlations;
        let quantiles = self.size_quantiles.iter();
        let quantiles = quantiles.map(|&(p, i, s, o)| floats(&[p, i, s, o]));
        let job_types = self.job_types.iter().map(|(n, i, s, o, d, m, r, label)| {
            let mut row: Vec<_> = [n, i, s, o, d, m, r].map(|v| Value::U64(*v)).into();
            row.push(Value::Str(label));
            Value::Array(row)
        });
        let shares = self.framework_job_shares.iter();
        let shares = shares.map(|(f, s)| Value::Array(vec![Value::Str(f), Value::F64(*s)]));
        let doc = Value::Object(vec![
            ("workload", Value::Str(&self.workload)),
            ("jobs", Value::U64(self.jobs as u64)),
            ("length_hours", Value::F64(self.length_hours)),
            ("bytes_moved", Value::U64(self.bytes_moved)),
            ("size_quantiles", Value::Array(quantiles.collect())),
            ("input_zipf_slope", opt(self.input_zipf_slope)),
            ("locality_within_6h", Value::F64(self.locality_within_6h)),
            (
                "frac_jobs_reaccessing",
                Value::F64(self.frac_jobs_reaccessing),
            ),
            ("peak_to_median", opt(self.peak_to_median)),
            ("correlations", floats(&[jb, jt, bt])),
            (
                "diurnal_detected",
                self.diurnal_detected.map_or(Value::Null, Value::Bool),
            ),
            ("job_types", Value::Array(job_types.collect())),
            ("framework_job_shares", Value::Array(shares.collect())),
        ]);
        let mut out = String::new();
        json::write(&mut out, &doc, true);
        out
    }
}

/// A synthesized, scaled-down benchmark bundle derived from a trace.
#[derive(Debug, Clone)]
pub struct SynthBundle {
    /// Replay schedule.
    pub replay: ReplayPlan,
    /// HDFS pre-population plan.
    pub datagen: DataGenPlan,
    /// KS validation of the synthesis against the source trace.
    pub validation_worst_ks: f64,
}

/// Run the SWIM synthesize path: sample one representative day, scale to
/// `target_machines`, emit plans, and validate.
pub fn synthesize_bundle(trace: &Trace, target_machines: u32, seed: u64) -> SynthBundle {
    let sampled = sample_windows(trace, SampleConfig::one_day_from_hours(seed));
    let report = SynthesisReport::compare(trace, &sampled);
    let scaled = scale_trace(
        &sampled,
        ScaleConfig {
            target_machines,
            mode: ScaleMode::DataSize,
            seed,
        },
    );
    SynthBundle {
        replay: ReplayPlan::from_trace(&scaled),
        datagen: DataGenPlan::from_trace(&scaled, DataSize::from_mb(128)),
        validation_worst_ks: report.worst(),
    }
}

impl SynthBundle {
    /// Serialize to compact JSON: `{"replay":{…},"datagen":{…},
    /// "validation_worst_ks":…}`, every key in field order.
    pub fn to_json(&self) -> String {
        let jobs = self.replay.jobs.iter().map(|job| {
            Value::Object(vec![
                ("gap", Value::U64(job.gap.secs())),
                ("input", Value::U64(job.input.bytes())),
                ("shuffle", Value::U64(job.shuffle.bytes())),
                ("output", Value::U64(job.output.bytes())),
                ("map_task_time", Value::U64(job.map_task_time.secs())),
                ("reduce_task_time", Value::U64(job.reduce_task_time.secs())),
                ("map_tasks", Value::U64(job.map_tasks.into())),
                ("reduce_tasks", Value::U64(job.reduce_tasks.into())),
            ])
        });
        let files = self.datagen.files.iter().map(|file| {
            Value::Object(vec![
                ("path", Value::U64(file.path.0)),
                ("size", Value::U64(file.size.bytes())),
            ])
        });
        let doc = Value::Object(vec![
            (
                "replay",
                Value::Object(vec![
                    ("name", Value::Str(&self.replay.name)),
                    ("machines", Value::U64(self.replay.machines.into())),
                    ("jobs", Value::Array(jobs.collect())),
                ]),
            ),
            (
                "datagen",
                Value::Object(vec![
                    ("files", Value::Array(files.collect())),
                    ("block_size", Value::U64(self.datagen.block_size.bytes())),
                ]),
            ),
            ("validation_worst_ks", Value::F64(self.validation_worst_ks)),
        ]);
        let mut out = String::new();
        json::write(&mut out, &doc, false);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

    fn sample_trace() -> Trace {
        WorkloadGenerator::new(
            GeneratorConfig::new(WorkloadKind::CcE)
                .scale(0.2)
                .days(2.0)
                .seed(77),
        )
        .generate()
    }

    #[test]
    fn shared_metrics_carry_no_identifiers() {
        let trace = sample_trace();
        let analysis = WorkloadAnalysis::of(&trace);
        let metrics = SharedMetrics::from_analysis(&analysis);
        let json = metrics.to_json();
        // No raw job names (beyond framework labels / cluster labels) and
        // no path ids may appear in the export.
        for job in trace.jobs().iter().take(50) {
            if job.name.len() > 3 {
                assert!(
                    !json.contains(&job.name),
                    "job name {} leaked into shared metrics",
                    job.name
                );
            }
        }
        assert!(!json.contains("path:"));
        assert_eq!(metrics.jobs, trace.len());
    }

    #[test]
    fn quantiles_are_monotone_per_dimension() {
        let analysis = WorkloadAnalysis::of(&sample_trace());
        let m = SharedMetrics::from_analysis(&analysis);
        for dim in 1..=3 {
            let series: Vec<f64> = m
                .size_quantiles
                .iter()
                .map(|q| match dim {
                    1 => q.1,
                    2 => q.2,
                    _ => q.3,
                })
                .collect();
            assert!(series.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        }
    }

    #[test]
    fn bundle_synthesis_validates() {
        let trace = sample_trace();
        let bundle = synthesize_bundle(&trace, 10, 5);
        assert!(!bundle.replay.is_empty());
        assert!(bundle.datagen.file_count() > 0);
        assert!(bundle.validation_worst_ks <= 1.0);
    }
}
