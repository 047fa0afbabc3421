//! [`WorkloadAnalysis`]: the orchestrator that runs the full §4–§6
//! methodology over one trace and bundles the serializable results every
//! figure/table harness consumes.

use crate::access::{FileAccessStats, PathStage};
use crate::burstiness::Burstiness;
use crate::fourier::{detect_diurnal, DiurnalDetection};
use crate::kmeans::{KMeans, KMeansConfig};
use crate::locality::LocalityStats;
use crate::names::NameAnalysis;
use crate::stats::Ecdf;
use crate::timeseries::{HourlySeries, SeriesCorrelations};
use swim_trace::{Trace, TraceSummary};

/// Knobs for a full-workload analysis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Maximum k explored by the elbow rule.
    pub max_k: usize,
    /// Elbow threshold: stop when inertia improves by less than this
    /// fraction.
    pub elbow_threshold: f64,
    /// K-means configuration template (k is overridden by the elbow).
    pub kmeans: KMeansConfig,
    /// SNR threshold for diurnal detection.
    pub diurnal_snr: f64,
}

impl Default for AnalysisConfig {
    /// Paper-faithful defaults: cluster **raw** feature vectors (§6.2's
    /// literal procedure — in raw space the huge jobs dominate distance,
    /// which is what isolates Table 2's tiny-population clusters), with a
    /// 0.5 elbow threshold suited to the heavy-tailed raw inertia.
    fn default() -> Self {
        AnalysisConfig {
            max_k: 12,
            elbow_threshold: 0.5,
            kmeans: KMeansConfig {
                scaling: crate::kmeans::FeatureScaling::Raw,
                ..KMeansConfig::default()
            },
            diurnal_snr: 3.0,
        }
    }
}

/// Results of the full characterization of one trace.
#[derive(Debug, Clone)]
pub struct WorkloadAnalysis {
    /// Table 1 row.
    pub summary: TraceSummary,
    /// Per-job input-size CDF (Fig. 1 left).
    pub input_sizes: Ecdf,
    /// Per-job shuffle-size CDF (Fig. 1 middle).
    pub shuffle_sizes: Ecdf,
    /// Per-job output-size CDF (Fig. 1 right).
    pub output_sizes: Ecdf,
    /// Input-path access statistics (Figs. 2–3), when paths exist.
    pub input_access: FileAccessStats,
    /// Output-path access statistics (Figs. 2, 4), when paths exist.
    pub output_access: FileAccessStats,
    /// Re-access locality (Figs. 5–6).
    pub locality: LocalityStats,
    /// Hourly submission series (Fig. 7, first three columns).
    pub hourly: HourlySeries,
    /// Burstiness of the task-seconds/hour signal (Fig. 8), when defined.
    pub burstiness: Option<Burstiness>,
    /// Fig. 9 correlation triple.
    pub correlations: SeriesCorrelations,
    /// Diurnal detection on jobs/hour (§5.1), when the trace spans ≥ 2 days.
    pub diurnal: Option<DiurnalDetection>,
    /// Job-name analysis (§6.1, Fig. 10).
    pub names: NameAnalysis,
    /// K-means job types (Table 2) with elbow-chosen k.
    pub job_types: KMeans,
}

impl WorkloadAnalysis {
    /// Run the full methodology with default configuration.
    pub fn of(trace: &Trace) -> WorkloadAnalysis {
        Self::with_config(trace, AnalysisConfig::default())
    }

    /// Run the full methodology.
    pub fn with_config(trace: &Trace, config: AnalysisConfig) -> WorkloadAnalysis {
        assert!(!trace.is_empty(), "cannot analyze an empty trace");
        let input_sizes = Ecdf::new(trace.jobs().iter().map(|j| j.input.as_f64()).collect());
        let shuffle_sizes = Ecdf::new(trace.jobs().iter().map(|j| j.shuffle.as_f64()).collect());
        let output_sizes = Ecdf::new(trace.jobs().iter().map(|j| j.output.as_f64()).collect());
        let hourly = HourlySeries::of(trace);
        let burstiness = Burstiness::of(&hourly.task_seconds, &[]);
        let correlations = hourly.correlations();
        let diurnal = detect_diurnal(&hourly.jobs, config.diurnal_snr);
        let job_types =
            KMeans::fit_with_elbow(trace, config.max_k, config.elbow_threshold, config.kmeans);
        WorkloadAnalysis {
            summary: trace.summary(),
            input_sizes,
            shuffle_sizes,
            output_sizes,
            input_access: FileAccessStats::gather(trace, PathStage::Input),
            output_access: FileAccessStats::gather(trace, PathStage::Output),
            locality: LocalityStats::gather(trace),
            hourly,
            burstiness,
            correlations,
            diurnal,
            names: NameAnalysis::of(trace),
            job_types,
        }
    }

    /// Share of jobs in the dominant (largest) job-type cluster — the
    /// paper's ">90 % small jobs" headline.
    pub fn dominant_job_type_share(&self) -> f64 {
        let total: u64 = self.job_types.clusters.iter().map(|c| c.count).sum();
        let max = self
            .job_types
            .clusters
            .iter()
            .map(|c| c.count)
            .max()
            .unwrap_or(0);
        max as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_trace::trace::WorkloadKind;
    use swim_trace::{DataSize, Dur, JobBuilder, PathId, Timestamp};

    fn mixed_trace() -> Trace {
        let mut jobs = Vec::new();
        for i in 0..200u64 {
            jobs.push(
                JobBuilder::new(i)
                    .name(if i % 2 == 0 { "insert x" } else { "ad y" })
                    .submit(Timestamp::from_secs(i * 700))
                    .duration(Dur::from_secs(30))
                    .input(DataSize::from_mb(10))
                    .output(DataSize::from_kb(900))
                    .map_task_time(Dur::from_secs(20))
                    .tasks(1, 0)
                    .input_paths(vec![PathId(i % 13)])
                    .output_paths(vec![PathId(1000 + i)])
                    .build()
                    .unwrap(),
            );
        }
        for i in 200..220u64 {
            jobs.push(
                JobBuilder::new(i)
                    .name("from big")
                    .submit(Timestamp::from_secs(i * 700))
                    .duration(Dur::from_hours(1))
                    .input(DataSize::from_gb(400))
                    .shuffle(DataSize::from_tb(1))
                    .output(DataSize::from_gb(40))
                    .map_task_time(Dur::from_secs(500_000))
                    .reduce_task_time(Dur::from_secs(400_000))
                    .tasks(100, 10)
                    .input_paths(vec![PathId(7)])
                    .output_paths(vec![PathId(2000 + i)])
                    .build()
                    .unwrap(),
            );
        }
        Trace::new(WorkloadKind::Custom("mixed".into()), 10, jobs).unwrap()
    }

    #[test]
    fn full_analysis_runs_end_to_end() {
        let a = WorkloadAnalysis::of(&mixed_trace());
        assert_eq!(a.summary.jobs, 220);
        assert!(!a.input_sizes.is_empty());
        assert!(a.input_access.distinct_files() > 0);
        assert!(a.names.has_names());
        assert!(a.job_types.clusters.len() >= 2);
        assert!(a.dominant_job_type_share() > 0.8);
    }

    #[test]
    fn burstiness_present_for_active_trace() {
        let a = WorkloadAnalysis::of(&mixed_trace());
        // Every hour has at least one submission (jobs every 700 s), so the
        // median task-seconds is positive and burstiness is defined.
        assert!(a.burstiness.is_some());
    }

    #[test]
    fn correlations_bytes_tasktime_strongest() {
        // Big jobs carry both bytes and task-time; jobs/hour is constant-ish.
        let a = WorkloadAnalysis::of(&mixed_trace());
        let c = a.correlations;
        assert!(
            c.bytes_task_seconds > c.jobs_bytes.abs(),
            "bytes↔task {} vs jobs↔bytes {}",
            c.bytes_task_seconds,
            c.jobs_bytes
        );
    }

    #[test]
    #[should_panic(expected = "cannot analyze an empty trace")]
    fn empty_trace_rejected() {
        let t = Trace::new(WorkloadKind::Custom("e".into()), 1, vec![]).unwrap();
        WorkloadAnalysis::of(&t);
    }
}
