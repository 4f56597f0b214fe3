//! The resumable artifact store.
//!
//! Layout under the output root (default `results/campaigns/`):
//!
//! ```text
//! <root>/<campaign>/
//!   manifest.json        campaign summary, rewritten after every run
//!   jobs/<job-id>.json   one artifact per completed job
//! ```
//!
//! A job artifact is written atomically (temp file + rename), so an
//! interrupt leaves either a complete artifact or none. On re-launch
//! [`ArtifactStore::load`] accepts only artifacts that parse and whose
//! identity fields (id, config, seed) match the job being scheduled —
//! a grid edit or seed change invalidates stale artifacts instead of
//! silently reusing them.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::job::{Job, JobResult};
use crate::json::Value;

/// On-disk store for one campaign's artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Store for campaign `name` under `out_root`.
    pub fn new(out_root: &Path, name: &str) -> ArtifactStore {
        ArtifactStore {
            root: out_root.join(name),
        }
    }

    /// The campaign directory (`<out_root>/<name>`).
    pub fn dir(&self) -> &Path {
        &self.root
    }

    /// Path of one job's artifact.
    pub fn job_path(&self, job_id: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{job_id}.json"))
    }

    /// Path of the campaign manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// Persist one job's result atomically.
    pub fn save(&self, job: &Job, result: &JobResult) -> io::Result<()> {
        let dir = self.root.join("jobs");
        fs::create_dir_all(&dir)?;
        let doc = encode_artifact(job, result);
        let tmp = dir.join(format!(".{}.tmp", job.id));
        fs::write(&tmp, doc.encode())?;
        fs::rename(&tmp, self.job_path(&job.id))
    }

    /// Load a previously saved result for `job`, if a valid artifact
    /// exists. Returns `None` (never errors) on missing, truncated or
    /// mismatching artifacts — the caller just re-runs the job.
    pub fn load(&self, job: &Job) -> Option<JobResult> {
        let text = fs::read_to_string(self.job_path(&job.id)).ok()?;
        let doc = Value::parse(&text).ok()?;
        decode_artifact(&doc, job)
    }

    /// Rewrite the campaign manifest. `statuses` is `(job_id, status,
    /// detail)` in campaign order, where status is `"done"`,
    /// `"cached"` or `"failed"` and detail carries the failure
    /// message. Wall-clock lives here — and only here — so job
    /// artifacts stay byte-identical across runs.
    pub fn write_manifest(
        &self,
        name: &str,
        master_seed: u64,
        statuses: &[(String, &'static str, String)],
        wall_secs: f64,
    ) -> io::Result<()> {
        fs::create_dir_all(&self.root)?;
        let mut jobs = Vec::new();
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (id, status, detail) in statuses {
            *counts.entry(status).or_default() += 1;
            let mut o = BTreeMap::new();
            o.insert("id".into(), Value::Str(id.clone()));
            o.insert("status".into(), Value::Str(status.to_string()));
            if !detail.is_empty() {
                o.insert("detail".into(), Value::Str(detail.clone()));
            }
            jobs.push(Value::Obj(o));
        }
        let mut doc = BTreeMap::new();
        doc.insert("campaign".into(), Value::Str(name.to_string()));
        doc.insert("master_seed".into(), Value::Num(master_seed as f64));
        doc.insert("total_jobs".into(), Value::Num(statuses.len() as f64));
        doc.insert(
            "counts".into(),
            Value::Obj(
                counts
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
                    .collect(),
            ),
        );
        doc.insert("wall_secs".into(), Value::Num(wall_secs));
        doc.insert("jobs".into(), Value::Arr(jobs));
        let tmp = self.root.join(".manifest.tmp");
        fs::write(&tmp, Value::Obj(doc).encode())?;
        fs::rename(&tmp, self.manifest_path())
    }
}

fn encode_artifact(job: &Job, result: &JobResult) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("id".into(), Value::Str(job.id.clone()));
    doc.insert("config".into(), Value::Str(job.config.clone()));
    doc.insert("seed_index".into(), Value::Num(job.seed_index as f64));
    // u64 seeds exceed f64's integer range; store as a string.
    doc.insert("seed".into(), Value::Str(job.seed.to_string()));
    doc.insert(
        "params".into(),
        Value::Obj(
            job.params
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        ),
    );
    doc.insert("label".into(), Value::Str(result.label.clone()));
    doc.insert(
        "trace_dropped".into(),
        Value::Num(result.trace_dropped as f64),
    );
    doc.insert(
        "metrics".into(),
        Value::Obj(
            result
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        ),
    );
    doc.insert(
        "series".into(),
        Value::Obj(
            result
                .series
                .iter()
                .map(|(k, vs)| {
                    (
                        k.clone(),
                        Value::Arr(vs.iter().map(|&v| Value::Num(v)).collect()),
                    )
                })
                .collect(),
        ),
    );
    Value::Obj(doc)
}

fn decode_artifact(doc: &Value, job: &Job) -> Option<JobResult> {
    let obj = doc.as_obj()?;
    // Identity check: a stale artifact from an edited grid or a
    // different seed scheme must not be reused.
    if obj.get("id")?.as_str()? != job.id
        || obj.get("config")?.as_str()? != job.config
        || obj.get("seed")?.as_str()? != job.seed.to_string()
    {
        return None;
    }
    let mut result = JobResult::new(obj.get("label")?.as_str()?);
    result.trace_dropped = obj.get("trace_dropped")?.as_num()? as u64;
    for (k, v) in obj.get("metrics")?.as_obj()? {
        result.metrics.insert(k.clone(), v.as_num()?);
    }
    for (k, v) in obj.get("series")?.as_obj()? {
        let vals: Option<Vec<f64>> = v.as_arr()?.iter().map(Value::as_num).collect();
        result.series.insert(k.clone(), vals?);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_job() -> Job {
        Job {
            id: "conn=75-s0".into(),
            config: "conn=75".into(),
            seed_index: 0,
            seed: u64::MAX - 1,
            params: [("conn".to_string(), "75".to_string())].into(),
        }
    }

    fn demo_result() -> JobResult {
        let mut r = JobResult::new("demo 75ms");
        r.metric("coap_pdr", 0.99949).metric("losses", 3.0);
        r.series("rtt_s", vec![0.075, 0.15, 0.3]);
        r.trace_dropped = 7;
        r
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("mindgap-store-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        ArtifactStore::new(&dir, "unit")
    }

    #[test]
    fn save_load_roundtrip() {
        let store = temp_store("rt");
        let (job, result) = (demo_job(), demo_result());
        store.save(&job, &result).unwrap();
        assert_eq!(store.load(&job), Some(result));
        fs::remove_dir_all(store.dir().parent().unwrap()).ok();
    }

    #[test]
    fn mismatching_seed_invalidates_artifact() {
        let store = temp_store("seed");
        let (job, result) = (demo_job(), demo_result());
        store.save(&job, &result).unwrap();
        let mut other = job.clone();
        other.seed ^= 1;
        assert_eq!(store.load(&other), None);
        fs::remove_dir_all(store.dir().parent().unwrap()).ok();
    }

    #[test]
    fn truncated_artifact_ignored() {
        let store = temp_store("trunc");
        let (job, result) = (demo_job(), demo_result());
        store.save(&job, &result).unwrap();
        let path = store.job_path(&job.id);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.load(&job), None);
        fs::remove_dir_all(store.dir().parent().unwrap()).ok();
    }

    #[test]
    fn artifacts_are_byte_stable() {
        let (job, result) = (demo_job(), demo_result());
        let a = encode_artifact(&job, &result).encode();
        let b = encode_artifact(&job, &result).encode();
        assert_eq!(a, b);
        assert!(a.contains("\"seed\":\"18446744073709551614\""));
    }

    #[test]
    fn manifest_written_and_parses() {
        let store = temp_store("manifest");
        let statuses = vec![
            ("a-s0".to_string(), "done", String::new()),
            ("a-s1".to_string(), "cached", String::new()),
            ("b-s0".to_string(), "failed", "panic: boom".to_string()),
        ];
        store.write_manifest("unit", 42, &statuses, 1.5).unwrap();
        let doc = Value::parse(&fs::read_to_string(store.manifest_path()).unwrap()).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["total_jobs"].as_num(), Some(3.0));
        assert_eq!(
            obj["counts"].as_obj().unwrap()["failed"].as_num(),
            Some(1.0)
        );
        fs::remove_dir_all(store.dir().parent().unwrap()).ok();
    }
}
