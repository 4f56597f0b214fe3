//! Experiments run through their library functions, and the shared
//! entry point's failure handling.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use mindgap_bench::{emit, exp, write_csv, Opts, Report, Table};
use mindgap_campaign::{GridBuilder, JobResult};

/// Quick-mode options writing under a fresh scratch directory.
fn opts(name: &str) -> Opts {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&out_dir);
    Opts {
        full: false,
        seed: 42,
        out_dir,
        jobs: 2,
        fresh: true,
    }
}

/// A path whose parent is a regular file, so nothing can be created
/// there.
fn below_a_file(name: &str) -> PathBuf {
    let dir = opts(name).out_dir;
    fs::create_dir_all(&dir).unwrap();
    let file = dir.join("plain-file");
    fs::write(&file, b"not a directory").unwrap();
    file.join("out")
}

#[test]
fn fig07_writes_its_report_and_delivers() {
    let opts = opts("fig07");
    let report = exp::fig07::run(&opts);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    emit(&opts, &report).unwrap();

    let files: Vec<&str> = report.tables.iter().map(|t| t.file.as_str()).collect();
    assert_eq!(
        files,
        ["fig07a_tree.csv", "fig07a_line.csv", "fig07b_rtt_cdf.csv"]
    );
    for t in &report.tables {
        assert!(!t.rows.is_empty(), "{} has no rows", t.file);
        let written = fs::read_to_string(opts.out_dir.join(&t.file)).unwrap();
        assert_eq!(written, t.csv(), "{} differs from its table", t.file);
    }
    let pdr = report.get("tree.coap_pdr").expect("tree CoAP PDR reported");
    assert!(pdr >= 0.99, "tree CoAP PDR {pdr}");
}

#[test]
fn failed_job_still_writes_tables_and_fails() {
    let opts = opts("failed-job");
    let mut report = Report::default();
    let campaign = GridBuilder::new("failing", 1)
        .axis("case", ["ok", "boom"])
        .build();
    let outcome = report.campaign(&opts, &campaign, |job| {
        assert_eq!(job.params["case"], "ok", "injected failure");
        JobResult::new(&job.label())
    });
    assert_eq!(outcome.completed(), 1);
    assert_eq!(report.failed.len(), 1);
    report.table("partial.csv", "case", vec!["ok".into()]);

    let err = emit(&opts, &report).unwrap_err();
    assert!(err.contains("boom"), "{err}");
    assert_eq!(
        fs::read_to_string(opts.out_dir.join("partial.csv")).unwrap(),
        "case\nok\n"
    );
}

#[test]
fn unwritable_out_dir_fails() {
    let dir = below_a_file("unwritable");
    let table = Table {
        file: "t.csv".into(),
        header: "a".into(),
        rows: vec!["1".into()],
    };
    assert!(write_csv(&dir, &table).is_err());

    let mut report = Report::default();
    report.tables.push(table);
    let opts = Opts {
        out_dir: dir,
        ..opts("unwritable-opts")
    };
    let err = emit(&opts, &report).unwrap_err();
    assert!(err.contains("t.csv"), "{err}");
}

#[test]
fn binary_exits_nonzero_when_its_csv_cannot_be_written() {
    let dir = below_a_file("unwritable-bin");
    let status = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .args(["--quick", "--out"])
        .arg(&dir)
        .status()
        .unwrap();
    assert!(!status.success(), "{status}");
}
