//! Campaign engine demo: a connection-interval × seed sweep on the
//! paper's tree topology, sharded across a worker pool with resumable
//! artifacts.
//!
//! Run with `cargo run --release --example campaign_sweep`. Kill it
//! half-way (Ctrl-C) and run it again: completed jobs are served from
//! their JSON artifacts under `results/campaigns/example-sweep/` and
//! only the missing ones are simulated. Pass `--fresh` to ignore the
//! artifacts and recompute everything.
//!
//! Per-job seeds are *derived* from the campaign's master seed here
//! (contrast with the figure binaries, which pass explicit seeds to
//! stay comparable with their historical serial loops); either way the
//! artifacts are byte-identical no matter how many workers run or in
//! which order the pool schedules the jobs.

use mindgap::campaign::{self, GridBuilder, RunConfig};
use mindgap::core::IntervalPolicy;
use mindgap::sim::Duration;
use mindgap::testbed::campaign::{keys, to_job_result};
use mindgap::testbed::{run_ble, ExperimentSpec, Topology};

fn main() {
    let fresh = std::env::args().any(|a| a == "--fresh");
    let conn_ms = [25u64, 75, 500];

    // 3 connection intervals × 3 derived seeds = 9 jobs.
    let grid = GridBuilder::new("example-sweep", 0xC0FFEE)
        .axis("conn", conn_ms.iter().map(u64::to_string))
        .derived_seeds(3)
        .build();
    let cfg = RunConfig {
        workers: 0, // all cores
        out_root: "results/campaigns".into(),
        resume: !fresh,
        progress: true,
    };

    let report = campaign::run(&grid, &cfg, |job| {
        let ms: u64 = job.params["conn"].parse().unwrap();
        let spec = ExperimentSpec::paper_default(
            Topology::paper_tree(),
            IntervalPolicy::Static(Duration::from_millis(ms)),
            job.seed,
        )
        .with_duration(Duration::from_secs(120));
        to_job_result(&run_ble(&spec), &[])
    });

    println!(
        "\n{} jobs: {} fresh, {} from artifacts, {} failed\n",
        grid.jobs.len(),
        report.completed() - report.cached(),
        report.cached(),
        report.failures().len()
    );
    println!(
        "{:>10} {:>3} {:>22} {:>22}",
        "conn itvl", "n", "CoAP PDR (mean±CI95)", "LL PDR (mean±CI95)"
    );
    for ms in conn_ms {
        let config = format!("conn={ms}");
        let coap = campaign::summarize_metric(&report, &config, keys::COAP_PDR);
        let ll = campaign::summarize_metric(&report, &config, keys::LL_PDR);
        let (Some(coap), Some(ll)) = (coap, ll) else {
            println!("{ms:>8}ms   (no results)");
            continue;
        };
        println!(
            "{ms:>8}ms {:>3} {:>13.3}% ±{:.3}% {:>13.3}% ±{:.3}%",
            coap.n,
            coap.mean * 100.0,
            coap.ci95 * 100.0,
            ll.mean * 100.0,
            ll.ci95 * 100.0
        );
    }
    println!("\nartifacts: results/campaigns/example-sweep/ (delete or --fresh to recompute)");
}
