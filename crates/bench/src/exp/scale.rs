//! scale — how far past the paper's 15 nodes does the stack go?
//!
//! Runs the random-geometric RPL mesh workload over a range of node
//! counts at constant density (the field side grows with √n, keeping
//! mean radio degree ≈ 11) and reports deterministic per-size results:
//! events processed, CoAP delivery through the DODAG, link-layer PDR
//! and connection losses. Host time is left to `perfbench`, so
//! `scale.csv` and the campaign artifacts are byte-identical across
//! `--jobs` and across machines, like every other figure artifact.
//!
//! Quick mode: n ∈ {100, 500}, 60 s measured. Full mode: n ∈
//! {100, 250, 500, 1000}, 600 s measured.

use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::{run_ble, ExperimentSpec, MeshTopology};

use crate::{Opts, Report};

/// Field side for `n` nodes: 800 m at n=500, scaled to keep density
/// (≈ 12 radio neighbours per node) constant.
fn side_m(n: usize) -> f64 {
    800.0 * (n as f64 / 500.0).sqrt()
}

/// Run the scaling study.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let sizes: &[usize] = opts.pick(&[100, 250, 500, 1000], &[100, 500]);
    let duration = Duration::from_secs(opts.pick(600, 60));
    let policy = IntervalPolicy::Randomized {
        lo: Duration::from_millis(65),
        hi: Duration::from_millis(85),
    };

    let campaign = opts
        .grid("scale")
        .axis("n", sizes.iter().map(|n| n.to_string()))
        .explicit_seeds(&[opts.seed])
        .build();
    let report = rep.campaign(opts, &campaign, |job| {
        let n: usize = job.params["n"].parse().expect("n axis is numeric");
        let mesh = MeshTopology::random_geometric(n, side_m(n), job.seed);
        let links = mesh.links.len();
        let spec = ExperimentSpec::mesh_default(mesh, policy, job.seed).with_duration(duration);
        let res = run_ble(&spec);
        let mut jr = to_job_result(&res, &[]);
        // Deterministic extras the generic flattening doesn't carry:
        // the event count (the same-seed invariant `--jobs` must not
        // move) and the generated graph size.
        jr.metric("events_processed", res.events_processed as f64);
        jr.metric("radio_links", links as f64);
        jr
    });

    let mut rows = Vec::new();
    for &n in sizes {
        let results = report.results_for_config(&format!("n={n}"));
        let Some(r) = results.first() else {
            continue;
        };
        let events = r.get("events_processed") as u64;
        let sent = r.get(keys::TOTAL_SENT) as u64;
        let done = r.get(keys::TOTAL_DONE) as u64;
        let coap_pdr = r.get(keys::COAP_PDR);
        let ll_pdr = r.get(keys::LL_PDR);
        let losses = r.get(keys::CONN_LOSSES) as u64;
        rep.scalar(format!("n{n}.coap_pdr"), coap_pdr, "— (15 nodes)");
        rep.scalar(format!("n{n}.ll_pdr"), ll_pdr, "— (15 nodes)");
        rows.push(format!(
            "{n},{events},{sent},{done},{coap_pdr:.6},{ll_pdr:.6},{losses}"
        ));
    }
    rep.table(
        "scale.csv",
        "n,events,sent,done,coap_pdr,ll_pdr,conn_losses",
        rows,
    );
    rep
}
