//! Figure 14 — distribution of BLE connection losses across interval
//! configurations (1 s producer interval, 5×1 h each).
//!
//! Paper reference: static intervals lose connections at every
//! setting (most at the small, tightly packed intervals); the
//! randomized windows (grey in the paper) are almost loss-free, with
//! residual losses only for small intervals under load — attributed
//! to interference, not shading.
//!
//! The per-configuration runs are independent, so they are sharded
//! across a campaign worker pool (`--jobs N`) with resumable
//! artifacts under `results/campaigns/`.

use std::collections::BTreeMap;

use mindgap_bench::{banner, write_csv, Opts};
use mindgap_campaign::GridBuilder;
use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::campaign::{keys, to_job_result};
use mindgap_testbed::{run_ble, ExperimentSpec, Topology};

fn main() {
    let opts = Opts::parse();
    banner("Figure 14", "Connection losses per interval configuration", &opts);
    let duration = if opts.full {
        Duration::from_secs(3600)
    } else {
        Duration::from_secs(1200)
    };
    let ms = Duration::from_millis;
    let configs: Vec<(String, IntervalPolicy)> = vec![
        ("25".into(), IntervalPolicy::Static(ms(25))),
        ("50".into(), IntervalPolicy::Static(ms(50))),
        ("75".into(), IntervalPolicy::Static(ms(75))),
        ("100".into(), IntervalPolicy::Static(ms(100))),
        ("500".into(), IntervalPolicy::Static(ms(500))),
        (
            "[15:35]".into(),
            IntervalPolicy::Randomized { lo: ms(15), hi: ms(35) },
        ),
        (
            "[40:60]".into(),
            IntervalPolicy::Randomized { lo: ms(40), hi: ms(60) },
        ),
        (
            "[65:85]".into(),
            IntervalPolicy::Randomized { lo: ms(65), hi: ms(85) },
        ),
        (
            "[90:110]".into(),
            IntervalPolicy::Randomized { lo: ms(90), hi: ms(110) },
        ),
        (
            "[490:510]".into(),
            IntervalPolicy::Randomized { lo: ms(490), hi: ms(510) },
        ),
    ];
    let policies: BTreeMap<String, IntervalPolicy> = configs.iter().cloned().collect();

    let campaign = GridBuilder::new(&format!("fig14-{}", opts.mode()), opts.seed)
        .axis("conn", configs.iter().map(|(label, _)| label.clone()))
        .explicit_seeds(&opts.seeds())
        .build();
    let report = mindgap_bench::run_campaign(&opts, &campaign, |job| {
        let policy = policies[&job.params["conn"]];
        let spec = ExperimentSpec::paper_default(Topology::paper_tree(), policy, job.seed)
            .with_duration(duration)
            .with_clock_ppm(5.0);
        to_job_result(&run_ble(&spec), &[])
    });

    println!(
        "\nruns per config: {} × {} s   (paper: 5 × 1 h)\n",
        opts.seeds().len(),
        duration.millis() / 1000
    );
    println!("{:>12} {:>10} {:>12} {:>12}", "conn itvl", "losses", "CoAP PDR", "LL PDR");
    let mut rows = Vec::new();
    let mut static_losses = 0usize;
    let mut random_losses = 0usize;
    for (label, _) in &configs {
        let config = format!("conn={label}");
        let results = report.results_for_config(&config);
        let losses: usize = results
            .iter()
            .map(|r| r.get(keys::CONN_LOSSES) as usize)
            .sum();
        let pdr_sum: f64 = results.iter().map(|r| r.get(keys::COAP_PDR)).sum();
        let ll_sum: f64 = results.iter().map(|r| r.get(keys::LL_PDR)).sum();
        let n = results.len() as f64;
        let is_random = label.starts_with('[');
        if is_random {
            random_losses += losses;
        } else {
            static_losses += losses;
        }
        println!(
            "{label:>12} {losses:>10} {:>11.3}% {:>11.3}%",
            pdr_sum / n * 100.0,
            ll_sum / n * 100.0
        );
        rows.push(format!(
            "{label},{losses},{:.5},{:.5}",
            pdr_sum / n,
            ll_sum / n
        ));
    }
    write_csv(&opts, "fig14_losses.csv", "config,losses,coap_pdr,ll_pdr", &rows);

    println!(
        "\nStatic configurations: {static_losses} losses total; randomized: {random_losses}."
    );
    println!("Shape check vs paper: static ≫ randomized; the randomized");
    println!("windows largely eliminate shading-induced losses.");
}
