//! One module per experiment, each with `pub fn run(&Opts) -> Report`
//! ([`crate::Opts`], [`crate::Report`]). The binary of the same name
//! in `src/bin/` runs it from the command line.

pub mod ablation_afh;
pub mod ablation_update;
pub mod advcmp;
pub mod chaos;
pub mod churn;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod scale;
pub mod sec54_energy;
pub mod sec62_shading;
pub mod throughput;

use mindgap_core::IntervalPolicy;
use mindgap_sim::Duration;
use mindgap_testbed::{ExperimentSpec, Topology};

/// The ten connection-interval configurations of Figs. 14 and 15,
/// keyed by their campaign axis label: five static intervals, then
/// five randomized windows.
fn interval_configs() -> Vec<(String, IntervalPolicy)> {
    let ms = Duration::from_millis;
    let fixed = [25, 50, 75, 100, 500].map(|v| (v.to_string(), IntervalPolicy::Static(ms(v))));
    let windows = [(15, 35), (40, 60), (65, 85), (90, 110), (490, 510)].map(|(lo, hi)| {
        let policy = IntervalPolicy::Randomized {
            lo: ms(lo),
            hi: ms(hi),
        };
        (format!("[{lo}:{hi}]"), policy)
    });
    fixed.into_iter().chain(windows).collect()
}

/// The paper's tree with static `ms` connection intervals.
fn tree_static(ms: u64, seed: u64) -> ExperimentSpec {
    let policy = IntervalPolicy::Static(Duration::from_millis(ms));
    ExperimentSpec::paper_default(Topology::paper_tree(), policy, seed)
}
