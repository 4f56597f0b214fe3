//! Connection-less flooding: one broadcast crosses a mesh without a
//! single connection existing.
//!
//! The advertising transport (DESIGN.md §10) carries frames in
//! extended-advertising trains; its `rebroadcast_hops` knob stamps a
//! TTL on locally originated broadcasts so receivers re-advertise
//! them, turning the three advertising channels into a controlled
//! flood. This example drops the same payload into a random-geometric
//! mesh twice — once with rebroadcast disabled, once with a 3-hop
//! budget — and counts who heard it:
//!
//! * with `rebroadcast_hops = 0` the broadcast dies at the source's
//!   radio horizon: only direct neighbours receive it;
//! * with `rebroadcast_hops = 3` the flood crosses the mesh, reaching
//!   every node up to four radio hops out (the origin transmission
//!   plus three rebroadcast generations) and no farther — the TTL
//!   budget, not network-wide dedup, is what bounds the flood. Each
//!   relay re-advertises under its **own** sequence number, so
//!   receivers deliver one copy per relaying neighbour; the dedup
//!   ring only collapses the `REPEATS` copies of each train.
//!
//! Run with `cargo run --release --example flood_mesh`.

use std::collections::VecDeque;

use mindgap::core::{AdvConfig, AppConfig, IntervalPolicy, TransportMode, World, WorldConfig};
use mindgap::sim::{Duration, Instant, NodeId};
use mindgap::testbed::MeshTopology;

const N: usize = 40;
const SOURCE: u16 = 0;

/// BFS hop distance from `src` over the mesh's radio links.
fn hop_distances(links: &[(u16, u16)], n: usize, src: u16) -> Vec<usize> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in links {
        adj[a as usize].push(b as usize);
        adj[b as usize].push(a as usize);
    }
    let mut dist = vec![usize::MAX; n];
    dist[src as usize] = 0;
    let mut q = VecDeque::from([src as usize]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Build the mesh world in adv mode, broadcast once from `SOURCE`,
/// and return each node's delivery count.
fn flood(mesh: &MeshTopology, hops: u8) -> Vec<u64> {
    let adv = AdvConfig {
        rebroadcast_hops: hops,
        ..AdvConfig::default()
    };
    let mut cfg = WorldConfig::paper_default(7, IntervalPolicy::Static(Duration::from_millis(75)));
    cfg.transport = TransportMode::Adv(adv);
    cfg.radio_links = Some(mesh.links.clone());
    // No producers: the only traffic is our one broadcast, so a
    // node's `delivered` counter is exactly its copy count.
    let app = AppConfig::paper_default(Vec::new(), mesh.consumer);
    let mut w = World::new(cfg, mesh.node_configs(), app);
    // Let neighbour discovery settle, then drop the payload in.
    w.run_until(Instant::from_secs(5));
    assert!(
        w.adv_broadcast(NodeId(SOURCE), b"flood-me".to_vec()),
        "source must accept the broadcast"
    );
    w.run_until(Instant::from_secs(20));
    (0..N as u16)
        .map(|i| w.adv_counters(NodeId(i)).expect("adv mode").delivered)
        .collect()
}

fn main() {
    let mesh = MeshTopology::random_geometric(N, 230.0, 7);
    let dist = hop_distances(&mesh.links, N, SOURCE);
    let direct = dist.iter().filter(|&&d| d == 1).count();
    let beyond = dist
        .iter()
        .filter(|&&d| (2..usize::MAX).contains(&d))
        .count();
    println!(
        "mesh: {N} nodes, {} radio links; node {SOURCE} has {direct} direct \
         neighbours, {beyond} nodes beyond direct range",
        mesh.links.len()
    );

    for hops in [0u8, 3] {
        let delivered = flood(&mesh, hops);
        let heard: Vec<usize> = (1..N).filter(|&i| delivered[i] > 0).collect();
        let max_hop = heard.iter().map(|&i| dist[i]).max().unwrap_or(0);
        let copies: u64 = (0..N).map(|i| delivered[i]).sum();
        println!(
            "\nrebroadcast_hops = {hops}: {} of {} non-source nodes heard the \
             broadcast (farthest at {max_hop} radio hops, {copies} copies \
             delivered mesh-wide)",
            heard.len(),
            N - 1
        );
        if hops == 0 {
            // The flood is off: nothing beyond the radio horizon.
            assert!(
                heard.iter().all(|&i| dist[i] == 1),
                "rebroadcast disabled but a multi-hop node got the frame"
            );
            assert_eq!(
                delivered[SOURCE as usize], 0,
                "nobody echoed, yet the source heard one"
            );
        } else {
            assert!(
                heard.iter().any(|&i| dist[i] >= 2),
                "flood never crossed the source's radio horizon"
            );
            assert!(
                heard.len() > direct,
                "flood reached no more nodes than direct radio range"
            );
            // The TTL bound: origin + `hops` rebroadcast generations.
            assert!(
                max_hop <= hops as usize + 1,
                "frame travelled {max_hop} hops on a {hops}-hop budget"
            );
        }
    }

    println!("\nwhat happened: each receiver re-advertised the frame on the three");
    println!("advertising channels under its own sequence number until the TTL");
    println!("ran out, so coverage grows one radio hop per budget unit while the");
    println!("dedup ring collapses each relay's repeated trains to one delivery.");
}
