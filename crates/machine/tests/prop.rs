//! Property tests for the hardware simulator: conservation, determinism,
//! and topology invariants under random traffic.

use fem2_machine::{CostClass, Cycles, Machine, MachineConfig, Network, Pe, PeId, Topology};
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Bus),
        Just(Topology::Ring),
        Just(Topology::Mesh2D { width: 4 }),
        Just(Topology::Crossbar),
        Just(Topology::Torus { dims: vec![2, 4] }),
        Just(Topology::Torus {
            dims: vec![2, 2, 2],
        }),
        Just(Topology::FatTree { radix: 2 }),
        Just(Topology::FatTree { radix: 4 }),
    ]
}

/// Valid torus shapes for 2-D and 3-D routing tests (product ≤ 64).
fn torus_dims_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        (2u32..=4, 2u32..=4).prop_map(|(a, b)| vec![a, b]),
        (2u32..=3, 2u32..=3, 2u32..=3).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

/// State of an in-range PE.
fn state(m: &Machine, pe: PeId) -> Pe {
    *m.pe(pe).expect("PE ids come from cluster_pes")
}

/// The collect-then-min worker rule that `Machine::workers` replaced,
/// kept as the oracle: every alive PE except the kernel PE when one is
/// dedicated and another PE survives, collected, then minimized.
fn oracle_workers(m: &Machine, c: u32) -> Vec<PeId> {
    let alive = m.cluster_pes(c).filter(|&pe| !state(m, pe).failed);
    let dedicated = m.config.dedicated_kernel_pe && alive.count() > 1;
    m.cluster_pes(c)
        .filter(|&pe| !state(m, pe).failed)
        .filter(|&pe| !(dedicated && pe == m.kernel_pe(c)))
        .collect()
}

/// Oracle for `Machine::pick_worker`: earliest free, ties by index.
fn oracle_pick(m: &Machine, c: u32) -> Option<PeId> {
    oracle_workers(m, c)
        .into_iter()
        .min_by_key(|&pe| (state(m, pe).free_at, pe.index))
}

/// Oracle for the kernel's dispatch choice: lowest index free at `now`.
fn oracle_dispatch(m: &Machine, c: u32, now: Cycles) -> Option<PeId> {
    oracle_workers(m, c)
        .into_iter()
        .filter(|&pe| state(m, pe).available(now))
        .min_by_key(|pe| pe.index)
}

proptest! {
    /// The allocation-free worker scan picks exactly what the old
    /// collect-then-min rule picked, for both callers, over random machine
    /// states: 1–8 PEs per cluster, a dedicated kernel PE or not, failed
    /// and recovered PEs (the kernel PE included), a dead cluster, a
    /// cluster whose lane was never allocated, and random busy times.
    #[test]
    fn worker_scan_matches_the_collect_then_min_oracle(
        ppc in 1u32..=8,
        dedicated in any::<bool>(),
        ops in proptest::collection::vec((0u32..3, 0u32..4, 0u32..8, 0u64..400), 0..40),
        dead in 0u32..6,
        probes in proptest::collection::vec(0u64..2_000, 1..6),
    ) {
        let mut cfg = MachineConfig::clustered(4, ppc, Topology::Crossbar);
        cfg.dedicated_kernel_pe = dedicated;
        let mut m = Machine::new(cfg);
        for &(c, kind, i, x) in &ops {
            let pe = PeId::new(c, i % ppc);
            match kind {
                0 | 1 => {
                    let _ = m.charge(x, pe, CostClass::Flop, 1 + x % 50);
                }
                2 => {
                    let _ = m.fail_pe(pe);
                }
                _ => {
                    let _ = m.recover_pe(x, pe);
                }
            }
        }
        if dead < 3 {
            for i in 0..ppc {
                let _ = m.fail_pe(PeId::new(dead, i));
            }
        }
        let lanes = m.allocated_cluster_records();
        prop_assert!(lanes <= 3, "cluster 3 is never touched");
        for c in 0..4 {
            prop_assert_eq!(m.pick_worker(c), oracle_pick(&m, c), "pick, cluster {}", c);
            let busy: Vec<Cycles> = m.cluster_pes(c).map(|pe| state(&m, pe).free_at).collect();
            for &now in probes.iter().chain(&busy) {
                prop_assert_eq!(
                    m.idle_worker(c, now),
                    oracle_dispatch(&m, c, now),
                    "dispatch, cluster {} at {}",
                    c,
                    now
                );
            }
        }
        prop_assert_eq!(m.allocated_cluster_records(), lanes, "scans allocate nothing");
    }

    /// Hop counts are symmetric and zero exactly on the diagonal.
    #[test]
    fn hops_symmetric(topo in topo_strategy()) {
        let cfg = MachineConfig::clustered(8, 2, topo);
        let net = Network::new(&cfg);
        for a in 0..8 {
            for b in 0..8 {
                prop_assert_eq!(net.hops(a, b), net.hops(b, a));
                prop_assert_eq!(net.hops(a, b) == 0, a == b);
            }
        }
    }

    /// Word conservation: payload words transmitted equal words requested,
    /// and headers scale with packet count.
    #[test]
    fn transmit_conserves_words(
        topo in topo_strategy(),
        msgs in proptest::collection::vec((0u32..8, 0u32..8, 1u64..5000), 1..40),
    ) {
        let mut cfg = MachineConfig::clustered(8, 2, topo);
        cfg.max_packet_words = 256;
        let mut net = Network::new(&cfg);
        let mut expect_payload = 0u64;
        let mut remote = 0u64;
        for &(from, to, words) in &msgs {
            net.transmit(0, from, to, words);
            if from != to {
                expect_payload += words;
                remote += 1;
            }
        }
        prop_assert_eq!(net.payload_words, expect_payload);
        prop_assert_eq!(net.messages, remote);
        // Header accounting: headers = packets * header_words.
        prop_assert_eq!(net.header_words_moved, net.packets * cfg.header_words);
        // Packets at least one per remote message, and enough for payload.
        prop_assert!(net.packets >= remote);
    }

    /// Network arrival times are deterministic and monotone in start time.
    #[test]
    fn transmit_deterministic_and_monotone(
        topo in topo_strategy(),
        from in 0u32..8,
        to in 0u32..8,
        words in 1u64..4096,
        delay in 0u64..10_000,
    ) {
        let cfg = MachineConfig::clustered(8, 2, topo);
        let run = |start: u64| {
            let mut net = Network::new(&cfg);
            net.transmit(start, from, to, words)
        };
        prop_assert_eq!(run(0), run(0), "deterministic");
        let t0 = run(0);
        let t1 = run(delay);
        prop_assert_eq!(t1 - delay, t0, "time-shift invariant on a fresh net");
        // Arrival after start.
        prop_assert!(t0 > 0);
    }

    /// Torus dimension-order routes are hop-minimal (sum of per-dimension
    /// shortest wrap distances, computed independently here), deterministic,
    /// stay inside the link id space, and never revisit a link.
    #[test]
    fn torus_routes_are_dimension_order_minimal(
        dims in torus_dims_strategy(),
        from_raw in 0u32..64,
        to_raw in 0u32..64,
    ) {
        let n: u32 = dims.iter().product();
        let cfg = MachineConfig::clustered(n, 2, Topology::Torus { dims: dims.clone() });
        let net = Network::new(&cfg);
        let (from, to) = (from_raw % n, to_raw % n);
        // Independent coordinate math: dimension 0 has the lowest stride.
        let coords = |mut i: u32| -> Vec<u32> {
            dims.iter().map(|&d| { let c = i % d; i /= d; c }).collect()
        };
        let (f, t) = (coords(from), coords(to));
        let minimal: u32 = dims
            .iter()
            .enumerate()
            .map(|(d, &dim)| {
                let fwd = (t[d] + dim - f[d]) % dim;
                fwd.min(dim - fwd)
            })
            .sum();
        prop_assert_eq!(net.hops(from, to), minimal);
        let route = net.route_links(from, to).expect("healthy torus is connected");
        prop_assert_eq!(route.len() as u32, minimal, "route is hop-minimal");
        let space = n as usize * 2 * dims.len();
        let mut seen = std::collections::BTreeSet::new();
        for &l in &route {
            prop_assert!(l < space, "link id {l} outside id space {space}");
            prop_assert!(seen.insert(l), "route revisits link {l}");
        }
        // A fresh network picks the identical route.
        prop_assert_eq!(Network::new(&cfg).route_links(from, to).unwrap(), route);
    }

    /// Fat-tree up/down routes take exactly 2 hops inside a pod and 4
    /// across pods, deterministically, without revisiting a link.
    #[test]
    fn fat_tree_routes_are_up_down_minimal(
        radix_pow in 1u32..=3,
        pods in 1u32..=4,
        from_raw in 0u32..64,
        to_raw in 0u32..64,
    ) {
        let radix = 1u32 << radix_pow;
        let n = radix * pods;
        let cfg = MachineConfig::clustered(n, 2, Topology::FatTree { radix });
        let net = Network::new(&cfg);
        let (from, to) = (from_raw % n, to_raw % n);
        let expect = if from == to {
            0
        } else if from / radix == to / radix {
            2
        } else {
            4
        };
        prop_assert_eq!(net.hops(from, to), expect);
        let route = net.route_links(from, to).expect("healthy fat tree is connected");
        prop_assert_eq!(route.len() as u32, expect, "up/down route is hop-minimal");
        let space = 4 * n as usize;
        let mut seen = std::collections::BTreeSet::new();
        for &l in &route {
            prop_assert!(l < space, "link id {l} outside id space {space}");
            prop_assert!(seen.insert(l), "route revisits link {l}");
        }
        prop_assert_eq!(Network::new(&cfg).route_links(from, to).unwrap(), route);
    }

    /// Under arbitrary link kills, a chosen route (detour or not) never
    /// crosses a dead link, never revisits any link, never beats the
    /// healthy hop count, and is a pure function of the fault state.
    #[test]
    fn faulted_detours_avoid_dead_links(
        torus_side in prop_oneof![Just(false), Just(true)],
        kills in proptest::collection::btree_set(0usize..32, 0..6),
        from_raw in 0u32..8,
        to_raw in 0u32..8,
    ) {
        let n = 8u32;
        let topo = if torus_side {
            Topology::Torus { dims: vec![2, 4] }
        } else {
            Topology::FatTree { radix: 4 }
        };
        let cfg = MachineConfig::clustered(n, 2, topo);
        let build = || {
            let mut net = Network::new(&cfg);
            for &k in &kills {
                if k < net.link_count() {
                    net.fail_link(k);
                }
            }
            net
        };
        let net = build();
        let (from, to) = (from_raw % n, to_raw % n);
        match net.route_links(from, to) {
            // Unreachable under these faults: acceptable, and stable.
            None => prop_assert_eq!(build().route_links(from, to), None),
            Some(route) => {
                let mut seen = std::collections::BTreeSet::new();
                for &l in &route {
                    prop_assert!(!net.link_is_dead(l), "route crosses dead link {l}");
                    prop_assert!(seen.insert(l), "route revisits link {l}");
                }
                prop_assert!(
                    from == to || route.len() as u32 >= net.hops(from, to),
                    "detour cannot beat the healthy hop count"
                );
                prop_assert_eq!(build().route_links(from, to).unwrap(), route);
            }
        }
    }

    /// Charging random work to random PEs keeps busy-cycle accounting
    /// consistent with the makespan.
    #[test]
    fn machine_charging_consistent(
        work in proptest::collection::vec((0u32..4, 0u32..4, 1u64..1000), 1..50),
    ) {
        let mut m = Machine::new(MachineConfig::clustered(4, 4, Topology::Crossbar));
        for &(c, p, flops) in &work {
            let _ = m.charge(0, PeId::new(c, p), fem2_machine::CostClass::Flop, flops);
        }
        let total_flops: u64 = work.iter().map(|&(_, _, f)| f).sum();
        prop_assert_eq!(m.stats.total().flops, total_flops);
        // Makespan is at least the average load and at most the total.
        let cost = m.config.cost.flop;
        prop_assert!(m.makespan() <= total_flops * cost);
        prop_assert!(m.total_busy_cycles() == total_flops * cost);
    }

    /// Fault isolation never resurrects PEs and conserves the alive count.
    #[test]
    fn fault_accounting(kills in proptest::collection::vec((0u32..4, 0u32..4), 0..12)) {
        let mut m = Machine::new(MachineConfig::clustered(4, 4, Topology::Bus));
        let mut unique = std::collections::BTreeSet::new();
        for &(c, p) in &kills {
            let pe = PeId::new(c, p);
            // ClusterDead errors are acceptable; the PE is still isolated.
            let _ = m.fail_pe(pe);
            unique.insert(pe);
        }
        prop_assert_eq!(m.reconfigurations as usize, unique.len());
        let alive: u32 = (0..4).map(|c| m.alive_count(c)).sum();
        prop_assert_eq!(alive as usize, 16 - unique.len());
    }
}
