//! One function per entry of [`crate::FIGURES`]: each prints its table or
//! figure to stdout, asking the shared [`Paper`] for results.

use crate::{network, pct, router_for, run, Paper};
use vix_alloc::{build_allocator, Allocator, AllocatorConfig, MaxMatchingAllocator, SeparableAllocator};
use vix_arbiter::ArbiterKind;
use vix_core::{
    AllocatorKind, GrantSet, PipelineKind, PortId, RequestSet, TopologyKind, VcId, VirtualInputs,
    VixPartition,
};
use vix_delay::{allocator_delay, RouterDesign};
use vix_manycore::{ManycoreSystem, Mix};
use vix_power::{EnergyBreakdown, EnergyModel};
use vix_sim::{parallel_map, SingleRouterHarness};
use vix_traffic::TrafficPattern;

/// Table 1: router pipeline stage delays (45 nm models).
pub(crate) fn table1(_: &mut Paper) {
    // (design, paper VA, paper SA, paper Xbar) for side-by-side printing.
    let paper: [(f64, f64, f64); 6] = [
        (300.0, 280.0, 167.0),
        (300.0, 290.0, 205.0),
        (340.0, 315.0, 205.0),
        (340.0, 330.0, 289.0),
        (360.0, 340.0, 238.0),
        (360.0, 345.0, 359.0),
    ];
    println!("Table 1: Router pipeline stage delays (model vs paper, ps)");
    println!(
        "{:<16} {:>5} {:>9} | {:>8} {:>8} | {:>8} {:>8} | {:>9} {:>9}",
        "Design", "Radix", "Xbar", "VA", "paper", "SA", "paper", "Xbar", "paper"
    );
    for (design, (pva, psa, pxb)) in RouterDesign::table1().into_iter().zip(paper) {
        let d = design.stage_delays();
        let (xi, xo) = design.crossbar_shape();
        println!(
            "{:<16} {:>5} {:>6}x{:<2} | {:>8.0} {:>8.0} | {:>8.0} {:>8.0} | {:>9.0} {:>9.0}",
            design.name, design.radix, xi, xo, d.va.0, pva, d.sa.0, psa, d.crossbar.0, pxb
        );
    }
    println!();
    println!("critical-path check (the paper's §2.4 argument):");
    for design in RouterDesign::table1() {
        let d = design.stage_delays();
        println!(
            "  {:<16} cycle time {:>6.0} ps, crossbar at {:>4.0}% of cycle ({})",
            design.name,
            d.cycle_time().0,
            100.0 * d.crossbar.0 / d.cycle_time().0,
            if d.crossbar_off_critical_path() { "off critical path" } else { "CRITICAL" }
        );
    }
}

/// Table 3: delay of different switch allocation schemes.
pub(crate) fn table3(_: &mut Paper) {
    println!("Table 3: Delay of switch allocation schemes (radix-5 mesh router, 6 VCs)");
    println!("{:<16} {:>12} {:>12}", "Scheme", "model", "paper");
    let rows: [(AllocatorKind, &str); 3] = [
        (AllocatorKind::InputFirst, "280 ps"),
        (AllocatorKind::Wavefront, "390 ps"),
        (AllocatorKind::AugmentingPath, "Infeasible"),
    ];
    for (kind, paper) in rows {
        let d = allocator_delay(kind, 5, 6, 1);
        println!("{:<16} {:>12} {:>12}", kind.label(), d.to_string(), paper);
    }
    println!();
    println!("extras beyond the table:");
    for (kind, vi) in [(AllocatorKind::Vix, 2), (AllocatorKind::Islip(2), 1), (AllocatorKind::PacketChaining, 1)] {
        let d = allocator_delay(kind, 5, 6, vi);
        println!("  {:<14} {:>12}", kind.label(), d.to_string());
    }
}

fn show(label: &str, alloc: &mut SeparableAllocator, reqs: &RequestSet) {
    let mut grants = GrantSet::new();
    alloc.allocate_into(reqs, &mut grants);
    print!("  {label}: {} flit(s) —", grants.len());
    for g in &grants {
        print!(" [{}:{} -> {}]", g.port, g.vc, g.out_port);
    }
    println!();
}

/// Walk-through of the paper's motivating Figures 4 and 5: the two
/// mechanisms by which virtual inputs improve switch allocation, shown as
/// concrete allocations on a 5-port mesh router (ports: 0=N 1=E 2=S 3=W
/// 4=Local).
pub(crate) fn fig4_fig5(_: &mut Paper) {
    let baseline = AllocatorConfig::new(5, VixPartition::baseline(4));
    let vix = AllocatorConfig::new(5, VixPartition::even(4, 2).expect("4 VCs / 2 groups"));

    println!("Figure 4: one input port, two output ports requested.");
    println!("  West (p3) VC0 -> Local (p4); West VC2 -> East (p1).");
    let mut reqs = RequestSet::new(5, 4);
    reqs.request(PortId(3), VcId(0), PortId(4));
    reqs.request(PortId(3), VcId(2), PortId(1));
    show("no VIX ", &mut SeparableAllocator::new(baseline), &reqs);
    show("1:2 VIX", &mut SeparableAllocator::new(vix), &reqs);
    println!("  -> virtual inputs let one port feed two outputs in a cycle.\n");

    println!("Figure 5: uncoordinated input arbiters.");
    println!("  West (p3) VC0 -> East; South (p2) VC0 -> East, VC2 -> North (p0).");
    let mut reqs = RequestSet::new(5, 4);
    reqs.request(PortId(3), VcId(0), PortId(1));
    reqs.request(PortId(2), VcId(0), PortId(1));
    reqs.request(PortId(2), VcId(2), PortId(0));
    show("no VIX ", &mut SeparableAllocator::new(baseline), &reqs);
    show("1:2 VIX", &mut SeparableAllocator::new(vix), &reqs);
    println!("  -> without VIX both input arbiters champion East and North idles;");
    println!("     with VIX South's second sub-group exposes the North request too.");
}

/// One Fig. 7 cell: saturated harness throughput for `kind` on `topo`'s
/// radix. `kind == None` selects the ideal (maximum-matching) allocator.
fn fig7_cell(topo: TopologyKind, kind: Option<AllocatorKind>) -> f64 {
    const VCS: usize = 6;
    let radix = topo.radix_64();
    let alloc = match kind {
        Some(AllocatorKind::Vix) => build_allocator(AllocatorKind::Vix, &router_for(topo, VCS, 2)),
        Some(kind) => build_allocator(kind, &router_for(topo, VCS, 1)),
        None => {
            let router = router_for(topo, VCS, 1).with_virtual_inputs(VirtualInputs::Ideal);
            let ideal = MaxMatchingAllocator::new(AllocatorConfig::from_router(&router));
            Allocator::MaxMatching(Box::new(ideal))
        }
    };
    SingleRouterHarness::new(alloc, radix, VCS, 2024).run(20_000).flits_per_cycle()
}

/// Figure 7: switch allocation efficiency for a single router, across
/// radices 5 / 8 / 10 (mesh, CMesh, FBfly routers).
pub(crate) fn fig7(paper: &mut Paper) {
    println!("Figure 7: single-router throughput at saturation (flits/cycle)");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}  | VIX vs IF, AP vs IF",
        "Radix", "IF", "WF", "AP", "VIX", "Ideal"
    );
    let topos = [TopologyKind::Mesh, TopologyKind::CMesh, TopologyKind::FlattenedButterfly];
    let kinds = [
        Some(AllocatorKind::InputFirst),
        Some(AllocatorKind::Wavefront),
        Some(AllocatorKind::AugmentingPath),
        Some(AllocatorKind::Vix),
        None,
    ];
    let grid: Vec<(TopologyKind, Option<AllocatorKind>)> =
        topos.into_iter().flat_map(|t| kinds.into_iter().map(move |k| (t, k))).collect();
    let cells = parallel_map(paper.jobs, &grid, |_, &(topo, kind)| fig7_cell(topo, kind));
    for (t, row) in cells.chunks(kinds.len()).enumerate() {
        let (fi, wf, ap, vix, ideal) = (row[0], row[1], row[2], row[3], row[4]);
        println!(
            "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}  | {} , {}",
            topos[t].radix_64(),
            fi,
            wf,
            ap,
            vix,
            ideal,
            pct(vix, fi),
            pct(ap, fi),
        );
    }
    println!();
    println!("paper: AP > +30% over IF at all radices; VIX > +25%; both near ideal.");
}

/// Figure 8: average packet latency and accepted throughput vs injection
/// rate, 8x8 mesh, uniform random, 4-flit packets.
pub(crate) fn fig8(paper: &mut Paper) {
    const ALLOCS: [AllocatorKind; 4] = [
        AllocatorKind::InputFirst,
        AllocatorKind::Wavefront,
        AllocatorKind::AugmentingPath,
        AllocatorKind::Vix,
    ];
    println!("Figure 8: 8x8 mesh, uniform random, 4-flit packets");
    println!("{:>6} | {:>18} | {:>18}", "rate", "latency (cycles)", "accepted (pkt/n/c)");
    print!("{:>6} |", "");
    for a in ALLOCS {
        print!("{:>5}", a.label());
    }
    print!(" |");
    for a in ALLOCS {
        print!("{:>7}", a.label());
    }
    println!();
    let rates = [0.01, 0.02, 0.04, 0.06, 0.08, 0.09, 0.10, 0.11, 0.12, 0.14];
    let curves: Vec<_> = ALLOCS
        .into_iter()
        .map(|alloc| {
            let vi = if alloc == AllocatorKind::Vix { 2 } else { 1 };
            let router = router_for(TopologyKind::Mesh, 6, vi);
            paper.sweep(network(TopologyKind::Mesh, alloc, router).with_seed(42), &rates)
        })
        .collect();
    let mut sat = [0.0f64; 4];
    for (r, rate) in rates.into_iter().enumerate() {
        print!("{rate:>6.2} |");
        for curve in &curves {
            print!("{:>5.0}", curve[r].avg_packet_latency());
        }
        print!(" |");
        for (i, curve) in curves.iter().enumerate() {
            let t = curve[r].accepted_packets_per_node_cycle();
            print!("{t:>7.3}");
            sat[i] = sat[i].max(t);
        }
        println!();
    }
    println!();
    println!("saturation throughput (max accepted):");
    for (a, s) in ALLOCS.into_iter().zip(sat) {
        println!("  {:<4} {:.4} pkt/node/cycle ({} vs IF)", a.label(), s, pct(s, sat[0]));
    }
    println!("paper: VIX +16.2% throughput and -36% latency over IF at high load; AP ~= IF (+0.3%).");
}

/// Figure 9: fairness (max/min per-node accepted throughput) for the mesh
/// at saturation.
pub(crate) fn fig9(paper: &mut Paper) {
    let allocs = [
        AllocatorKind::InputFirst,
        AllocatorKind::Wavefront,
        AllocatorKind::AugmentingPath,
        AllocatorKind::Vix,
        AllocatorKind::PacketChaining,
    ];
    println!("Figure 9: fairness at saturation, 8x8 mesh (max/min node throughput; 1.0 = perfectly fair)");
    let stats = parallel_map(paper.jobs, &allocs, |_, &alloc| {
        let vi = if alloc == AllocatorKind::Vix { 2 } else { 1 };
        run(network(TopologyKind::Mesh, alloc, router_for(TopologyKind::Mesh, 6, vi)).with_seed(42), 0.12)
    });
    for (alloc, s) in allocs.into_iter().zip(&stats) {
        println!(
            "  {:<4} max/min = {:>6.2}   (accepted {:.4} pkt/n/c)",
            alloc.label(),
            s.fairness_ratio(),
            s.accepted_packets_per_node_cycle()
        );
    }
    println!();
    println!("paper: AP = 6.4, VIX = 1.99.");
}

/// The seed every saturation search in the figures starts from.
const SATURATION_SEED: u64 = 0xFEED;

/// Saturation throughput of the paper's `topo` router with `vcs` VCs and
/// `vi` virtual inputs per port under uniform random traffic.
fn saturation(paper: &mut Paper, topo: TopologyKind, alloc: AllocatorKind, vcs: usize, vi: usize, packet_len: usize) -> f64 {
    let cfg = network(topo, alloc, router_for(topo, vcs, vi)).with_packet_len(packet_len);
    paper.saturation(cfg.with_seed(SATURATION_SEED), TrafficPattern::UniformRandom)
}

/// Figure 10: network throughput with packet chaining vs the other
/// allocation schemes — 8x8 mesh, uniform random, single-flit packets,
/// maximum injection rate.
pub(crate) fn fig10(paper: &mut Paper) {
    println!("Figure 10: saturation throughput, single-flit packets, 8x8 mesh (pkt/node/cycle)");
    let mut base = 0.0;
    for alloc in [
        AllocatorKind::InputFirst,
        AllocatorKind::Wavefront,
        AllocatorKind::PacketChaining,
        AllocatorKind::Vix,
    ] {
        let vi = if alloc == AllocatorKind::Vix { 2 } else { 1 };
        let thr = saturation(paper, TopologyKind::Mesh, alloc, 6, vi, 1);
        if alloc == AllocatorKind::InputFirst {
            base = thr;
        }
        println!("  {:<4} {:.4}  ({} vs IF)", alloc.label(), thr, pct(thr, base));
    }
    println!();
    println!("paper: PC +9% over IF, VIX +16% over IF.");
}

/// Figure 11: network energy per bit for the mesh at 0.1
/// packets/cycle/node, baseline vs VIX.
pub(crate) fn fig11(paper: &mut Paper) {
    println!("Figure 11: network energy per bit, 8x8 mesh @ 0.1 pkt/cycle/node");
    let model = EnergyModel::cmos45();
    let designs = [("IF", AllocatorKind::InputFirst, 1), ("VIX", AllocatorKind::Vix, 2)];
    let runs = parallel_map(paper.jobs, &designs, |_, &(_, alloc, vi)| {
        let router = router_for(TopologyKind::Mesh, 6, vi);
        (router, run(network(TopologyKind::Mesh, alloc, router).with_seed(42), 0.10))
    });
    let mut totals = Vec::new();
    for ((label, _, _), (router, stats)) in designs.into_iter().zip(&runs) {
        let span = EnergyModel::span_factor(router);
        let e = EnergyBreakdown::from_activity(&model, stats.activity(), span);
        println!("\n  {label} (crossbar span factor {span:.2}):");
        let total = e.total_pj();
        for (name, pj) in e.components() {
            println!("    {:<12} {:>12.0} pJ  ({:>4.1}%)", name, pj, 100.0 * pj / total);
        }
        let per_bit = e.energy_per_bit().expect("traffic flowed");
        println!("    {:<12} {:>12.0} pJ  -> {:.3} pJ/bit", "total", total, per_bit);
        totals.push(per_bit);
    }
    println!("\n  VIX energy/bit vs IF: {}", pct(totals[1], totals[0]));
    println!("  paper: total network energy per bit increases ~4% with VIX.");
}

/// Figure 12: impact of increasing virtual inputs — no VIX, 1:2 VIX, ideal
/// VIX for 4 and 6 VCs per port, on all three topologies. Also prints the
/// §4.6 buffer-reduction claim (4-VC VIX vs 6-VC no-VIX).
pub(crate) fn fig12(paper: &mut Paper) {
    let mut sat = |topo, vcs, vi: usize| {
        let alloc = if vi > 1 { AllocatorKind::Vix } else { AllocatorKind::InputFirst };
        saturation(paper, topo, alloc, vcs, vi, 4)
    };
    println!("Figure 12: saturation throughput (pkt/node/cycle) vs virtual inputs");
    println!(
        "{:<8} {:>4} | {:>8} {:>8} {:>8} | 1:2 vs none, ideal vs none",
        "Topo", "VCs", "no VIX", "1:2 VIX", "ideal"
    );
    let mut four_vc_vix = Vec::new();
    let mut six_vc_base = Vec::new();
    for topo in [TopologyKind::Mesh, TopologyKind::FlattenedButterfly, TopologyKind::CMesh] {
        for vcs in [4usize, 6] {
            let none = sat(topo, vcs, 1);
            let two = sat(topo, vcs, 2);
            let ideal = sat(topo, vcs, vcs);
            println!(
                "{:<8} {:>4} | {:>8.4} {:>8.4} {:>8.4} | {} , {}",
                format!("{topo:?}").chars().take(8).collect::<String>(),
                vcs,
                none,
                two,
                ideal,
                pct(two, none),
                pct(ideal, none)
            );
            if vcs == 4 {
                four_vc_vix.push(two);
            } else {
                six_vc_base.push(none);
            }
        }
    }
    println!();
    println!("buffer-reduction claim (4-VC 1:2 VIX vs 6-VC baseline, 33% fewer buffers):");
    for (i, topo) in ["Mesh", "FBfly", "CMesh"].iter().enumerate() {
        println!(
            "  {:<6} 4-VC VIX {:.4} vs 6-VC no-VIX {:.4}  ({})",
            topo,
            four_vc_vix[i],
            six_vc_base[i],
            pct(four_vc_vix[i], six_vc_base[i])
        );
    }
    println!();
    println!("paper: 1:2 VIX +21% (4 VCs) / +16% (6 VCs) on average; 4-VC VIX beats 6-VC baseline by >10%.");
}

/// Table 4: speedup of VIX over the baseline (IF) allocator for the eight
/// multiprogrammed mixes on the 64-core CMP.
pub(crate) fn table4(paper: &mut Paper) {
    println!("Table 4: application mixes on the 64-core CMP (8x8 mesh NoC)");
    println!(
        "{:<6} {:>10} | {:>9} {:>9} | {:>8} {:>8}",
        "Mix", "avg MPKI", "IPC (IF)", "IPC (VIX)", "speedup", "paper"
    );
    let mixes = Mix::table4();
    let grid: Vec<(usize, AllocatorKind)> = (0..mixes.len())
        .flat_map(|m| [(m, AllocatorKind::InputFirst), (m, AllocatorKind::Vix)])
        .collect();
    let ipcs = parallel_map(paper.jobs, &grid, |_, &(m, alloc)| {
        ManycoreSystem::build(&mixes[m], alloc, 5).run_windows(3_000, 15_000).total_ipc()
    });
    let mut speedups = Vec::new();
    for (m, mix) in mixes.iter().enumerate() {
        let (base, vix) = (ipcs[2 * m], ipcs[2 * m + 1]);
        let speedup = vix / base;
        speedups.push(speedup);
        println!(
            "{:<6} {:>10.1} | {:>9.1} {:>9.1} | {:>8.3} {:>8.2}",
            mix.name,
            mix.avg_mpki(),
            base,
            vix,
            speedup,
            mix.paper_speedup
        );
    }
    let avg = speedups.iter().product::<f64>().powf(1.0 / speedups.len() as f64);
    println!();
    println!("geometric-mean speedup: {avg:.3} (paper: ~1.05 average, max 1.07)");
    println!("note: our synthetic traces load the NoC harder than the paper's,");
    println!("amplifying speedups for network-bound mixes; see EXPERIMENTS.md.");
}

/// Ablation (§2.3): dimension-aware VC sub-group assignment with load
/// balancing vs plain max-credits assignment, for the 1:2 VIX mesh — under
/// uniform random and adversarial (transpose, bit-complement) traffic.
pub(crate) fn ablation_vc_assign(paper: &mut Paper) {
    let mut sat = |dimension_aware: bool, pattern: TrafficPattern| {
        let router = router_for(TopologyKind::Mesh, 6, 2).with_dimension_aware_va(dimension_aware);
        paper.saturation(network(TopologyKind::Mesh, AllocatorKind::Vix, router).with_seed(7), pattern)
    };
    println!("Ablation: VIX VC assignment policy (1:2 VIX, 8x8 mesh, saturation throughput)");
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose, TrafficPattern::BitComplement] {
        let plain = sat(false, pattern.clone());
        let dim = sat(true, pattern.clone());
        println!(
            "  {:<10} max-credits {:.4}  dimension-aware {:.4}  ({})",
            pattern.label(),
            plain,
            dim,
            pct(dim, plain)
        );
    }
    println!();
    println!("the paper (§2.3) argues dimension-aware assignment helps most on adversarial patterns.");
}

/// Ablation: speculative vs non-speculative switch allocation in the
/// 3-stage pipeline (Fig. 6(b)).
pub(crate) fn ablation_spec(paper: &mut Paper) {
    const RATES: [f64; 4] = [0.02, 0.05, 0.08, 0.10];
    println!("Ablation: speculative SA (8x8 mesh, IF allocator, 4-flit packets)");
    println!("{:>6} | {:>12} {:>12} | {:>12} {:>12}", "rate", "lat spec", "lat no-spec", "thr spec", "thr no-spec");
    let grid: Vec<(f64, bool)> = RATES
        .into_iter()
        .flat_map(|rate| [(rate, true), (rate, false)])
        .collect();
    let stats = parallel_map(paper.jobs, &grid, |_, &(rate, speculation)| {
        let router = router_for(TopologyKind::Mesh, 6, 1).with_speculation(speculation);
        run(network(TopologyKind::Mesh, AllocatorKind::InputFirst, router).with_seed(11), rate)
    });
    for (i, rate) in RATES.into_iter().enumerate() {
        let (spec, nospec) = (&stats[2 * i], &stats[2 * i + 1]);
        println!(
            "{:>6.2} | {:>12.1} {:>12.1} | {:>12.4} {:>12.4}",
            rate,
            spec.avg_packet_latency(),
            nospec.avg_packet_latency(),
            spec.accepted_packets_per_node_cycle(),
            nospec.accepted_packets_per_node_cycle()
        );
    }
    println!();
    println!("speculation shaves head-flit latency at low load; at saturation the two converge.");
}

/// Ablation: arbiter circuit inside the separable allocators (round-robin
/// vs least-recently-granted matrix vs unfair static priority).
pub(crate) fn ablation_arbiter(paper: &mut Paper) {
    println!("Ablation: arbiter circuit, saturated single radix-5 router, 6 VCs (flits/cycle)");
    let mut grid = Vec::new();
    for (groups, label) in [(1usize, "IF"), (2, "VIX 1:2")] {
        for arb in [ArbiterKind::RoundRobin, ArbiterKind::Matrix, ArbiterKind::Static] {
            grid.push((groups, label, arb));
        }
    }
    let rates = parallel_map(paper.jobs, &grid, |_, &(groups, _, arb)| {
        let cfg = AllocatorConfig::new(5, VixPartition::even(6, groups).unwrap()).with_arbiter(arb);
        let mut h = SingleRouterHarness::new(Allocator::Separable(SeparableAllocator::new(cfg)), 5, 6, 99);
        h.run(20_000).flits_per_cycle()
    });
    for (&(_, label, arb), t) in grid.iter().zip(&rates) {
        println!("  {:<8} {:<12?} {:.3}", label, arb, t);
    }
    println!();
    println!("matching efficiency is arbiter-insensitive at saturation; fairness is not (see fig9).");
}

/// Ablation: number of virtual inputs per port k in {1, 2, 3, 6} for the
/// 6-VC mesh router — a finer-grained version of Fig. 12.
pub(crate) fn ablation_virtual_inputs(paper: &mut Paper) {
    println!("Ablation: virtual inputs per port, 8x8 mesh, 6 VCs (saturation pkt/node/cycle)");
    let mut base = 0.0;
    for k in [1usize, 2, 3, 6] {
        let alloc = if k == 1 { AllocatorKind::InputFirst } else { AllocatorKind::Vix };
        let thr = saturation(paper, TopologyKind::Mesh, alloc, 6, k, 4);
        if k == 1 {
            base = thr;
        }
        println!("  k={k}  {:.4}  ({})", thr, pct(thr, base));
    }
    println!();
    println!("the paper limits production designs to k=2: most of the benefit at bounded crossbar cost.");
}

/// Ablation: SPAROFLO-style oldest-first prioritisation in the separable
/// stages — an extension §5 of the paper describes as easily integrable
/// with VIX. Age priority targets *tail* latency, so we report p50/p99.
pub(crate) fn ablation_priority(paper: &mut Paper) {
    println!("Ablation: oldest-first SA priority, 8x8 mesh (latency in cycles)");
    println!(
        "{:<6} {:>6} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "alloc", "rate", "avg", "p50", "p99", "avg+age", "p50+age", "p99+age"
    );
    let mut grid = Vec::new();
    for (alloc, vi) in [(AllocatorKind::InputFirst, 1), (AllocatorKind::Vix, 2)] {
        for rate in [0.08, 0.10, 0.11] {
            grid.push((alloc, vi, false, rate));
            grid.push((alloc, vi, true, rate));
        }
    }
    let stats = parallel_map(paper.jobs, &grid, |_, &(alloc, vi, age, rate)| {
        let router = router_for(TopologyKind::Mesh, 6, vi).with_age_based_sa(age);
        run(network(TopologyKind::Mesh, alloc, router).with_seed(31), rate)
    });
    for (i, pair) in stats.chunks(2).enumerate() {
        let (alloc, _, _, rate) = grid[2 * i];
        let (plain, aged) = (&pair[0], &pair[1]);
        println!(
            "{:<6} {:>6.2} | {:>8.1} {:>8} {:>8} | {:>8.1} {:>8} {:>8}",
            alloc.label(),
            rate,
            plain.avg_packet_latency(),
            plain.median_packet_latency().unwrap_or(0),
            plain.p99_packet_latency().unwrap_or(0),
            aged.avg_packet_latency(),
            aged.median_packet_latency().unwrap_or(0),
            aged.p99_packet_latency().unwrap_or(0),
        );
    }
    println!();
    println!("age priority trims the p99 tail near saturation at unchanged mean/throughput.");
}

/// Ablation (Fig. 6): the conventional five-stage pipeline vs the paper's
/// optimised three-stage pipeline (lookahead routing + speculative SA).
pub(crate) fn ablation_pipeline(paper: &mut Paper) {
    const RATES: [f64; 4] = [0.01, 0.04, 0.08, 0.10];
    println!("Ablation: router pipeline depth (8x8 mesh, IF allocator)");
    println!("{:>6} | {:>14} {:>14} | {:>10} {:>10}", "rate", "lat 3-stage", "lat 5-stage", "thr 3st", "thr 5st");
    let grid: Vec<(PipelineKind, f64)> = RATES
        .into_iter()
        .flat_map(|rate| [(PipelineKind::ThreeStage, rate), (PipelineKind::FiveStage, rate)])
        .collect();
    let stats = parallel_map(paper.jobs, &grid, |_, &(pipeline, rate)| {
        let router = router_for(TopologyKind::Mesh, 6, 1).with_pipeline(pipeline);
        run(network(TopologyKind::Mesh, AllocatorKind::InputFirst, router).with_seed(17), rate)
    });
    for (i, rate) in RATES.into_iter().enumerate() {
        let (three, five) = (&stats[2 * i], &stats[2 * i + 1]);
        println!(
            "{:>6.2} | {:>14.1} {:>14.1} | {:>10.4} {:>10.4}",
            rate,
            three.avg_packet_latency(),
            five.avg_packet_latency(),
            three.accepted_packets_per_node_cycle(),
            five.accepted_packets_per_node_cycle()
        );
    }
    println!();
    println!("lookahead routing + speculation remove two head-flit stages per hop —");
    println!("the latency motivation for the paper's Fig. 6(b) router.");
}

/// Extension: WF-VIX — wavefront allocation over virtual inputs, combining
/// WF's intra-cycle conflict resolution with VIX's lifted input-port
/// constraint. Not in the paper; included as the natural next point in the
/// design space.
pub(crate) fn extension_wfvix(paper: &mut Paper) {
    println!("Extensions: OF and WF-VIX vs the paper's schemes (8x8 mesh, 6 VCs, 4-flit packets)");
    let mut base = 0.0;
    for (alloc, vi) in [
        (AllocatorKind::InputFirst, 1),
        (AllocatorKind::OutputFirst, 1),
        (AllocatorKind::Wavefront, 1),
        (AllocatorKind::Vix, 2),
        (AllocatorKind::WavefrontVix, 2),
    ] {
        let thr = saturation(paper, TopologyKind::Mesh, alloc, 6, vi, 4);
        if alloc == AllocatorKind::InputFirst {
            base = thr;
        }
        let delay = allocator_delay(alloc, 5, 6, vi);
        println!(
            "  {:<7} {:.4} pkt/n/c  ({} vs IF)   circuit {}",
            alloc.label(),
            thr,
            pct(thr, base),
            delay
        );
    }
    println!();
    println!("WF-VIX buys a little more throughput than VIX but inherits WF's slow circuit —");
    println!("the paper's separable VIX remains the better delay/efficiency trade.");
}
