//! The full 64-core system: cores, L2 banks, and memory controllers
//! exchanging messages over the cycle-accurate NoC.

use crate::benchmarks::Mix;
use crate::core_model::CoreModel;
use crate::l2::{L2Bank, L2Response};
use crate::memory::MemoryController;
use std::collections::{HashMap, VecDeque};
use vix_core::{AllocatorKind, Cycle, NetworkConfig, NodeId, SimConfig, TopologyKind};
use vix_sim::{EjectedPacket, NetworkSim};

/// Flits in a request packet (address + metadata in one 128-bit flit).
const REQ_FLITS: usize = 1;
/// Flits in a data packet (64 B block = 4 flits + 1 header flit).
const DATA_FLITS: usize = 5;
/// Memory-controller terminals: one per mesh column half, top and bottom
/// rows (8 controllers, Table 2).
const MC_NODES: [usize; 8] = [1, 3, 5, 7, 56, 58, 60, 62];
/// Effective memory-level parallelism per core (how many misses the OoO
/// window overlaps before stalling).
const MLP_LIMIT: usize = 12;
/// Per-core share of the shared L2, in 64-byte blocks
/// (16 MB / 64 cores / 64 B).
const L2_SHARE_BLOCKS: u64 = 4096;

/// One in-flight message, looked up by packet tag on ejection.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Core → L2 bank: fetch `block` for transaction `txn`.
    CoreReq { txn: u64, block: u64 },
    /// L2 bank → memory controller: fill `block` for `bank`.
    MemReq { block: u64, bank: NodeId },
    /// Memory controller → L2 bank: data for `block`.
    MemData { block: u64 },
    /// L2 bank → core: data for transaction `txn`.
    CoreData { txn: u64 },
    /// Core → L2 bank: dirty L1 victim data (no reply).
    CoreWriteback { block: u64 },
    /// L2 bank → memory controller: dirty L2 victim data (no reply).
    MemWriteback,
}

/// Result of one manycore run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemResult {
    /// Measured IPC per core.
    pub per_core_ipc: Vec<f64>,
    /// Benchmark name each core ran (parallel to `per_core_ipc`).
    pub per_core_benchmark: Vec<&'static str>,
    /// Measured cycles.
    pub cycles: u64,
    /// L1 misses issued during the whole run.
    pub misses_issued: u64,
    /// Dirty-victim writebacks issued during the whole run.
    pub writebacks_issued: u64,
    /// Observed shared-L2 miss ratio.
    pub l2_miss_ratio: f64,
    /// Memory requests served by the controllers.
    pub memory_requests: u64,
}

impl SystemResult {
    /// System throughput: the sum of per-core IPCs (Table 4's speedup
    /// metric compares this between allocators).
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        self.per_core_ipc.iter().sum()
    }

    /// Mean per-core IPC.
    #[must_use]
    pub fn avg_ipc(&self) -> f64 {
        self.total_ipc() / self.per_core_ipc.len() as f64
    }

    /// Mean IPC per benchmark, in first-appearance order — the per-app
    /// view behind Table 4's system speedups.
    #[cfg(test)]
    fn ipc_by_benchmark(&self) -> Vec<(&'static str, f64)> {
        let mut order: Vec<&'static str> = Vec::new();
        let mut sums: std::collections::HashMap<&'static str, (f64, usize)> = Default::default();
        for (name, ipc) in self.per_core_benchmark.iter().zip(&self.per_core_ipc) {
            if !sums.contains_key(name) {
                order.push(name);
            }
            let entry = sums.entry(name).or_insert((0.0, 0));
            entry.0 += ipc;
            entry.1 += 1;
        }
        order
            .into_iter()
            .map(|name| {
                let (sum, n) = sums[name];
                (name, sum / n as f64)
            })
            .collect()
    }
}

/// A 64-core CMP (Table 2) whose cores, L2 banks, and memory controllers
/// communicate over a simulated 8×8 mesh NoC with the chosen switch
/// allocator.
#[derive(Debug)]
pub struct ManycoreSystem {
    net: NetworkSim,
    cores: Vec<CoreModel>,
    banks: Vec<L2Bank>,
    /// The memory controllers, in [`MC_NODES`] order — a fixed visiting
    /// order, so packet ids and tags are assigned identically on every run.
    mcs: Vec<MemoryController>,
    /// Packets the network delivered in the last cycle (`step_into`), handled
    /// at the start of the next; the buffer is reused every cycle.
    ejected: Vec<EjectedPacket>,
    /// Transaction table: txn id → requesting core.
    txns: HashMap<u64, NodeId>,
    /// In-flight message payloads, keyed by packet tag.
    messages: HashMap<u64, Msg>,
    /// Same-node messages bypass the network with a 1-cycle latency:
    /// `(ready_at, dest, msg)`. Cold by construction — only Table-4
    /// application-mix runs build a `ManycoreSystem`; the NoC transport
    /// hot path (ring slabs + pipes) never touches this queue.
    local: VecDeque<(u64, NodeId, Msg)>,
    next_txn: u64,
    next_tag: u64,
}

impl ManycoreSystem {
    /// Builds the system running `mix` over an 8×8 mesh with allocator
    /// `alloc` (paper-default routers; VIX routers get two virtual
    /// inputs).
    ///
    /// # Panics
    ///
    /// Panics if the mix does not fill 64 cores.
    #[must_use]
    pub fn build(mix: &Mix, alloc: AllocatorKind, seed: u64) -> Self {
        let net_cfg = NetworkConfig::paper_default(TopologyKind::Mesh, alloc);
        let sim_cfg = SimConfig::new(net_cfg, 0.0).with_seed(seed).with_windows(0, u64::MAX, 0);
        let net = NetworkSim::build(sim_cfg).expect("paper-default mesh config is valid");
        let cores = mix
            .per_core()
            .into_iter()
            .enumerate()
            .map(|(n, b)| CoreModel::new(NodeId(n), b, MLP_LIMIT, L2_SHARE_BLOCKS, seed))
            .collect();
        let banks = (0..64).map(|n| L2Bank::new(NodeId(n))).collect();
        let mcs = MC_NODES.iter().map(|&n| MemoryController::new(NodeId(n))).collect();
        ManycoreSystem {
            net,
            cores,
            banks,
            mcs,
            ejected: Vec::new(),
            txns: HashMap::new(),
            messages: HashMap::new(),
            local: VecDeque::new(),
            next_txn: 0,
            next_tag: 0,
        }
    }

    /// L2 bank holding a block (block-interleaved across all 64 banks).
    fn bank_of(block: u64) -> NodeId {
        NodeId((block % 64) as usize)
    }

    /// Memory controller serving a bank (static assignment).
    fn mc_of(bank: NodeId) -> NodeId {
        NodeId(MC_NODES[bank.0 % MC_NODES.len()])
    }

    fn send(&mut self, now: Cycle, src: NodeId, dest: NodeId, msg: Msg, flits: usize) {
        if src == dest {
            self.local.push_back((now.0 + 1, dest, msg));
        } else {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.messages.insert(tag, msg);
            self.net.inject(src, dest, flits, tag);
        }
    }

    fn handle(&mut self, now: Cycle, dest: NodeId, msg: Msg) {
        match msg {
            Msg::CoreReq { txn, block } => self.banks[dest.0].request(now, txn, block),
            Msg::MemReq { block, bank } => {
                let slot = MC_NODES
                    .iter()
                    .position(|&n| n == dest.0)
                    .expect("MemReq lands on a controller node");
                self.mcs[slot].request(now, block, bank);
            }
            Msg::MemData { block } => {
                let waiters = self.banks[dest.0].memory_reply(block);
                for txn in waiters {
                    let core = self.txns[&txn];
                    self.send(now, dest, core, Msg::CoreData { txn }, DATA_FLITS);
                }
            }
            Msg::CoreData { txn } => {
                self.txns.remove(&txn).expect("data reply for unknown transaction");
                self.cores[dest.0].on_reply();
            }
            Msg::CoreWriteback { block } => {
                if let Some(victim) = self.banks[dest.0].write(block) {
                    let _ = victim; // data payload is not modelled
                    let mc = Self::mc_of(dest);
                    self.send(now, dest, mc, Msg::MemWriteback, DATA_FLITS);
                }
            }
            Msg::MemWriteback => {
                // DRAM writes are buffered by the controller; no further
                // traffic or latency is modelled for them.
            }
        }
    }

    /// Runs one system cycle.
    pub fn step(&mut self) {
        let now = self.net.now();

        // 1. Deliver network ejections and due local messages.
        let mut ejected = std::mem::take(&mut self.ejected);
        for e in ejected.drain(..) {
            let msg = self.messages.remove(&e.packet.tag).expect("ejected packet has a message");
            self.handle(now, e.packet.dest, msg);
        }
        self.ejected = ejected;
        while self.local.front().is_some_and(|&(t, _, _)| t <= now.0) {
            let (_, dest, msg) = self.local.pop_front().expect("front checked");
            self.handle(now, dest, msg);
        }

        // 2. L2 bank pipelines.
        for n in 0..64 {
            let bank_node = NodeId(n);
            for resp in self.banks[n].step(now) {
                match resp {
                    L2Response::DataToCore { txn } => {
                        let core = self.txns[&txn];
                        self.send(now, bank_node, core, Msg::CoreData { txn }, DATA_FLITS);
                    }
                    L2Response::FetchFromMemory { block } => {
                        let mc = Self::mc_of(bank_node);
                        self.send(now, bank_node, mc, Msg::MemReq { block, bank: bank_node }, REQ_FLITS);
                    }
                }
            }
        }

        // 3. Memory controllers.
        for (slot, &n) in MC_NODES.iter().enumerate() {
            for (block, bank) in self.mcs[slot].step(now) {
                self.send(now, NodeId(n), bank, Msg::MemData { block }, DATA_FLITS);
            }
        }

        // 4. Cores issue new misses and dirty-victim writebacks.
        for n in 0..64 {
            let core_node = NodeId(n);
            for block in self.cores[n].step() {
                let txn = self.next_txn;
                self.next_txn += 1;
                self.txns.insert(txn, core_node);
                let bank = Self::bank_of(block);
                self.send(now, core_node, bank, Msg::CoreReq { txn, block }, REQ_FLITS);
            }
            for block in self.cores[n].take_writebacks() {
                let bank = Self::bank_of(block);
                self.send(now, core_node, bank, Msg::CoreWriteback { block }, DATA_FLITS);
            }
        }

        // 5. Clock the network.
        self.net.step_into(&mut self.ejected);
    }

    /// Runs `warmup` unmeasured cycles then `measure` measured cycles and
    /// returns per-core IPCs over the measured window.
    #[must_use]
    pub fn run_windows(&mut self, warmup: u64, measure: u64) -> SystemResult {
        for _ in 0..warmup {
            self.step();
        }
        let baseline: Vec<u64> = self.cores.iter().map(CoreModel::committed).collect();
        for _ in 0..measure {
            self.step();
        }
        let per_core_ipc = self
            .cores
            .iter()
            .zip(&baseline)
            .map(|(c, &b)| (c.committed() - b) as f64 / measure as f64)
            .collect();
        let (hits, misses) = self
            .banks
            .iter()
            .fold((0u64, 0u64), |(h, m), b| (h + b.hits(), m + b.misses()));
        SystemResult {
            per_core_ipc,
            per_core_benchmark: self.cores.iter().map(|c| c.benchmark().name).collect(),
            cycles: measure,
            misses_issued: self.cores.iter().map(CoreModel::misses_issued).sum(),
            writebacks_issued: self.cores.iter().map(CoreModel::writebacks_issued).sum(),
            l2_miss_ratio: if hits + misses == 0 { 0.0 } else { misses as f64 / (hits + misses) as f64 },
            memory_requests: self.mcs.iter().map(MemoryController::served).sum(),
        }
    }

    /// Runs with a default warmup of one quarter of the measured window.
    #[must_use]
    pub fn run(&mut self, measure: u64) -> SystemResult {
        self.run_windows(measure / 4, measure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Mix;

    fn mix(i: usize) -> Mix {
        Mix::table4()[i].clone()
    }

    #[test]
    fn cores_make_progress() {
        let mut sys = ManycoreSystem::build(&mix(0), AllocatorKind::InputFirst, 1);
        let r = sys.run_windows(500, 2000);
        assert!(r.total_ipc() > 0.0);
        assert!(r.avg_ipc() <= 2.0, "no core exceeds its commit width");
        assert_eq!(r.per_core_ipc.len(), 64);
    }

    #[test]
    fn memory_intensity_lowers_ipc() {
        let light = ManycoreSystem::build(&mix(0), AllocatorKind::InputFirst, 1)
            .run_windows(500, 3000);
        let heavy = ManycoreSystem::build(&mix(7), AllocatorKind::InputFirst, 1)
            .run_windows(500, 3000);
        assert!(
            light.total_ipc() > heavy.total_ipc() * 1.3,
            "Mix1 {:.1} vs Mix8 {:.1}: memory-bound mixes must run slower",
            light.total_ipc(),
            heavy.total_ipc()
        );
    }

    #[test]
    fn writebacks_flow_without_stalling_cores() {
        let mut sys = ManycoreSystem::build(&mix(4), AllocatorKind::InputFirst, 1);
        let r = sys.run_windows(200, 2000);
        assert!(r.writebacks_issued > 0, "streaming mixes must write back dirty victims");
        assert!(
            r.writebacks_issued < r.misses_issued,
            "writebacks are a fraction of misses"
        );
    }

    #[test]
    fn l2_misses_reach_memory() {
        let mut sys = ManycoreSystem::build(&mix(4), AllocatorKind::InputFirst, 1);
        let r = sys.run_windows(200, 2000);
        assert!(r.l2_miss_ratio > 0.0, "streaming mixes must miss in the L2");
        assert!(r.memory_requests > 0, "L2 misses must reach the controllers");
    }

    #[test]
    fn transactions_all_complete_eventually() {
        let mut sys = ManycoreSystem::build(&mix(0), AllocatorKind::InputFirst, 1);
        for _ in 0..3000 {
            sys.step();
        }
        // Stop issuing (cores stall naturally once we stop stepping them);
        // drain by stepping the network side only via full steps — any
        // stuck transaction would leave the table non-empty forever.
        let before = sys.txns.len();
        for _ in 0..2000 {
            sys.step();
        }
        // The table keeps turning over; it must stay bounded (no leaks).
        assert!(sys.txns.len() < before + 64 * MLP_LIMIT, "transaction leak: {}", sys.txns.len());
    }

    #[test]
    fn per_benchmark_ipc_covers_the_mix() {
        let mut sys = ManycoreSystem::build(&mix(0), AllocatorKind::InputFirst, 1);
        let r = sys.run_windows(200, 1500);
        let by_bench = r.ipc_by_benchmark();
        assert_eq!(by_bench.len(), 6, "six unique applications per mix");
        for (name, ipc) in &by_bench {
            assert!(*ipc > 0.0, "{name} made no progress");
            assert!(*ipc <= 2.0, "{name} exceeded the commit width");
        }
        // Cache-resident sjeng must outrun memory-hungry milc.
        let get = |n: &str| by_bench.iter().find(|(b, _)| *b == n).unwrap().1;
        assert!(get("sjeng") > get("milc"));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = ManycoreSystem::build(&mix(2), AllocatorKind::Vix, 7).run_windows(200, 1000);
        let b = ManycoreSystem::build(&mix(2), AllocatorKind::Vix, 7).run_windows(200, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn vix_never_slows_a_heavy_mix() {
        let base = ManycoreSystem::build(&mix(7), AllocatorKind::InputFirst, 3)
            .run_windows(1000, 4000);
        let vix = ManycoreSystem::build(&mix(7), AllocatorKind::Vix, 3).run_windows(1000, 4000);
        let speedup = vix.total_ipc() / base.total_ipc();
        assert!(speedup > 0.99, "VIX speedup {speedup:.3} on the heaviest mix");
    }
}
