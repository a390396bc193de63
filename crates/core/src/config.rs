//! Machine description and cost-model parameters.
//!
//! Everything the simulation charges virtual time for is parameterized here,
//! in one place, so benchmarks can state exactly which machine they modeled
//! and ablation studies can perturb a single knob.
//!
//! Defaults describe the cluster of the paper (Section IV): 32 nodes, dual
//! Intel E5-2623v3, Data Vortex VICs on PCIe 3.0 with 32 MB QDR SRAM, and
//! FDR InfiniBand (4×14.0625 Gb/s) with openmpi 1.8.3. Where the paper
//! states a number (4.4 GB/s DV peak, 6.8 GB/s IB peak, 500 MB/s PCIe
//! programmed-I/O limit, DMA 4×/8× faster than direct writes/reads,
//! 8192-entry DMA table, 64 group counters) we use it directly; remaining
//! latency constants are set to plausible magnitudes for the hardware
//! generation and are calibrated so the microbenchmark *shapes* match
//! Figures 3 and 4.

use crate::time::{self, Time};

/// Data Vortex switch + link parameters.
#[derive(Debug, Clone)]
pub struct DvParams {
    /// Peak payload bandwidth per port, GB/s (paper: 4.4 GB/s nominal).
    pub link_gbps: f64,
    /// Switch height H (ports per angle group). C = log2(H)+1 cylinders.
    pub height: usize,
    /// Switch angles A. Total ports = A × H.
    pub angles: usize,
    /// Time for one hop between switching nodes (FPGA cycle budget).
    pub hop_time: Time,
    /// VIC injection overhead (packet formation to first flit on the wire).
    pub inject_time: Time,
    /// VIC ejection overhead (last flit to DV-memory/FIFO visibility).
    pub eject_time: Time,
    /// Statistical extra hops due to deflections under load (paper: "by two
    /// hops" at the contention point); scaled by instantaneous load.
    pub deflect_hops_at_saturation: f64,
    /// One-time software setup for the hardware barrier.
    pub barrier_setup: Time,
    /// Hardware propagation of the barrier (group-counter wave through the
    /// switch); nearly independent of node count.
    pub barrier_hw: Time,
    /// Capacity of the surprise-packet FIFO, in packets (paper: "thousands
    /// of 8-byte messages").
    pub fifo_capacity: usize,
}

impl Default for DvParams {
    fn default() -> Self {
        Self {
            link_gbps: 4.4,
            height: 8,
            angles: 4, // 4 × 8 = 32 ports: one per node of the evaluated cluster
            hop_time: time::ns(8),
            inject_time: time::ns(120),
            eject_time: time::ns(120),
            deflect_hops_at_saturation: 2.0,
            barrier_setup: time::ns(400),
            barrier_hw: time::ns(900),
            fifo_capacity: 8192,
        }
    }
}

impl DvParams {
    /// Number of ports (A × H).
    pub fn ports(&self) -> usize {
        self.angles * self.height
    }

    /// Number of cylinders C = log2(H) + 1.
    pub fn cylinders(&self) -> usize {
        (self.height as f64).log2() as usize + 1
    }

    /// Time for one 8-byte payload word at the link rate.
    pub fn word_time(&self) -> Time {
        time::transfer_time(crate::packet::PAYLOAD_BYTES, self.link_gbps)
    }

    /// Minimum (uncontended) switch traversal: descend through all C
    /// cylinders plus half an average rotation at the target cylinder.
    pub fn base_hops(&self) -> usize {
        self.cylinders() + self.angles / 2
    }
}

/// PCI Express path between host memory and the VIC.
#[derive(Debug, Clone)]
pub struct PcieParams {
    /// Programmed-I/O (direct write) streaming rate, GB/s of *wire* traffic
    /// (headers + payloads). The paper observes the direct-write path is
    /// limited to ~500 MB/s of payload; 16-byte packets mean ~1 GB/s of
    /// PCIe traffic.
    pub pio_gbps: f64,
    /// Latency of one posted PIO write.
    pub pio_write_latency: Time,
    /// Latency of one PIO read from VIC space (reads are much slower than
    /// writes; the VIC pushes zero-counter lists to host memory to avoid
    /// them).
    pub pio_read_latency: Time,
    /// DMA streaming rate host→VIC, GB/s (paper: up to 4× direct writes).
    pub dma_to_vic_gbps: f64,
    /// DMA streaming rate VIC→host, GB/s (paper: up to 8× direct reads).
    pub dma_from_vic_gbps: f64,
    /// Fixed cost to set up one DMA transaction (descriptor writes,
    /// doorbell).
    pub dma_setup: Time,
    /// Entries in the VIC DMA table (paper: 8192); one entry covers one
    /// `dma_entry_bytes` span, a transaction may span several entries.
    pub dma_table_entries: usize,
    /// Bytes described by a single DMA-table entry (huge-page aligned span).
    pub dma_entry_bytes: u64,
}

impl Default for PcieParams {
    fn default() -> Self {
        Self {
            pio_gbps: 1.0,
            pio_write_latency: time::ns(130),
            pio_read_latency: time::ns(900),
            dma_to_vic_gbps: 5.6,
            dma_from_vic_gbps: 7.2,
            dma_setup: time::ns(600),
            dma_table_entries: 8192,
            dma_entry_bytes: 4096,
        }
    }
}

/// InfiniBand fabric parameters (FDR, fat-tree).
#[derive(Debug, Clone)]
pub struct IbParams {
    /// Peak per-port bandwidth, GB/s (paper: 6.8 GB/s for 4× FDR).
    pub link_gbps: f64,
    /// One-way wire + switch latency between two nodes.
    pub wire_latency: Time,
    /// Fraction of aggregate core bandwidth usable by random many-to-many
    /// traffic on a statically-routed fat tree, as a function of node count.
    /// `core_base - core_slope × log2(nodes)`, clamped to `core_floor`.
    pub core_base: f64,
    /// See [`IbParams::core_base`].
    pub core_slope: f64,
    /// See [`IbParams::core_base`].
    pub core_floor: f64,
}

impl Default for IbParams {
    fn default() -> Self {
        Self {
            link_gbps: 6.8,
            wire_latency: time::ns(700),
            core_base: 1.10,
            core_slope: 0.16,
            core_floor: 0.30,
        }
    }
}

impl IbParams {
    /// Effective fraction of core bandwidth available to unstructured
    /// traffic at a given cluster size (static-routing losses; cf. Hoefler
    /// et al., "Multistage switches are not crossbars").
    pub fn core_efficiency(&self, nodes: usize) -> f64 {
        if nodes <= 2 {
            return 1.0;
        }
        let n = (nodes as f64).log2();
        (self.core_base - self.core_slope * n).clamp(self.core_floor, 1.0)
    }
}

/// MPI runtime (openmpi-1.8-era) software costs.
#[derive(Debug, Clone)]
pub struct MpiParams {
    /// Sender-side software overhead per message (matching, headers,
    /// doorbell).
    pub overhead_send: Time,
    /// Receiver-side software overhead per message.
    pub overhead_recv: Time,
    /// Messages at or below this size use the eager protocol.
    pub eager_limit: u64,
    /// Extra handshake cost of the rendezvous protocol (RTS/CTS round).
    pub rndv_handshake: Time,
    /// Fraction of the link rate the rendezvous pipeline sustains
    /// (registration and descriptor churn between pipeline chunks). This
    /// is what caps large-message efficiency near the ~72 % of peak the
    /// paper measured for MPI ping-pong.
    pub rndv_efficiency: f64,
    /// Cost of one local memory copy, GB/s (eager path copies through
    /// bounce buffers).
    pub copy_gbps: f64,
}

impl Default for MpiParams {
    fn default() -> Self {
        Self {
            overhead_send: time::ns(550),
            overhead_recv: time::ns(450),
            eager_limit: 12 * 1024,
            rndv_handshake: time::ns(1900),
            rndv_efficiency: 0.74,
            copy_gbps: 9.0,
        }
    }
}

/// Host compute rates used to charge virtual time for real computation.
#[derive(Debug, Clone)]
pub struct ComputeParams {
    /// Sustained floating-point rate of one node for FFT-like kernels,
    /// GFLOP/s.
    pub flops_gflops: f64,
    /// Sustained memory streaming bandwidth of one node, GB/s.
    pub mem_gbps: f64,
    /// Random 8-byte read-modify-write rate of one node, million updates
    /// per second (GUPS table updates, cache-hostile).
    pub local_update_mups: f64,
    /// Graph edges a node can inspect per second during BFS (cache-hostile
    /// CSR walks), millions per second.
    pub edge_scan_meps: f64,
    /// Stencil cell updates per second per node, millions (7-point heat
    /// kernel / SNAP cell work), millions per second.
    pub stencil_mcups: f64,
}

impl Default for ComputeParams {
    fn default() -> Self {
        Self {
            flops_gflops: 14.0,
            mem_gbps: 42.0,
            local_update_mups: 90.0,
            edge_scan_meps: 160.0,
            stencil_mcups: 220.0,
        }
    }
}

/// Full description of the modeled cluster.
#[derive(Debug, Clone, Default)]
pub struct MachineConfig {
    /// Data Vortex switch and VIC link parameters.
    pub dv: DvParams,
    /// PCIe path between host and VIC.
    pub pcie: PcieParams,
    /// InfiniBand fabric parameters.
    pub ib: IbParams,
    /// MPI software-stack parameters.
    pub mpi: MpiParams,
    /// Host compute rates.
    pub compute: ComputeParams,
    /// Optional deterministic fault-injection plan; `None` (the default)
    /// simulates fault-free hardware. Applied by the Data Vortex packet
    /// path (switch links, VIC ejection, surprise-FIFO admission); the
    /// checked DMA block path and the InfiniBand model are unaffected.
    pub faults: Option<crate::fault::FaultPlan>,
}

impl MachineConfig {
    /// The paper's cluster: every default together.
    pub fn paper_cluster() -> Self {
        Self::default()
    }

    /// A machine config whose Data Vortex switch has at least `nodes`
    /// ports (doubles H, adding cylinders, exactly as Section IX describes
    /// scaling: "each doubling of nodes would add an additional cylinder").
    pub fn with_nodes(nodes: usize) -> Self {
        let mut cfg = Self::default();
        let mut h = cfg.dv.height;
        while cfg.dv.angles * h < nodes {
            h *= 2;
        }
        cfg.dv.height = h;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline_numbers() {
        let cfg = MachineConfig::paper_cluster();
        assert_eq!(cfg.dv.link_gbps, 4.4);
        assert_eq!(cfg.ib.link_gbps, 6.8);
        assert_eq!(cfg.pcie.dma_table_entries, 8192);
        assert_eq!(cfg.dv.ports(), 32);
    }

    #[test]
    fn cylinder_count_follows_formula() {
        // C = log2(H) + 1.
        let mut dv = DvParams::default();
        for (h, c) in [(2, 2), (4, 3), (8, 4), (16, 5), (32, 6)] {
            dv.height = h;
            assert_eq!(dv.cylinders(), c, "H={h}");
        }
    }

    #[test]
    fn word_time_is_1818ps_at_peak() {
        assert_eq!(DvParams::default().word_time(), 1818);
    }

    #[test]
    fn core_efficiency_decreases_with_scale() {
        let ib = IbParams::default();
        let effs: Vec<f64> = [2, 4, 8, 16, 32].iter().map(|&n| ib.core_efficiency(n)).collect();
        for w in effs.windows(2) {
            assert!(w[0] >= w[1], "{effs:?}");
        }
        assert_eq!(effs[0], 1.0);
        assert!(effs[4] >= ib.core_floor);
    }

    #[test]
    fn with_nodes_grows_height() {
        let cfg = MachineConfig::with_nodes(100);
        assert!(cfg.dv.ports() >= 100);
        // Height stays a power of two so C stays integral.
        assert!(cfg.dv.height.is_power_of_two());
    }

    #[test]
    fn dma_is_faster_than_pio_as_paper_states() {
        let p = PcieParams::default();
        assert!(p.dma_to_vic_gbps >= 4.0 * (p.pio_gbps / 2.0)); // payload rate of PIO is half wire rate
        assert!(p.dma_from_vic_gbps > p.dma_to_vic_gbps);
    }
}
