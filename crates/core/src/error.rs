//! Error types for configuration validation.

use std::error::Error;
use std::fmt;

/// Reason a router/network/simulation configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The number of ports must be at least 2 (one in, one out).
    TooFewPorts {
        /// Offending port count.
        ports: usize,
    },
    /// Flits address ports with one byte: at most 256 ports per router.
    TooManyPorts {
        /// Offending port count.
        ports: usize,
    },
    /// There must be at least one VC per port.
    NoVirtualChannels,
    /// Flits address VCs with one byte, one value of which means "no VC":
    /// at most 255 VCs per port.
    TooManyVirtualChannels {
        /// Offending VC count.
        vcs: usize,
    },
    /// Buffers must hold at least one flit.
    ZeroBufferDepth,
    /// The number of virtual inputs per port must be in `1 ..= vcs_per_port`.
    BadVirtualInputs {
        /// Requested virtual inputs per port.
        virtual_inputs: usize,
        /// Configured VCs per port.
        vcs: usize,
    },
    /// VCs must divide evenly into virtual-input sub-groups.
    UnevenPartition {
        /// Configured VCs per port.
        vcs: usize,
        /// Requested virtual inputs per port.
        virtual_inputs: usize,
    },
    /// The topology does not support the requested node count.
    BadNodeCount {
        /// Requested node count.
        nodes: usize,
        /// Human-readable constraint, e.g. "must be a perfect square".
        requirement: &'static str,
    },
    /// Flits address their destination with 16 bits: at most 65 536 nodes.
    TooManyNodes {
        /// Requested node count.
        nodes: usize,
    },
    /// An injection rate outside `0.0 ..= 1.0` flits/cycle/node.
    BadInjectionRate {
        /// Offending rate.
        rate: f64,
    },
    /// Packet length must be at least one flit.
    ZeroPacketLength,
    /// An iSLIP allocator must run at least one iteration.
    ZeroIslipIterations,
    /// Flits number their position with 16 bits: at most 65 535 per packet.
    PacketTooLong {
        /// Offending packet length.
        flits: usize,
    },
    /// A traffic pattern cannot address this network's nodes.
    BadTrafficPattern {
        /// The pattern's label, e.g. `"bitrev"`.
        pattern: &'static str,
        /// The network's node count.
        nodes: usize,
        /// Human-readable constraint, e.g. "needs a power-of-two node count".
        requirement: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewPorts { ports } => {
                write!(f, "router needs at least 2 ports, got {ports}")
            }
            ConfigError::TooManyPorts { ports } => {
                write!(f, "router supports at most 256 ports, got {ports}")
            }
            ConfigError::NoVirtualChannels => write!(f, "at least one virtual channel per port is required"),
            ConfigError::TooManyVirtualChannels { vcs } => {
                write!(f, "at most 255 virtual channels per port are supported, got {vcs}")
            }
            ConfigError::ZeroBufferDepth => write!(f, "buffer depth must be at least one flit"),
            ConfigError::BadVirtualInputs { virtual_inputs, vcs } => write!(
                f,
                "virtual inputs per port must be between 1 and the VC count ({vcs}), got {virtual_inputs}"
            ),
            ConfigError::UnevenPartition { vcs, virtual_inputs } => write!(
                f,
                "{vcs} VCs cannot be partitioned evenly into {virtual_inputs} virtual-input sub-groups"
            ),
            ConfigError::BadNodeCount { nodes, requirement } => {
                write!(f, "unsupported node count {nodes}: {requirement}")
            }
            ConfigError::TooManyNodes { nodes } => write!(f, "at most 65536 nodes are supported, got {nodes}"),
            ConfigError::BadInjectionRate { rate } => {
                write!(f, "injection rate must lie in [0, 1] flits/cycle/node, got {rate}")
            }
            ConfigError::ZeroPacketLength => write!(f, "packet length must be at least one flit"),
            ConfigError::ZeroIslipIterations => write!(f, "iSLIP needs at least one iteration"),
            ConfigError::PacketTooLong { flits } => write!(f, "packet length must be at most 65535 flits, got {flits}"),
            ConfigError::BadTrafficPattern { pattern, nodes, requirement } => {
                write!(f, "{pattern} traffic cannot run on {nodes} nodes: {requirement}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = ConfigError::BadVirtualInputs { virtual_inputs: 4, vcs: 2 };
        let msg = e.to_string();
        assert!(msg.contains("virtual inputs"));
        assert!(msg.contains('4'));
        assert!(msg.contains('2'));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }

    #[test]
    fn all_variants_display_nonempty() {
        let variants = [
            ConfigError::TooFewPorts { ports: 1 },
            ConfigError::TooManyPorts { ports: 257 },
            ConfigError::NoVirtualChannels,
            ConfigError::TooManyVirtualChannels { vcs: 256 },
            ConfigError::ZeroBufferDepth,
            ConfigError::BadVirtualInputs { virtual_inputs: 3, vcs: 2 },
            ConfigError::UnevenPartition { vcs: 5, virtual_inputs: 2 },
            ConfigError::BadNodeCount { nodes: 63, requirement: "must be a perfect square" },
            ConfigError::TooManyNodes { nodes: 65_537 },
            ConfigError::BadInjectionRate { rate: -0.5 },
            ConfigError::ZeroPacketLength,
            ConfigError::PacketTooLong { flits: 65_536 },
            ConfigError::BadTrafficPattern {
                pattern: "bitrev",
                nodes: 36,
                requirement: "needs a power-of-two node count",
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
