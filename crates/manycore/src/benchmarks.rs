//! The 35-benchmark catalog and the Table 4 multiprogrammed mixes.
//!
//! The paper draws from SPEC CPU2006, older scientific codes (SPEC
//! CPU2000 / SPLASH-2), and four commercial traces (sap, tpcw, sjbb,
//! sjas). The per-benchmark miss intensities below are calibrated by least
//! squares so that every Table 4 mix reproduces its published average
//! MPKI (= L1-MPKI + L2-MPKI per core) to within 0.1; benchmarks that
//! appear in no mix carry nominal literature-informed values.

use std::fmt;

/// Memory behaviour of one benchmark, the parameters of its synthetic
/// reference process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Benchmark {
    /// Benchmark name as printed in Table 4.
    pub name: &'static str,
    /// Total misses per kilo-instruction (L1-MPKI + L2-MPKI, the paper's
    /// metric).
    pub total_mpki: f64,
    /// Fraction of L1 misses that also miss in the shared L2 (drives the
    /// synthetic working-set size): `l2_mpki = ratio · l1_mpki`.
    pub l2_ratio: f64,
}

impl Benchmark {
    /// L1 misses per kilo-instruction — the rate at which the core's
    /// synthetic trace emits network requests.
    #[must_use]
    pub fn l1_mpki(&self) -> f64 {
        self.total_mpki / (1.0 + self.l2_ratio)
    }

    /// L2 misses per kilo-instruction (requests that continue to memory).
    #[cfg(test)]
    fn l2_mpki(&self) -> f64 {
        self.total_mpki - self.l1_mpki()
    }

    /// Looks a benchmark up by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the catalog.
    #[must_use]
    pub fn by_name(name: &str) -> Benchmark {
        *CATALOG
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"))
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (MPKI {:.1})", self.name, self.total_mpki)
    }
}

const fn bench(name: &'static str, total_mpki: f64, l2_ratio: f64) -> Benchmark {
    Benchmark { name, total_mpki, l2_ratio }
}

/// The 35-benchmark suite (§3). MPKI values for mix members are calibrated
/// to Table 4; `l2_ratio` is higher for streaming codes whose misses blow
/// through the shared L2.
pub const CATALOG: [Benchmark; 35] = [
    // SPEC CPU2006 — compute-bound, cache-friendly.
    bench("sjeng", 0.5, 0.2),
    bench("tonto", 0.5, 0.2),
    bench("povray", 8.5, 0.2),
    bench("gcc", 0.9, 0.2),
    bench("gromacs", 1.3, 0.2),
    bench("namd", 36.0, 0.3),
    bench("hmmer", 16.6, 0.2),
    bench("deal", 12.2, 0.3),
    bench("gobmk", 1.0, 0.2),
    bench("h264ref", 1.5, 0.2),
    bench("perlbench", 2.0, 0.3),
    bench("bzip2", 4.0, 0.3),
    bench("astar", 9.9, 0.4),
    // SPEC CPU2006 — memory-intensive.
    bench("milc", 35.3, 0.8),
    bench("libquantum", 57.5, 0.9),
    bench("xalan", 40.8, 0.5),
    bench("omnet", 42.0, 0.6),
    bench("leslie", 33.8, 0.7),
    bench("lbm", 53.9, 0.8),
    bench("Gems", 79.0, 0.8),
    bench("mcf", 131.2, 0.7),
    bench("soplex", 30.0, 0.6),
    bench("sphinx3", 13.0, 0.5),
    bench("wrf", 8.0, 0.5),
    bench("zeusmp", 6.0, 0.5),
    bench("cactus", 6.5, 0.6),
    // Scientific (SPEC CPU2000 / SPLASH-2).
    bench("applu", 27.0, 0.7),
    bench("swim", 58.2, 0.8),
    bench("art", 47.4, 0.6),
    bench("barnes", 17.3, 0.4),
    bench("ocean", 35.7, 0.7),
    // Commercial traces.
    bench("sap", 72.7, 0.5),
    bench("tpcw", 71.1, 0.5),
    bench("sjbb", 45.1, 0.5),
    bench("sjas", 39.2, 0.5),
];

/// One multiprogrammed workload: benchmarks with instance counts summing
/// to the 64 cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Mix name, e.g. "Mix1".
    pub name: &'static str,
    /// `(benchmark, instances)` pairs; instances sum to 64.
    pub apps: Vec<(Benchmark, usize)>,
    /// The average per-core MPKI Table 4 reports for this mix.
    pub paper_avg_mpki: f64,
    /// The speedup of VIX over the baseline Table 4 reports.
    pub paper_speedup: f64,
}

impl Mix {
    /// Per-core benchmark assignment: instance counts expanded in catalog
    /// order (64 entries).
    #[must_use]
    pub fn per_core(&self) -> Vec<Benchmark> {
        let cores: Vec<Benchmark> = self
            .apps
            .iter()
            .flat_map(|(b, n)| std::iter::repeat_n(*b, *n))
            .collect();
        assert_eq!(cores.len(), 64, "a mix must fill all 64 cores");
        cores
    }

    /// Average per-core MPKI of this mix under our calibrated catalog.
    #[must_use]
    pub fn avg_mpki(&self) -> f64 {
        let total: f64 = self.apps.iter().map(|(b, n)| b.total_mpki * *n as f64).sum();
        total / 64.0
    }

    /// The eight Table 4 mixes, in ascending MPKI order.
    #[must_use]
    pub fn table4() -> Vec<Mix> {
        let m = |name, apps: &[(&str, usize)], mpki, speedup| Mix {
            name,
            apps: apps.iter().map(|&(b, n)| (Benchmark::by_name(b), n)).collect(),
            paper_avg_mpki: mpki,
            paper_speedup: speedup,
        };
        vec![
            m(
                "Mix1",
                &[("milc", 11), ("applu", 11), ("astar", 10), ("sjeng", 11), ("tonto", 11), ("hmmer", 10)],
                15.0,
                1.03,
            ),
            m(
                "Mix2",
                &[("sjas", 11), ("gcc", 11), ("sjbb", 11), ("gromacs", 11), ("sjeng", 10), ("xalan", 10)],
                21.3,
                1.03,
            ),
            m(
                "Mix3",
                &[("milc", 11), ("libquantum", 10), ("astar", 11), ("barnes", 11), ("tpcw", 11), ("povray", 10)],
                33.3,
                1.04,
            ),
            m(
                "Mix4",
                &[("astar", 11), ("swim", 11), ("leslie", 10), ("omnet", 10), ("sjas", 11), ("art", 11)],
                38.4,
                1.05,
            ),
            m(
                "Mix5",
                &[("applu", 11), ("lbm", 11), ("Gems", 11), ("barnes", 10), ("xalan", 11), ("leslie", 10)],
                42.5,
                1.05,
            ),
            m(
                "Mix6",
                &[("mcf", 11), ("ocean", 10), ("gromacs", 10), ("lbm", 11), ("deal", 11), ("sap", 11)],
                52.2,
                1.05,
            ),
            m(
                "Mix7",
                &[("mcf", 10), ("namd", 11), ("hmmer", 11), ("tpcw", 11), ("omnet", 10), ("swim", 11)],
                58.4,
                1.06,
            ),
            // Table 4's printed counts for Mix8 sum to 63; we give sap an
            // eleventh instance to fill the 64th core.
            m(
                "Mix8",
                &[("Gems", 10), ("sjbb", 11), ("sjas", 11), ("mcf", 10), ("xalan", 11), ("sap", 11)],
                66.9,
                1.07,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_35_unique_benchmarks() {
        assert_eq!(CATALOG.len(), 35);
        for (i, a) in CATALOG.iter().enumerate() {
            for b in &CATALOG[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate benchmark {}", a.name);
            }
        }
    }

    #[test]
    fn l1_l2_split_is_consistent() {
        for b in &CATALOG {
            assert!((b.l1_mpki() + b.l2_mpki() - b.total_mpki).abs() < 1e-9, "{}", b.name);
            assert!(b.l2_mpki() <= b.l1_mpki(), "{}: more L2 misses than L1 misses", b.name);
            assert!(b.total_mpki >= 0.0);
        }
    }

    #[test]
    fn every_mix_fills_64_cores() {
        for mix in Mix::table4() {
            assert_eq!(mix.per_core().len(), 64, "{}", mix.name);
            assert_eq!(mix.apps.len(), 6, "{}: six unique applications per mix", mix.name);
        }
    }

    /// The calibration target: each mix's average MPKI matches the Table 4
    /// column to within 1 %.
    #[test]
    fn mix_mpki_matches_table4() {
        for mix in Mix::table4() {
            let got = mix.avg_mpki();
            let err = (got - mix.paper_avg_mpki).abs() / mix.paper_avg_mpki;
            assert!(err < 0.01, "{}: calibrated {got:.2} vs paper {}", mix.name, mix.paper_avg_mpki);
        }
    }

    #[test]
    fn mixes_are_sorted_by_memory_intensity() {
        let mixes = Mix::table4();
        for pair in mixes.windows(2) {
            assert!(pair[0].paper_avg_mpki < pair[1].paper_avg_mpki);
            assert!(pair[0].paper_speedup <= pair[1].paper_speedup, "speedup rises with MPKI");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Benchmark::by_name("mcf").name, "mcf");
        assert!(Benchmark::by_name("mcf").total_mpki > 100.0);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        let _ = Benchmark::by_name("doom");
    }

    #[test]
    fn display_shows_intensity() {
        let s = Benchmark::by_name("lbm").to_string();
        assert!(s.contains("lbm") && s.contains("53.9"));
    }
}
