//! Dataset presets for every experiment.
//!
//! Each preset can be produced at the paper's full size (`Scale::Paper`) or
//! scaled down (`Scale::Dev`, the default), so the whole harness completes
//! in minutes on a laptop while preserving the qualitative shape of the
//! figures.

use seqdb::SequenceDatabase;
use synthgen::{GazelleConfig, JbossConfig, QuestConfig, TcasConfig};

/// How large the generated datasets should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down presets for quick runs (default).
    Dev,
    /// The paper's full-size parameters.
    Paper,
}

impl Scale {
    /// Parses `"dev"` / `"paper"` / `"full"`.
    pub fn parse(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "dev" | "small" => Some(Scale::Dev),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The QUEST dataset of Figure 2 (`D5C20N10S20`).
pub fn fig2_dataset(scale: Scale) -> (String, SequenceDatabase) {
    let config = QuestConfig::paper(5, 20, 10, 20);
    let config = match scale {
        Scale::Paper => config,
        Scale::Dev => config.scaled_down(25),
    };
    (config.name(), config.generate())
}

/// The support thresholds swept in Figure 2 (scaled variant uses thresholds
/// appropriate for the smaller database; the paper sweeps 3..10 on the full
/// data with a cut-off below 7 for mining all patterns).
pub fn fig2_thresholds(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Paper => vec![10, 9, 8, 7, 3],
        Scale::Dev => vec![40, 30, 20, 15, 10],
    }
}

/// The Gazelle-like clickstream dataset of Figure 3.
pub fn fig3_dataset(scale: Scale) -> (String, SequenceDatabase) {
    let config = match scale {
        Scale::Paper => GazelleConfig::default(),
        Scale::Dev => GazelleConfig::default().scaled_down(40),
    };
    ("Gazelle-like".to_owned(), config.generate())
}

/// The support thresholds swept in Figure 3 (paper: 66 down to 8).
pub fn fig3_thresholds(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Paper => vec![66, 65, 64, 63, 8],
        Scale::Dev => vec![60, 40, 30, 20, 12],
    }
}

/// The TCAS-like trace dataset of Figure 4.
pub fn fig4_dataset(scale: Scale) -> (String, SequenceDatabase) {
    let config = match scale {
        Scale::Paper => TcasConfig::default(),
        Scale::Dev => TcasConfig::default().scaled_down(16),
    };
    ("TCAS-like".to_owned(), config.generate())
}

/// The support thresholds swept in Figure 4 (paper: 889 down to 1). The
/// dev-scale sweep stops at 4: on the loop-heavy dev dataset the closed set
/// below that is large enough that a single run dominates the whole harness;
/// the paper-scale sweep keeps the "down to min_sup = 1" headline setting.
pub fn fig4_thresholds(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Paper => vec![889, 888, 887, 886, 1],
        Scale::Dev => vec![60, 40, 20, 10, 4],
    }
}

/// The datasets of Figure 5: `D` (number of sequences, in thousands at paper
/// scale) varies, `C = S = 50`, `N = 10`(K), `min_sup = 20`.
pub fn fig5_datasets(scale: Scale) -> Vec<(String, SequenceDatabase)> {
    FIG5_D_VALUES
        .iter()
        .map(|&d| {
            let config = fig5_config(scale, d);
            (config.name(), config.generate())
        })
        .collect()
}

/// The `D` sweep of Figure 5.
const FIG5_D_VALUES: [usize; 5] = [5, 10, 15, 20, 25];

/// One Figure 5 configuration (shared by the sweep and [`fig5_largest`], so
/// the two can never drift apart).
fn fig5_config(scale: Scale, d: usize) -> QuestConfig {
    let config = QuestConfig::paper(d, 50, 10, 50);
    match scale {
        Scale::Paper => config,
        Scale::Dev => config.scaled_down(50),
    }
}

/// The heaviest Figure 5 configuration only (`D = 25`), generated without
/// building the four smaller databases of the sweep — for benchmarks that
/// measure a single workload.
pub fn fig5_largest(scale: Scale) -> (String, SequenceDatabase) {
    let config = fig5_config(scale, FIG5_D_VALUES[FIG5_D_VALUES.len() - 1]);
    (config.name(), config.generate())
}

/// The fixed support threshold of Figures 5 and 6.
pub fn fig5_fig6_threshold(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 20,
        Scale::Dev => 20,
    }
}

/// The datasets of Figure 6: the average sequence length (`C = S`) varies
/// over {20, 40, 60, 80, 100}, `D = 10`(K), `N = 10`(K), `min_sup = 20`.
pub fn fig6_datasets(scale: Scale) -> Vec<(String, SequenceDatabase)> {
    FIG6_LENGTHS
        .iter()
        .map(|&len| {
            let config = fig6_config(scale, len);
            (config.name(), config.generate())
        })
        .collect()
}

/// The `C = S` sweep of Figure 6.
const FIG6_LENGTHS: [usize; 5] = [20, 40, 60, 80, 100];

/// One Figure 6 configuration (shared by the sweep and [`fig6_largest`]).
fn fig6_config(scale: Scale, len: usize) -> QuestConfig {
    let config = QuestConfig::paper(10, len, 10, len);
    match scale {
        Scale::Paper => config,
        Scale::Dev => config.scaled_down(100),
    }
}

/// The heaviest Figure 6 configuration only (`C = S = 100`), generated
/// without building the four shorter-sequence databases of the sweep.
pub fn fig6_largest(scale: Scale) -> (String, SequenceDatabase) {
    let config = fig6_config(scale, FIG6_LENGTHS[FIG6_LENGTHS.len() - 1]);
    (config.name(), config.generate())
}

/// Long-sequence QUEST datasets for the growth-kernel benchmark: the
/// Figure 6 shape stretched past the paper's `C = S` sweep to average
/// lengths of roughly 200 and 400 events, where posting rows are long and
/// per-call probes (slot re-derivation + whole-row binary search) hurt the
/// most — exactly the regime the batched cursor kernels target.
pub fn long_seq_datasets(scale: Scale) -> Vec<(String, SequenceDatabase)> {
    let mut datasets: Vec<(String, SequenceDatabase)> = LONG_SEQ_LENGTHS
        .iter()
        .map(|&len| {
            let config = fig6_config(scale, len);
            (config.name(), config.generate())
        })
        .collect();
    datasets.push(dense_long_seq_dataset(scale));
    datasets
}

/// The average-length sweep of the long-sequence growth workloads.
const LONG_SEQ_LENGTHS: [usize; 2] = [200, 400];

/// The dense long-sequence workload: avg ~400-event sequences over a
/// deliberately tiny, heavily skewed alphabet — one dominant event (~90%
/// of all positions, a heartbeat/poll event in log terms) plus three rare
/// ones, the extreme end of the power-law shape of real logs and protein
/// traces. The skew is what makes this the long-run regime: growing the
/// dominant event by itself pairs a dense instance run (hundreds per
/// sequence) with an equally dense posting row in perfect alternation, so
/// every probe takes the next row slot with no search, while growing it by
/// a rare event exhausts the row after a few probes and skips the rest of
/// the run. (The sparse Fig. 6 shape averages only ~2 positions per row.)
/// Both scales use the same CI-sized corpus: the shape, not the size, is
/// the point — and it is generated directly from a seeded LCG so the skew
/// is exact and reproducible.
fn dense_long_seq_dataset(_scale: Scale) -> (String, SequenceDatabase) {
    let mut state = 0x5EED_CAFE_u64;
    let mut next = move |modulus: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulus
    };
    let rows: Vec<String> = (0..100)
        .map(|_| {
            let len = 300 + next(200) as usize;
            (0..len)
                .map(|_| {
                    if next(10) < 9 {
                        'A'
                    } else {
                        char::from(b'B' + u8::try_from(next(3)).unwrap_or(0))
                    }
                })
                .collect()
        })
        .collect();
    let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
    (
        "SKEW90A4C400-dense".to_owned(),
        SequenceDatabase::from_str_rows(&refs),
    )
}

/// The JBoss-like case-study dataset (§IV-B); it is small in the paper (28
/// traces), so both scales generate the same data.
pub fn case_study_dataset(_scale: Scale) -> (String, SequenceDatabase) {
    (
        "JBoss-transaction-like".to_owned(),
        JbossConfig::default().generate(),
    )
}

/// The case-study support threshold (`min_sup = 18` in the paper).
pub fn case_study_threshold() -> u64 {
    18
}

/// Example 1.1's two-sequence database, used by the Table I experiment.
pub fn table1_dataset() -> SequenceDatabase {
    SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dev_scale_datasets_are_small_enough_for_ci() {
        let (_, fig2) = fig2_dataset(Scale::Dev);
        assert!(fig2.num_sequences() <= 1_000);
        let (_, fig3) = fig3_dataset(Scale::Dev);
        assert!(fig3.num_sequences() <= 2_000);
        let (_, fig4) = fig4_dataset(Scale::Dev);
        assert!(fig4.num_sequences() <= 200);
        assert_eq!(fig5_datasets(Scale::Dev).len(), 5);
        assert_eq!(fig6_datasets(Scale::Dev).len(), 5);
    }

    #[test]
    fn long_sequence_datasets_stretch_the_average_length() {
        let long = long_seq_datasets(Scale::Dev);
        assert_eq!(long.len(), 3);
        let avg = |db: &SequenceDatabase| db.total_length() as f64 / db.num_sequences() as f64;
        let (_, d200) = &long[0];
        let (_, d400) = &long[1];
        assert!(avg(d200) >= 150.0, "avg {}", avg(d200));
        assert!(avg(d400) >= 300.0, "avg {}", avg(d400));
        assert!(avg(d400) > avg(d200));
        // Dev scale stays CI-sized.
        assert!(d400.num_sequences() <= 200);
        // The dense workload trades alphabet size for posting-row length:
        // long sequences, a small skewed alphabet, CI-sized corpus.
        let (dense_name, dense) = &long[2];
        assert!(dense_name.ends_with("-dense"));
        assert!(avg(dense) >= 300.0, "avg {}", avg(dense));
        assert!(dense.num_events() <= 16);
        assert!(dense.num_sequences() <= 200);
        let rows = dense.num_sequences() * dense.num_events();
        assert!(
            dense.total_length() / rows >= 15,
            "avg posting row {} too short for the long-run regime",
            dense.total_length() / rows
        );
    }

    #[test]
    fn paper_scale_matches_paper_parameters() {
        let (name, _) = {
            // Only check the name construction cheaply: generating the full
            // 5k x 20 dataset here would slow the test suite down.
            let config = synthgen::QuestConfig::paper(5, 20, 10, 20);
            (config.name(), ())
        };
        assert_eq!(name, "D5C20N10S20");
        assert_eq!(fig4_thresholds(Scale::Paper).last(), Some(&1));
        assert_eq!(case_study_threshold(), 18);
    }

    #[test]
    fn scale_parse_accepts_known_values() {
        assert_eq!(Scale::parse("dev"), Some(Scale::Dev));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("gigantic"), None);
    }

    #[test]
    fn threshold_sweeps_are_descending_towards_harder_settings() {
        for thresholds in [
            fig2_thresholds(Scale::Dev),
            fig3_thresholds(Scale::Dev),
            fig4_thresholds(Scale::Dev),
        ] {
            assert!(thresholds.windows(2).all(|w| w[0] >= w[1]));
            assert!(!thresholds.is_empty());
        }
    }

    #[test]
    fn table1_dataset_is_example_1_1() {
        let db = table1_dataset();
        assert_eq!(db.num_sequences(), 2);
        assert_eq!(db.sequence(0).unwrap().len(), 8);
        assert_eq!(db.sequence(1).unwrap().len(), 4);
    }
}
