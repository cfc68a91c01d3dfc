//! Synthetic census generator — the stand-in for the UCI Adult dataset.
//!
//! The paper's Exp.2 replays user workflows over the Census dataset \[25\].
//! That file is not available offline, and more importantly it has no ground
//! truth: the authors had to approximate truth with a Bonferroni pass over
//! the full data. This generator solves both problems: it produces an
//! Adult-like table (same attribute vocabulary, realistic marginals) from an
//! explicit generative DAG, so the *exact* set of dependent attribute pairs
//! is known. The simulation harness uses [`CensusGenerator::is_dependent`]
//! as the oracle and can also reproduce the paper's Bonferroni-labeling
//! straw man for comparison.
//!
//! Generative DAG (arrows are sampling dependencies):
//!
//! ```text
//! age ──→ education ──→ occupation
//!  │          │  └────────→ hours_per_week ←── sex
//!  ├──→ marital_status      │                   │
//!  └──────────┬─────────────┴───────┬───────────┘
//!             ↓                     ↓
//!           salary_over_50k ←───────┘
//! ```
//!
//! `race`, `native_region`, and `survey_wave` are sampled independently of
//! everything — they are the true-null attributes.

use crate::column::Column;
use crate::table::{Table, TableBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Education levels, ordered from lowest to highest attainment.
pub const EDUCATION: [&str; 5] = ["HS", "Some-College", "Bachelor", "Master", "PhD"];
/// Marital statuses.
pub const MARITAL: [&str; 4] = ["Never-Married", "Married", "Divorced", "Widowed"];
/// Occupations.
pub const OCCUPATION: [&str; 5] = [
    "Service",
    "Manual",
    "Clerical",
    "Professional",
    "Managerial",
];
/// Sexes (the paper's Figure 1 uses a three-valued gender attribute; we keep
/// the Adult dataset's binary "sex" plus "Other" to match the figure).
pub const SEX: [&str; 3] = ["Male", "Female", "Other"];
/// Synthetic race groups (null attribute).
pub const RACE: [&str; 5] = ["Group-A", "Group-B", "Group-C", "Group-D", "Group-E"];
/// Synthetic native regions (null attribute).
pub const REGION: [&str; 5] = ["North", "South", "East", "West", "Overseas"];
/// Survey wave the record was collected in (null attribute).
pub const WAVE: [&str; 4] = ["Wave-1", "Wave-2", "Wave-3", "Wave-4"];

/// All attribute names, in schema order.
pub const ATTRIBUTES: [&str; 10] = [
    "age",
    "sex",
    "education",
    "marital_status",
    "occupation",
    "hours_per_week",
    "salary_over_50k",
    "race",
    "native_region",
    "survey_wave",
];

/// Unordered attribute pairs that are *marginally dependent* under the
/// generative DAG (d-connected with empty conditioning set). Everything not
/// listed — in particular every pair touching `race`, `native_region`, or
/// `survey_wave`, and every pair pairing `sex` with an age-descendant other
/// than `hours_per_week`/`salary_over_50k` — is independent.
pub const DEPENDENT_PAIRS: [(&str, &str); 16] = [
    ("age", "education"),
    ("age", "marital_status"),
    ("age", "occupation"),
    ("age", "hours_per_week"),
    ("age", "salary_over_50k"),
    ("education", "marital_status"),
    ("education", "occupation"),
    ("education", "hours_per_week"),
    ("education", "salary_over_50k"),
    ("marital_status", "occupation"),
    ("marital_status", "hours_per_week"),
    ("marital_status", "salary_over_50k"),
    ("occupation", "hours_per_week"),
    ("occupation", "salary_over_50k"),
    ("hours_per_week", "salary_over_50k"),
    ("sex", "hours_per_week"),
];

/// The 17th dependent pair: sex → salary is both direct and via hours.
pub const SEX_SALARY: (&str, &str) = ("sex", "salary_over_50k");

/// Seeded generator for synthetic census tables.
#[derive(Debug, Clone, Copy)]
pub struct CensusGenerator {
    seed: u64,
}

impl CensusGenerator {
    /// Creates a generator; the same seed always yields the same table.
    pub fn new(seed: u64) -> CensusGenerator {
        CensusGenerator { seed }
    }

    /// Ground-truth oracle: are attributes `a` and `b` marginally dependent
    /// under the generative model? Order-insensitive; an attribute is never
    /// dependent with itself (a self-comparison is not a hypothesis).
    pub fn is_dependent(a: &str, b: &str) -> bool {
        if a == b {
            return false;
        }
        DEPENDENT_PAIRS
            .iter()
            .chain(std::iter::once(&SEX_SALARY))
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// The attributes that are independent of everything (true nulls).
    pub fn null_attributes() -> &'static [&'static str] {
        &["race", "native_region", "survey_wave"]
    }

    /// Generates `rows` records.
    pub fn generate(&self, rows: usize) -> Table {
        let mut rng = SmallRng::seed_from_u64(self.seed);

        let mut age = Vec::with_capacity(rows);
        let mut sex = Vec::with_capacity(rows);
        let mut education = Vec::with_capacity(rows);
        let mut marital = Vec::with_capacity(rows);
        let mut occupation = Vec::with_capacity(rows);
        let mut hours = Vec::with_capacity(rows);
        let mut salary = Vec::with_capacity(rows);
        let mut race = Vec::with_capacity(rows);
        let mut region = Vec::with_capacity(rows);
        let mut wave = Vec::with_capacity(rows);

        for _ in 0..rows {
            // age: Bates(3) bell over [18, 80].
            let u: f64 = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) / 3.0;
            let a = 18 + (u * 62.0) as i64;
            age.push(a);

            // sex ⟂ age.
            let s = {
                let r: f64 = rng.gen();
                if r < 0.49 {
                    0 // Male
                } else if r < 0.98 {
                    1 // Female
                } else {
                    2 // Other
                }
            };
            sex.push(s as u32);

            // education | age.
            let edu_weights: [f64; 5] = if a < 30 {
                [0.28, 0.30, 0.29, 0.10, 0.03]
            } else if a < 50 {
                [0.33, 0.25, 0.25, 0.12, 0.05]
            } else {
                [0.44, 0.22, 0.20, 0.10, 0.04]
            };
            let e = sample_weighted(&mut rng, &edu_weights);
            education.push(e as u32);

            // marital | age.
            let mar_weights: [f64; 4] = if a < 30 {
                [0.70, 0.25, 0.04, 0.01]
            } else if a < 50 {
                [0.20, 0.60, 0.17, 0.03]
            } else {
                [0.08, 0.55, 0.22, 0.15]
            };
            marital.push(sample_weighted(&mut rng, &mar_weights) as u32);

            // occupation | education.
            let ef = e as f64;
            let occ_weights = [
                (0.30 - 0.045 * ef).max(0.02),
                (0.30 - 0.055 * ef).max(0.02),
                0.20,
                0.10 + 0.065 * ef,
                0.10 + 0.035 * ef,
            ];
            occupation.push(sample_weighted(&mut rng, &occ_weights) as u32);

            // hours | education, sex (normal via Box–Muller pair average).
            let z = {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen::<f64>();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let mean_hours = 37.0 + 1.4 * ef + if s == 0 { 2.5 } else { 0.0 };
            let h = (mean_hours + 9.0 * z).round().clamp(1.0, 99.0) as i64;
            hours.push(h);

            // salary | age, sex, education, hours (logistic).
            let logit = -2.9
                + 0.62 * ef
                + if s == 0 { 0.45 } else { 0.0 }
                + 0.032 * ((a.min(60) - 40) as f64)
                + 0.035 * ((h - 40) as f64);
            let p = 1.0 / (1.0 + (-logit).exp());
            salary.push(rng.gen::<f64>() < p);

            // Null attributes: independent of everything above.
            race.push(sample_weighted(&mut rng, &[0.55, 0.20, 0.12, 0.08, 0.05]) as u32);
            region.push(sample_weighted(&mut rng, &[0.30, 0.28, 0.20, 0.15, 0.07]) as u32);
            wave.push(sample_weighted(&mut rng, &[0.25, 0.25, 0.25, 0.25]) as u32);
        }

        let cat = |labels: &[&str], codes: Vec<u32>| {
            Column::categorical_from_codes(labels.iter().map(|s| s.to_string()).collect(), codes)
        };

        TableBuilder::new()
            .push("age", Column::Int64(age))
            .push("sex", cat(&SEX, sex))
            .push("education", cat(&EDUCATION, education))
            .push("marital_status", cat(&MARITAL, marital))
            .push("occupation", cat(&OCCUPATION, occupation))
            .push("hours_per_week", Column::Int64(hours))
            .push("salary_over_50k", Column::Bool(salary))
            .push("race", cat(&RACE, race))
            .push("native_region", cat(&REGION, region))
            .push("survey_wave", cat(&WAVE, wave))
            .build()
            .expect("generator produces a well-formed table")
    }

    /// Generates a table and then independently permutes every column —
    /// the paper's "randomized Census" in which *every* association is
    /// destroyed and all hypotheses are true nulls.
    pub fn generate_randomized(&self, rows: usize) -> Table {
        let table = self.generate(rows);
        crate::sample::permute_columns(&table, self.seed ^ 0x9e37_79b9_7f4a_7c15)
            .expect("permutation of a valid table succeeds")
    }
}

/// Samples an index from unnormalized weights.
fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut r = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        r -= w;
        if r <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{categorical_histogram, histogram};
    use crate::predicate::Predicate;

    #[test]
    fn generation_is_deterministic() {
        let a = CensusGenerator::new(11).generate(500);
        let b = CensusGenerator::new(11).generate(500);
        assert_eq!(a, b);
        let c = CensusGenerator::new(12).generate(500);
        assert_ne!(a, c);
    }

    #[test]
    fn schema_matches_attribute_list() {
        let t = CensusGenerator::new(1).generate(10);
        assert_eq!(t.column_names(), &ATTRIBUTES);
        assert_eq!(t.rows(), 10);
    }

    #[test]
    fn marginals_are_plausible() {
        let t = CensusGenerator::new(3).generate(20_000);
        let ages = t.numeric_values("age", None).unwrap();
        assert!(ages.iter().all(|&a| (18.0..=80.0).contains(&a)));
        let mean_age = ages.iter().sum::<f64>() / ages.len() as f64;
        assert!((40.0..58.0).contains(&mean_age), "mean age {mean_age}");

        let sex = categorical_histogram(&t, "sex", None).unwrap();
        let p = sex.proportions();
        assert!((p[0] - 0.49).abs() < 0.02, "male share {}", p[0]);
        assert!((p[1] - 0.49).abs() < 0.02, "female share {}", p[1]);

        let hours = t.numeric_values("hours_per_week", None).unwrap();
        let mean_h = hours.iter().sum::<f64>() / hours.len() as f64;
        assert!((35.0..45.0).contains(&mean_h), "mean hours {mean_h}");

        let sal = histogram(&t, "salary_over_50k", None).unwrap();
        let high_share = sal.proportions()[1];
        // Adult-like: roughly a quarter earn > 50k.
        assert!(
            (0.10..0.45).contains(&high_share),
            "high-earner share {high_share}"
        );
    }

    #[test]
    fn planted_dependencies_are_detectable() {
        use aware_stats::tests::chi_square_independence;
        let t = CensusGenerator::new(7).generate(20_000);
        // education × salary: strongly dependent by construction.
        let hi = Predicate::eq("salary_over_50k", true).eval(&t).unwrap();
        let lo = hi.not();
        let h_hi = categorical_histogram(&t, "education", Some(&hi)).unwrap();
        let h_lo = categorical_histogram(&t, "education", Some(&lo)).unwrap();
        let out = chi_square_independence(&[h_hi.counts(), h_lo.counts()]).unwrap();
        assert!(out.p_value < 1e-12, "education×salary p = {}", out.p_value);

        // race × salary: independent by construction.
        let r_hi = categorical_histogram(&t, "race", Some(&hi)).unwrap();
        let r_lo = categorical_histogram(&t, "race", Some(&lo)).unwrap();
        let out = chi_square_independence(&[r_hi.counts(), r_lo.counts()]).unwrap();
        assert!(
            out.p_value > 1e-4,
            "race×salary p = {} (should be null)",
            out.p_value
        );
    }

    #[test]
    fn oracle_is_symmetric_and_covers_null_attributes() {
        assert!(CensusGenerator::is_dependent(
            "education",
            "salary_over_50k"
        ));
        assert!(CensusGenerator::is_dependent(
            "salary_over_50k",
            "education"
        ));
        assert!(CensusGenerator::is_dependent("sex", "salary_over_50k"));
        assert!(!CensusGenerator::is_dependent("sex", "education"));
        assert!(!CensusGenerator::is_dependent("sex", "marital_status"));
        assert!(!CensusGenerator::is_dependent("age", "sex"));
        assert!(!CensusGenerator::is_dependent("age", "age"));
        for null in CensusGenerator::null_attributes() {
            for attr in ATTRIBUTES {
                assert!(
                    !CensusGenerator::is_dependent(null, attr),
                    "{null} × {attr} should be independent"
                );
            }
        }
    }

    #[test]
    fn randomized_census_destroys_dependencies() {
        use aware_stats::tests::chi_square_independence;
        let t = CensusGenerator::new(5).generate_randomized(20_000);
        let hi = Predicate::eq("salary_over_50k", true).eval(&t).unwrap();
        let lo = hi.not();
        let h_hi = categorical_histogram(&t, "education", Some(&hi)).unwrap();
        let h_lo = categorical_histogram(&t, "education", Some(&lo)).unwrap();
        let out = chi_square_independence(&[h_hi.counts(), h_lo.counts()]).unwrap();
        // The strongest planted dependency must vanish after permutation.
        assert!(
            out.p_value > 1e-4,
            "permuted education×salary p = {}",
            out.p_value
        );
    }

    #[test]
    fn weighted_sampler_respects_weights() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[sample_weighted(&mut rng, &[0.5, 0.3, 0.2])] += 1;
        }
        assert!((counts[0] as f64 / 30_000.0 - 0.5).abs() < 0.02);
        assert!((counts[1] as f64 / 30_000.0 - 0.3).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.2).abs() < 0.02);
    }
}
