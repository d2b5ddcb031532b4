//! Correctness references: one digest per run record, generated from the
//! commit that defined the benchmark (`perfbench --write-reference`).
//!
//! A table line is `<campaign> <job> <digest>`: the campaign is the
//! matrix seed for `tier1_cold` and the scenario name for `corpus_cold`,
//! the job is the index in that campaign's plan, and the digest is the
//! first 16 hex digits of the record's SHA-256.

use std::collections::HashMap;

use tartan::store::sha256_hex;

/// Matrix seeds the `tier1_cold` table covers; workload seeds wrap into it.
pub const TIER1_SEEDS: u64 = 256;

/// The checked-in `tier1_cold` table.
pub const TIER1_COLD: &str = include_str!("../reference/tier1_cold.txt");
/// The checked-in `corpus_cold` table.
pub const CORPUS_COLD: &str = include_str!("../reference/corpus_cold.txt");

/// The reference digest of one record.
pub fn digest(record: &str) -> String {
    sha256_hex(record.as_bytes())[..16].to_string()
}

/// A parsed digest table.
#[derive(Debug, Default)]
pub struct Reference(HashMap<(String, usize), String>);

impl Reference {
    /// Parses a table; malformed lines are a broken checkout.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split(' ').collect();
            let [campaign, job, digest] = fields[..] else {
                return Err(format!("reference line {}: expected 3 fields", n + 1));
            };
            let job = job
                .parse()
                .map_err(|e| format!("reference line {}: {e}", n + 1))?;
            map.insert((campaign.to_string(), job), digest.to_string());
        }
        Ok(Reference(map))
    }

    /// True when `record` is the reference record of `campaign`'s job.
    pub fn matches(&self, campaign: &str, job: usize, record: &str) -> bool {
        self.0
            .get(&(campaign.to_string(), job))
            .is_some_and(|d| *d == digest(record))
    }
}

/// Renders one table line.
pub fn line(campaign: &str, job: usize, record: &str) -> String {
    format!("{campaign} {job} {}\n", digest(record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_cover_every_seed_and_corpus_job() {
        let tier1 = Reference::parse(TIER1_COLD).expect("tier1 table parses");
        for seed in 0..TIER1_SEEDS {
            for job in 0..12 {
                assert!(
                    tier1.0.contains_key(&(seed.to_string(), job)),
                    "seed {seed} job {job}"
                );
            }
        }
        assert_eq!(tier1.0.len(), TIER1_SEEDS as usize * 12);
        let corpus = Reference::parse(CORPUS_COLD).expect("corpus table parses");
        assert_eq!(corpus.0.len(), 108);
    }

    #[test]
    fn a_record_matches_only_its_own_digest() {
        let table = Reference::parse(&line("7", 3, "{\"a\":1}")).expect("parses");
        assert!(table.matches("7", 3, "{\"a\":1}"));
        assert!(!table.matches("7", 3, "{\"a\":2}"));
        assert!(!table.matches("7", 4, "{\"a\":1}"));
        assert!(Reference::parse("7 x deadbeef").is_err());
    }
}
