//! Multi-programmed and multi-threaded workload groups (paper Sec. 5.2).

use crate::profile::{Suite, WorkloadProfile};
use sim_rng::SmallRng;

/// A four-core workload group: one profile per core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Display name (e.g. `mix03` or `MT-fluid`).
    pub name: &'static str,
    /// The four per-core profiles.
    pub cores: [&'static WorkloadProfile; 4],
    /// Multi-threaded workloads share one address space (all threads walk
    /// the same footprint); multi-programmed mixes give each program a
    /// private slice.
    pub shared_address_space: bool,
}

/// The paper's 14 multi-programmed mixes: each is built by picking one
/// single-threaded workload from each of the four suites at random
/// (deterministically seeded).
pub fn multi_programmed_mixes(seed: u64) -> Vec<Mix> {
    const NAMES: [&str; 14] = [
        "mix01", "mix02", "mix03", "mix04", "mix05", "mix06", "mix07", "mix08", "mix09", "mix10",
        "mix11", "mix12", "mix13", "mix14",
    ];
    let mut rng = SmallRng::seed_from_u64(seed);
    let suites = [
        Suite::Commercial,
        Suite::Spec,
        Suite::Parsec,
        Suite::Biobench,
    ];
    NAMES
        .iter()
        .map(|name| {
            let mut cores = [WorkloadProfile::of_suite(Suite::Spec)[0]; 4];
            for (slot, suite) in suites.iter().enumerate() {
                let pool = WorkloadProfile::of_suite(*suite);
                cores[slot] = pool[rng.gen_range(0..pool.len())];
            }
            Mix {
                name,
                cores,
                shared_address_space: false,
            }
        })
        .collect()
}

/// The two multi-threaded workloads: all four cores run the same
/// `MT-*` profile (with distinct per-thread seeds supplied by the caller).
pub fn multi_threaded_group() -> Vec<Mix> {
    let Some(mt_fluid) = crate::profile::workload("MT-fluid") else {
        unreachable!("MT-fluid is a built-in profile")
    };
    let Some(mt_canneal) = crate::profile::workload("MT-canneal") else {
        unreachable!("MT-canneal is a built-in profile")
    };
    vec![
        Mix {
            name: "MT-fluid",
            cores: [mt_fluid; 4],
            shared_address_space: true,
        },
        Mix {
            name: "MT-canneal",
            cores: [mt_canneal; 4],
            shared_address_space: true,
        },
    ]
}

/// Looks up a four-core group by name: one of the seed-2015
/// multi-programmed mixes (`mix01`..`mix14`) or a multi-threaded group
/// (`MT-*`).
pub fn mix(name: &str) -> Option<Mix> {
    multi_programmed_mixes(2015)
        .into_iter()
        .chain(multi_threaded_group())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_mixes_one_per_suite() {
        let mixes = multi_programmed_mixes(2015);
        assert_eq!(mixes.len(), 14);
        for m in &mixes {
            assert_eq!(m.cores[0].suite, Suite::Commercial);
            assert_eq!(m.cores[1].suite, Suite::Spec);
            assert_eq!(m.cores[2].suite, Suite::Parsec);
            assert_eq!(m.cores[3].suite, Suite::Biobench);
            assert!(m.cores.iter().all(|c| !c.multi_threaded));
        }
    }

    #[test]
    fn mixes_are_deterministic_and_seed_sensitive() {
        assert_eq!(multi_programmed_mixes(1), multi_programmed_mixes(1));
        let a = multi_programmed_mixes(1);
        let b = multi_programmed_mixes(2);
        assert!(a.iter().zip(&b).any(|(x, y)| x.cores != y.cores));
    }

    #[test]
    fn every_group_resolves_by_name() {
        for m in multi_programmed_mixes(2015)
            .into_iter()
            .chain(multi_threaded_group())
        {
            assert_eq!(mix(m.name), Some(m));
        }
        assert_eq!(mix("mix99"), None);
    }

    #[test]
    fn sixteen_multi_core_workloads_total() {
        assert_eq!(
            multi_programmed_mixes(2015).len() + multi_threaded_group().len(),
            16
        );
    }
}
