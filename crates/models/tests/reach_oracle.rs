//! The symbolic reachability fixpoint behind `ComposedModel::reachable`
//! against an explicit breadth-first explorer kept here as the oracle:
//! both must give the same state set as byte-identical MDDs (the same
//! child table on every level, hence the same `index_of`), and the same
//! verdict on the state bound.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use mdl_core::LumpKind;
use mdl_md::SparseFactor;
use mdl_mdd::Mdd;
use mdl_models::random::{planted_model, LevelSpec};
use mdl_models::shared_repair::{SharedRepairConfig, SharedRepairModel};
use mdl_models::tandem::{TandemConfig, TandemModel};
use mdl_models::{ComposedModel, ModelError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One event's nonzero successors per level and local state (`None`: the
/// level is untouched).
type Successors = Vec<Option<HashMap<u32, Vec<u32>>>>;

/// Explicit exploration: every reachable state as a tuple, or `None` once
/// more than `bound` states have been found.
fn explicit_reachable(m: &ComposedModel, bound: usize) -> Option<Vec<Vec<u32>>> {
    let events: Vec<Successors> = m
        .events()
        .iter()
        .map(|e| {
            e.factors
                .iter()
                .map(|f| {
                    f.as_ref().map(|f| {
                        let mut rows: HashMap<u32, Vec<u32>> = HashMap::new();
                        for (r, c, w) in f.iter() {
                            if w != 0.0 {
                                rows.entry(r).or_default().push(c);
                            }
                        }
                        rows
                    })
                })
                .collect()
        })
        .collect();
    let initial = m.initial_state();
    let mut seen: HashSet<Vec<u32>> = HashSet::from([initial.clone()]);
    let mut frontier = vec![initial];
    while let Some(state) = frontier.pop() {
        for event in &events {
            // Cross product of the per-level successor options; an empty
            // option list disables the event.
            let mut next: Vec<Vec<u32>> = vec![Vec::new()];
            for (l, rows) in event.iter().enumerate() {
                let options: &[u32] = match rows {
                    None => std::slice::from_ref(&state[l]),
                    Some(rows) => rows.get(&state[l]).map_or(&[], Vec::as_slice),
                };
                next = next
                    .iter()
                    .flat_map(|prefix| {
                        options.iter().map(move |&s| {
                            let mut t = prefix.clone();
                            t.push(s);
                            t
                        })
                    })
                    .collect();
            }
            for t in next {
                if seen.insert(t.clone()) {
                    if seen.len() > bound {
                        return None;
                    }
                    frontier.push(t);
                }
            }
        }
    }
    Some(seen.into_iter().collect())
}

/// Asserts the symbolic and explicit reachable sets agree byte for byte;
/// returns the state count.
fn assert_matches_oracle(m: &ComposedModel) -> u64 {
    let symbolic = m.reachable().expect("symbolic reachability");
    let tuples = explicit_reachable(m, usize::MAX).expect("unbounded");
    let oracle = Mdd::from_tuples(m.sizes(), tuples).expect("oracle MDD");
    assert_eq!(symbolic.count(), oracle.count());
    assert_eq!(symbolic.nodes_per_level(), oracle.nodes_per_level());
    for l in 0..oracle.num_levels() {
        assert_eq!(
            symbolic.raw_level_children(l),
            oracle.raw_level_children(l),
            "level {l} child tables differ"
        );
    }
    symbolic.count()
}

fn tandem(jobs: usize) -> ComposedModel {
    TandemModel::new(TandemConfig {
        jobs,
        ..Default::default()
    })
    .composed()
    .clone()
}

#[test]
fn tandem_j1_matches_oracle() {
    assert_eq!(assert_matches_oracle(&tandem(1)), 40_256);
}

#[test]
fn tandem_j2_matches_oracle() {
    assert_eq!(assert_matches_oracle(&tandem(2)), 355_200);
}

#[test]
fn tandem_j3_shape() {
    let reach = tandem(3).reachable().unwrap();
    assert_eq!(reach.count(), 2_173_824);
    assert_eq!(reach.nodes_per_level(), vec![1, 4, 4]);
}

#[test]
fn shared_repair_matches_oracle() {
    for failure_spread in [0.0, 0.3] {
        let model = SharedRepairModel::new(SharedRepairConfig {
            failure_spread,
            ..Default::default()
        });
        assert_matches_oracle(model.composed());
    }
}

#[test]
fn model_files_match_oracle() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdl"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "model files found: {files:?}");
    for path in files {
        let parsed = mdl_cli::parse_model(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_matches_oracle(&parsed.model);
    }
}

#[test]
fn planted_symmetry_models_match_oracle() {
    for seed in 0..6 {
        let specs = [
            LevelSpec::uniform(2, 2),
            LevelSpec::uniform(3, 1),
            LevelSpec::uniform(1, 3),
        ];
        let planted = planted_model(seed, &specs, LumpKind::Ordinary, 1, 1);
        let mut m = ComposedModel::new();
        for (l, &size) in planted.expr.sizes().iter().enumerate() {
            m.add_component(format!("l{l}"), size, 0);
        }
        for (i, term) in planted.expr.terms().iter().enumerate() {
            m.add_event(format!("t{i}"), term.rate, term.factors.clone())
                .unwrap();
        }
        assert_matches_oracle(&m);
    }
}

#[test]
fn bound_first_exceeded_mid_fixpoint() {
    // A 100-step chain gains one state per round, so a bound of 10 is
    // passed on round 10 of 100.
    let chain = |bound: usize| {
        let mut m = ComposedModel::new().with_max_states(bound);
        m.add_component("c", 100, 0);
        let mut step = SparseFactor::new(100);
        for s in 0..99 {
            step.push(s, s + 1, 1.0);
        }
        m.add_event("step", 1.0, vec![Some(step)]).unwrap();
        m
    };
    for bound in [10, 99] {
        assert!(explicit_reachable(&chain(bound), bound).is_none());
        assert!(matches!(
            chain(bound).reachable(),
            Err(ModelError::TooManyStates { bound: b }) if b == bound
        ));
    }
    assert_eq!(chain(100).reachable().unwrap().count(), 100);

    // Tandem J=1 (40,256 states) passes 20,000 well before its fixpoint.
    let m = tandem(1).with_max_states(20_000);
    assert!(explicit_reachable(&m, 20_000).is_none());
    assert!(matches!(
        m.reachable(),
        Err(ModelError::TooManyStates { bound: 20_000 })
    ));
    assert_eq!(
        tandem(1)
            .with_max_states(40_256)
            .reachable()
            .unwrap()
            .count(),
        40_256
    );
}

/// A random model: 1-4 levels of 1-6 local states, a random initial
/// state, and 0-5 events whose factors are random sparse matrices (some
/// with empty rows, disabling the event in those local states) or absent.
fn random_model(seed: u64) -> ComposedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = ComposedModel::new();
    let levels = rng.gen_range(1..5usize);
    let sizes: Vec<usize> = (0..levels).map(|_| rng.gen_range(1..7usize)).collect();
    for (l, &size) in sizes.iter().enumerate() {
        m.add_component(format!("c{l}"), size, rng.gen_range(0..size as u32));
    }
    for e in 0..rng.gen_range(0..6usize) {
        let factors = sizes
            .iter()
            .map(|&size| {
                rng.gen_bool(0.6).then(|| {
                    let mut f = SparseFactor::new(size);
                    for _ in 0..rng.gen_range(0..2 * size) {
                        f.push(rng.gen_range(0..size), rng.gen_range(0..size), 1.0);
                    }
                    f
                })
            })
            .collect();
        m.add_event(format!("e{e}"), 1.0, factors).unwrap();
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn random_models_match_oracle(seed in any::<u64>()) {
        assert_matches_oracle(&random_model(seed));
    }
}
