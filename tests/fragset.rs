//! `FragSet` against a `BTreeSet<FragmentId>` model, and the serialized
//! forms of an `Allocation` and a `Classification` against fixtures
//! recorded when fragment sets were `BTreeSet`s.

use std::collections::BTreeSet;

use proptest::prelude::*;
use qcpa::core::allocation::Allocation;
use qcpa::core::classify::{Classification, QueryClass};
use qcpa::core::fragment::{FragSet, FragmentId};

/// Ids below 300 span five words, so operations cross word boundaries.
const IDS: u32 = 300;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two sets and their models go through the same random operations;
    /// after each one every query agrees, in both directions where the
    /// operation is binary. Clearing by replacement and inserting then
    /// removing a high id keep the two sets at different word lengths.
    #[test]
    fn fragset_matches_a_btreeset_model(
        ops in proptest::collection::vec((0u8..7, 0..IDS, 0..IDS), 0..160)
    ) {
        let mut sets = [FragSet::new(), FragSet::new()];
        let mut models: [BTreeSet<FragmentId>; 2] = [BTreeSet::new(), BTreeSet::new()];
        for (op, a, b) in ops {
            let k = (a % 2) as usize;
            let f = FragmentId(b);
            match op {
                0 | 1 => prop_assert_eq!(sets[k].insert(f), models[k].insert(f)),
                2 => prop_assert_eq!(sets[k].remove(&f), models[k].remove(&f)),
                3 => {
                    sets[k].extend([f, FragmentId(a)]);
                    models[k].extend([f, FragmentId(a)]);
                }
                4 => {
                    let other = sets[1 - k].clone();
                    sets[k].union_with(&other);
                    let other = models[1 - k].clone();
                    models[k].extend(other);
                }
                5 => {
                    sets[k] = FragSet::new();
                    models[k].clear();
                }
                _ => {
                    // Grows the words and leaves them zero: same value.
                    let high = FragmentId(IDS + b);
                    sets[k].insert(high);
                    sets[k].remove(&high);
                }
            }
            for (set, model) in sets.iter().zip(&models) {
                prop_assert_eq!(set.contains(&f), model.contains(&f));
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                let ids: Vec<FragmentId> = set.iter().collect();
                prop_assert_eq!(&ids, &model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set, &ids.iter().copied().collect::<FragSet>());
                prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
            }
            for (x, y) in [(0, 1), (1, 0)] {
                let (s, t, m, n) = (&sets[x], &sets[y], &models[x], &models[y]);
                prop_assert_eq!(s.is_subset(t), m.is_subset(n));
                prop_assert_eq!(s.intersects(t), !m.is_disjoint(n));
                prop_assert_eq!(s == t, m == n);
                prop_assert_eq!(s.cmp(t), m.cmp(n));
                prop_assert_eq!(
                    s.difference(t).collect::<Vec<_>>(),
                    m.difference(n).copied().collect::<Vec<_>>()
                );
            }
        }
    }
}

/// An allocation whose sets cross word boundaries, inserted out of order.
fn fixture_allocation() -> Allocation {
    let f = FragmentId;
    let mut alloc = Allocation::empty(3, 3);
    alloc.fragments[0].extend([f(70), f(0), f(5)]);
    alloc.fragments[2].extend([f(129), f(64)]);
    alloc.assign[0] = vec![0.25, 0.0, 0.125];
    alloc.assign[1] = vec![0.0, 0.0, 0.5];
    alloc.assign[2] = vec![0.125, 0.0, 0.0];
    alloc
}

fn fixture_classification() -> Classification {
    let f = FragmentId;
    Classification::from_classes(vec![
        QueryClass::read(0, [f(0), f(5), f(70)], 0.375),
        QueryClass::read(1, [f(64), f(129)], 0.5),
        QueryClass::update(2, [f(70), f(64)], 0.125),
    ])
    .expect("weights sum to 1")
}

/// Recorded with `serde_json::to_string` while `Allocation::fragments`
/// was a `Vec<BTreeSet<FragmentId>>`.
const ALLOCATION_JSON: &str = r#"{"fragments":[[0,5,70],[],[64,129]],"assign":[[0.25,0.0,0.125],[0.0,0.0,0.5],[0.125,0.0,0.0]]}"#;

/// Recorded with `serde_json::to_string` before `Classification` kept
/// fragment bitsets.
const CLASSIFICATION_JSON: &str = concat!(
    r#"{"classes":[{"id":0,"kind":"Read","fragments":[0,5,70],"weight":0.375},"#,
    r#"{"id":1,"kind":"Read","fragments":[64,129],"weight":0.5},"#,
    r#"{"id":2,"kind":"Update","fragments":[64,70],"weight":0.125}],"#,
    r#""read_ids":[0,1],"update_ids":[2],"updates_of":[[2],[2],[]],"#,
    r#""updates_closure_of":[[2],[2],[2]]}"#
);

#[test]
fn allocation_serializes_as_before_and_round_trips() {
    let alloc = fixture_allocation();
    assert_eq!(serde_json::to_string(&alloc).unwrap(), ALLOCATION_JSON);
    let back: Allocation = serde_json::from_str(ALLOCATION_JSON).unwrap();
    assert_eq!(back, alloc);
}

#[test]
fn classification_serializes_as_before_and_round_trips() {
    let cls = fixture_classification();
    assert_eq!(serde_json::to_string(&cls).unwrap(), CLASSIFICATION_JSON);
    let back: Classification = serde_json::from_str(CLASSIFICATION_JSON).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), CLASSIFICATION_JSON);
    for c in &back.classes {
        let set: FragSet = c.fragments.iter().copied().collect();
        assert_eq!(back.fragment_set(c.id), &set);
    }
    assert_eq!(
        back.placement_fragments(qcpa::core::ClassId(0)),
        &[0, 5, 64, 70]
            .map(FragmentId)
            .into_iter()
            .collect::<FragSet>(),
        "read 0 drags update 2 and with it fragment 64"
    );
}
