//! Workload generators (seeded and deterministic) for tests, examples and
//! the benchmark harness.

use divr_core::distance::TableDistance;
use divr_core::ratio::Ratio;
use divr_core::relevance::TableRelevance;
use divr_relquery::{Database, Tuple, Value};
use rand::Rng;

/// A universe of `n` single-attribute integer tuples `(0) .. (n−1)`.
pub fn int_universe(n: usize) -> Vec<Tuple> {
    (0..n as i64).map(|i| Tuple::ints([i])).collect()
}

/// A universe of `n` points with `dims` integer coordinates drawn from
/// `[0, coord_range)` — pairs with [`divr_core::distance::NumericDistance`] or
/// Hamming distance for metric-flavoured workloads.
pub fn point_universe<R: Rng>(rng: &mut R, n: usize, dims: usize, coord_range: i64) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    while out.len() < n {
        let t = Tuple::ints((0..dims).map(|_| rng.gen_range(0..coord_range)));
        if seen.insert(t.clone()) {
            out.push(t);
        }
    }
    out
}

/// Random integer relevance values in `[0, max]` for each universe tuple.
pub fn random_relevance<R: Rng>(rng: &mut R, universe: &[Tuple], max: i64) -> TableRelevance {
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for t in universe {
        rel.set(t.clone(), Ratio::int(rng.gen_range(0..=max)));
    }
    rel
}

/// Random symmetric integer distances in `[0, max]` for each pair
/// (O(n²) table).
pub fn random_distance<R: Rng>(rng: &mut R, universe: &[Tuple], max: i64) -> TableDistance {
    let mut dis = TableDistance::with_default(Ratio::ZERO);
    for (i, a) in universe.iter().enumerate() {
        for b in &universe[i + 1..] {
            dis.set(a.clone(), b.clone(), Ratio::int(rng.gen_range(0..=max)));
        }
    }
    dis
}

/// Builds the paper's Example 1.1 gift-store database:
///
/// ```text
/// catalog(item, type, price, inStock)
/// history(item, buyer, recipient, gender, age, rel, event, rating)
/// ```
///
/// with `n_items` catalog items across a handful of gift types and a
/// purchase history of about `3·n_items` rows. Deterministic per seed.
pub fn gift_store_database<R: Rng>(rng: &mut R, n_items: usize) -> Database {
    const TYPES: [&str; 6] = [
        "jewelry",
        "book",
        "artsy",
        "educational",
        "fashion",
        "game",
    ];
    const EVENTS: [&str; 4] = ["birthday", "wedding", "holiday", "graduation"];
    const RELATIONS: [&str; 4] = ["relative", "friend", "parent", "colleague"];
    let mut db = Database::new();
    db.create_relation("catalog", &["item", "type", "price", "inStock"])
        .unwrap();
    db.create_relation(
        "history",
        &[
            "item", "buyer", "recipient", "gender", "age", "rel", "event", "rating",
        ],
    )
    .unwrap();
    for i in 0..n_items {
        let ty = TYPES[rng.gen_range(0..TYPES.len())];
        db.insert(
            "catalog",
            vec![
                Value::str(format!("item{i}")),
                Value::str(ty),
                Value::int(rng.gen_range(5..=60)),
                Value::int(rng.gen_range(0..=20)),
            ],
        )
        .unwrap();
    }
    for _ in 0..(3 * n_items) {
        let item = format!("item{}", rng.gen_range(0..n_items));
        db.insert(
            "history",
            vec![
                Value::str(item),
                Value::str(format!("buyer{}", rng.gen_range(0..10))),
                Value::str(format!("recipient{}", rng.gen_range(0..10))),
                Value::str(if rng.gen_bool(0.5) { "f" } else { "m" }),
                Value::int(rng.gen_range(8..=70)),
                Value::str(RELATIONS[rng.gen_range(0..RELATIONS.len())]),
                Value::str(EVENTS[rng.gen_range(0..EVENTS.len())]),
                Value::int(rng.gen_range(1..=5)),
            ],
        )
        .unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_core::distance::Distance;
    use divr_core::relevance::Relevance;
    use rand::SeedableRng;

    #[test]
    fn int_universe_shape() {
        let u = int_universe(4);
        assert_eq!(u.len(), 4);
        assert_eq!(u[3], Tuple::ints([3]));
    }

    #[test]
    fn point_universe_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let u = point_universe(&mut rng, 20, 2, 10);
        let set: std::collections::HashSet<_> = u.iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn random_functions_within_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let u = int_universe(6);
        let rel = random_relevance(&mut rng, &u, 5);
        let dis = random_distance(&mut rng, &u, 7);
        for t in &u {
            let r = rel.rel(t);
            assert!(r >= Ratio::ZERO && r <= Ratio::int(5));
        }
        for (i, a) in u.iter().enumerate() {
            for b in &u[i + 1..] {
                let d = dis.dist(a, b);
                assert!(d >= Ratio::ZERO && d <= Ratio::int(7));
                assert_eq!(d, dis.dist(b, a));
            }
            assert_eq!(dis.dist(a, a), Ratio::ZERO);
        }
    }

    #[test]
    fn gift_store_schema() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let db = gift_store_database(&mut rng, 15);
        assert_eq!(db.relation("catalog").unwrap().len(), 15);
        assert!(db.relation("history").unwrap().len() <= 45);
        assert_eq!(db.relation("catalog").unwrap().arity(), 4);
        assert_eq!(db.relation("history").unwrap().arity(), 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = rand::rngs::StdRng::seed_from_u64(9);
        let mut b = rand::rngs::StdRng::seed_from_u64(9);
        let ua = point_universe(&mut a, 8, 2, 100);
        let ub = point_universe(&mut b, 8, 2, 100);
        assert_eq!(ua, ub);
    }
}
