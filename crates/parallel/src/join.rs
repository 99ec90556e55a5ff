//! Tests of the one-shot join on more than one worker:
//! [`TouchJoin::with_threads`](touch_core::TouchJoin::with_threads) runs the phase
//! blocks this crate re-exports, and must report the same pairs as a brute-force
//! join at every width.

mod tests {
    use touch_core::phases::resolve_threads;
    use touch_core::{
        collect_join, CountingSink, JoinOrder, JoinPlan, JoinQuery, LocalJoinKind,
        SpatialJoinAlgorithm, TouchConfig, TouchJoin,
    };
    use touch_geom::{Aabb, Dataset, Point3};

    /// The widths the tests run at: in-thread, and over two, three and eight
    /// workers.
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    fn lattice(side: usize, spacing: f64, box_side: f64, offset: f64) -> Dataset {
        let mut ds = Dataset::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(
                        x as f64 * spacing + offset,
                        y as f64 * spacing + offset,
                        z as f64 * spacing + offset,
                    );
                    ds.push_mbr(Aabb::new(min, min + Point3::splat(box_side)));
                }
            }
        }
        ds
    }

    fn brute_pairs(a: &Dataset, b: &Dataset) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if oa.mbr.intersects(&ob.mbr) {
                    out.push((oa.id, ob.id));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// `config` with 16 partitions on `threads` workers, its plan pinned to
    /// chunks of 16 and a sort threshold of 32, so that lattice-sized inputs
    /// reach the multi-worker assignment and sort.
    fn busy(config: TouchConfig, threads: usize, a: &Dataset, b: &Dataset) -> TouchJoin {
        let config = TouchConfig { partitions: 16, ..config };
        let plan = JoinPlan::from_touch_config(&config, a, b).with_execution(16, 32);
        TouchJoin::from_plan(plan).with_threads(threads)
    }

    #[test]
    fn matches_brute_force_for_every_thread_count() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let b = lattice(6, 1.3, 0.9, 0.4);
        let expected = brute_pairs(&a, &b);
        for threads in WIDTHS {
            let algo = busy(TouchConfig::default(), threads, &a, &b);
            let (pairs, report) = collect_join(&algo, &a, &b);
            assert_eq!(pairs, expected, "threads = {threads}");
            assert_eq!(report.result_pairs(), expected.len() as u64);
            assert_eq!(report.threads, threads);
        }
    }

    #[test]
    fn all_local_join_strategies_agree() {
        let a = lattice(4, 1.2, 1.0, 0.0);
        let b = lattice(5, 1.0, 0.7, 0.2);
        let expected = brute_pairs(&a, &b);
        for strategy in [LocalJoinKind::Grid, LocalJoinKind::PlaneSweep, LocalJoinKind::AllPairs] {
            let config = TouchConfig { local_join: strategy, ..TouchConfig::default() };
            for threads in WIDTHS {
                let (pairs, _) = collect_join(&busy(config, threads, &a, &b), &a, &b);
                assert_eq!(pairs, expected, "strategy {strategy:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn join_order_does_not_change_results_or_orientation() {
        let a = lattice(4, 1.4, 1.0, 0.0);
        let b = lattice(6, 1.1, 0.8, 0.3); // larger than a
        let expected = brute_pairs(&a, &b);
        for order in [JoinOrder::SmallerAsTree, JoinOrder::TreeOnA, JoinOrder::TreeOnB] {
            let config = TouchConfig { join_order: order, ..TouchConfig::default() };
            for threads in WIDTHS {
                let (pairs, _) = collect_join(&busy(config, threads, &a, &b), &a, &b);
                assert_eq!(pairs, expected, "join order {order:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let empty = Dataset::new();
        let b = lattice(3, 2.0, 1.0, 0.0);
        for threads in WIDTHS {
            let algo = TouchJoin::default().with_threads(threads);
            // The empty side is the smaller one, so the tree is empty and every
            // object of the other side is filtered, in either orientation.
            for (x, y) in [(&empty, &b), (&b, &empty)] {
                let (pairs, report) = collect_join(&algo, x, y);
                assert!(pairs.is_empty(), "threads = {threads}");
                assert_eq!(report.result_pairs(), 0);
                assert_eq!(report.counters.filtered, b.len() as u64, "threads = {threads}");
            }
        }
    }

    #[test]
    fn phase_times_and_name_are_reported() {
        let a = lattice(5, 1.5, 1.0, 0.0);
        let b = lattice(5, 1.5, 1.0, 0.2);
        // A configured width names the engine and the recorded strategy; a
        // detected one (`0`) depends on the machine.
        let named = [
            (1, "TOUCH", Some("sequential")),
            (2, "TOUCH-P2", Some("parallel(2)")),
            (3, "TOUCH-P3", Some("parallel(3)")),
            (8, "TOUCH-P8", Some("parallel(8)")),
            (0, "TOUCH-P", None),
        ];
        for (threads, name, strategy) in named {
            let algo = TouchJoin::default().with_threads(threads);
            assert_eq!(algo.name(), name);
            let mut sink = CountingSink::new();
            let report = JoinQuery::new(&a, &b).engine(algo).run(&mut sink);
            assert!(report.total_time() > std::time::Duration::ZERO);
            assert_eq!(report.algorithm, name);
            assert_eq!(report.threads, resolve_threads(threads));
            assert!(report.memory_bytes > 0);
            assert_eq!(report.result_pairs(), sink.count());
            if let Some(strategy) = strategy {
                assert_eq!(report.plan.map(|p| p.strategy).as_deref(), Some(strategy));
            }
        }
    }
}
