//! End-to-end tests of the multiplicity extension (Section 5, Appendix C),
//! each scenario under every scheduler kind (FSYNC, SSYNC, ASYNC).

mod common;

use apf::geometry::{Configuration, Point, Tol};
use apf::prelude::*;
use common::for_each_scheduler;

#[test]
fn forms_pattern_with_doubled_points() {
    let n = 8;
    let initial = apf::patterns::asymmetric_configuration(n, 3);
    let target = apf::patterns::pattern_with_multiplicity(n, 6, 17);
    for_each_scheduler(|kind| {
        let mut world = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(2)
            .multiplicity_detection(true)
            .build()
            .unwrap();
        let o = world.run(3_000_000);
        assert!(o.formed, "{:?}", o.reason);
        let groups = Configuration::new(o.final_positions).multiplicity_groups(&Tol::default());
        assert_eq!(groups.len(), 6, "two doubled positions expected");
    });
}

#[test]
fn forms_pattern_with_center_multiplicity() {
    // Two pattern points at c(F): exercised via the F̃ detour + gather step.
    let n = 8;
    let target = apf::patterns::pattern_with_center_points(n, 2, 23);
    let initial = apf::patterns::asymmetric_configuration(n, 5);

    for_each_scheduler(|kind| {
        let mut world = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(4)
            .multiplicity_detection(true)
            .build()
            .unwrap();
        let o = world.run(4_000_000);
        assert!(o.formed, "{:?}", o.reason);
        let cfg = Configuration::new(o.final_positions.clone());
        let center = cfg.sec().center;
        let at_center = o.final_positions.iter().filter(|p| p.dist(center) < 1e-4).count();
        assert_eq!(at_center, 2, "two robots must gather at the center");
    });
}

#[test]
fn multiplicity_under_every_scheduler() {
    let n = 8;
    let initial = apf::patterns::asymmetric_configuration(n, 7);
    let target = apf::patterns::pattern_with_multiplicity(n, 7, 19);
    for_each_scheduler(|kind| {
        let mut world = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(6)
            .multiplicity_detection(true)
            .build()
            .unwrap();
        let o = world.run(4_000_000);
        assert!(o.formed, "{:?}", o.reason);
    });
}

#[test]
fn multiplicity_from_symmetric_start() {
    let n = 8;
    let initial = apf::patterns::symmetric_configuration(n, 4, 9);
    let target = apf::patterns::pattern_with_multiplicity(n, 6, 29);
    for_each_scheduler(|kind| {
        let mut world = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(8)
            .multiplicity_detection(true)
            .build()
            .unwrap();
        let o = world.run(4_000_000);
        assert!(o.formed, "{:?}", o.reason);
    });
}

#[test]
fn single_center_point_is_supported_without_detection() {
    // A pattern containing c(F) exactly once: the F̃ detour also covers this
    // (no multiplicity involved, so detection is not required).
    let n = 8;
    let mut target = apf::patterns::random_pattern(n, 33);
    let c = Configuration::new(target.clone()).sec().center;
    let mut by_r: Vec<usize> = (0..n).collect();
    by_r.sort_by(|&a, &b| target[a].dist(c).partial_cmp(&target[b].dist(c)).unwrap());
    target[by_r[0]] = c;
    let initial = apf::patterns::asymmetric_configuration(n, 11);

    for_each_scheduler(|kind| {
        let mut world = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(10)
            .build()
            .unwrap();
        let o = world.run(4_000_000);
        assert!(o.formed, "{:?}", o.reason);
        let cfg = Configuration::new(o.final_positions.clone());
        let center = cfg.sec().center;
        let at_center = o.final_positions.iter().filter(|p| p.dist(center) < 1e-4).count();
        assert_eq!(at_center, 1);
    });
}

#[test]
fn multiplicity_collisions_are_only_at_pattern_points() {
    // Along the whole run, any transient multiplicity must coincide with a
    // multiplicity point of the (possibly transformed) pattern — robots
    // never collide by accident.
    let n = 8;
    let initial = apf::patterns::asymmetric_configuration(n, 13);
    let target = apf::patterns::pattern_with_multiplicity(n, 6, 47);
    for_each_scheduler(|kind| {
        let mut world = SimulationBuilder::new(initial.clone(), target.clone())
            .scheduler(kind)
            .seed(12)
            .multiplicity_detection(true)
            .record_trace(true)
            .build()
            .unwrap();
        let o = world.run(3_000_000);
        assert!(o.formed);
        let tol = Tol::default();
        for (t, cfg) in world.trace().iter().enumerate() {
            let c = Configuration::new(cfg.clone());
            for (_, members) in c.multiplicity_groups(&tol) {
                assert!(
                    members.len() <= 2,
                    "unexpected multiplicity {} at step {t}",
                    members.len()
                );
            }
        }
    });
    let _ = Point::ORIGIN;
}
