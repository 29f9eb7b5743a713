//! Fixture: the clean tree's `pub` items each have a caller outside
//! their crate, so `unused-pub` stays silent.

#[test]
fn every_pub_item_is_called() {
    let counts = sim::tally(&[(1, 2)]);
    assert_eq!(sim::head(&[counts.len() as u32]), 1);
    let _ = sim::measure(|| {});
    let _ = core::engine::run(&[1u32], |x| x + 1);
}
