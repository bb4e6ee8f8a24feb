//@ path: crates/eval/src/experiments/tick_driver.rs
//@ expect: fixed-tick@10
//@ expect: fixed-tick@11
//@ expect: fixed-tick@12

// A harness grinding the simulation forward tick by tick instead of
// registering deadlines with the event scheduler.

fn drive(board: &mut distscroll_hw::board::Board, clock: &mut distscroll_hw::clock::SimClock) {
    board.step(distscroll_hw::clock::SimDuration::from_millis(10));
    clock.advance(distscroll_hw::clock::SimDuration::from_millis(10));
    clock.advance_to(distscroll_hw::clock::SimInstant::from_micros(20_000));
}
