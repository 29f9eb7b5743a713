//! COMPLEXITY — message-complexity predictions vs measurement: the
//! quantified version of the paper's overhead motivation for the
//! simplified protocol ("localizes the circulation of indirect
//! reports").

use crate::{header, rule, Size, Verdicts};
use rbcast_core::{complexity, ProtocolKind};

pub fn run(v: &mut Verdicts, _: Size) {
    header("Fault-free message complexity, r = 1 (torus 12x12, n = 144)");
    println!("{:<22} {:>12} {:>12}", "protocol", "predicted", "measured");
    rule(48);
    let rows = complexity::table(1);
    for row in &rows {
        println!(
            "{:<22} {:>12} {:>12}",
            row.protocol,
            row.predicted
                .map_or("(measured)".to_string(), |p| p.to_string()),
            row.measured
        );
    }
    v.check(
        "all closed-form predictions exact at r = 1",
        rows.iter()
            .all(|row| row.predicted.is_none_or(|p| p == row.measured)),
    );

    header("Simplified-protocol volume n·(2r+1)² across radii (L∞, fault-free)");
    println!(
        "{:>3} {:>8} {:>12} {:>12}",
        "r", "n", "predicted", "measured"
    );
    rule(40);
    let mut exact = true;
    for r in 1..=3u32 {
        let row = complexity::row(r, ProtocolKind::IndirectSimplified);
        let p = row.predicted.expect("closed form exists");
        println!("{:>3} {:>8} {:>12} {:>12}", r, row.n, p, row.measured);
        exact &= p == row.measured;
    }
    v.check("simplified volume is exactly n·(2r+1)² for r = 1..3", exact);
}
