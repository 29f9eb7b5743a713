//! Fixture: per-iteration allocation inside hot loops.
//! `cargo xtask audit --root crates/xtask/fixtures/hot-loop-alloc`
//! must exit non-zero with `hot-loop-alloc` findings.

fn relay(rounds: &[Vec<u64>]) -> u64 {
    let mut acc = 0u64;
    for round in rounds {
        let copy = round.clone();
        let label = format!("r{acc}");
        acc += copy.len() as u64 + label.len() as u64;
    }
    acc
}

fn nested(rounds: &[Vec<u64>]) -> usize {
    let mut total = 0;
    while total < rounds.len() {
        let scratch = vec![0u8; 16];
        total += scratch.len();
    }
    total
}

fn hoisted(rounds: &[Vec<u64>]) -> u64 {
    // Allocation outside the loop and reuse inside: the sanctioned shape.
    let mut scratch: Vec<u64> = Vec::new();
    let mut acc = 0;
    for round in rounds {
        scratch.extend_from_slice(round);
        acc += scratch.len() as u64;
        scratch.clear();
    }
    acc
}

// The jammer-table shape: a fresh Option table sized to the round's
// on-air traffic, allocated every round. (The real fix owns one table
// and clear()+resize()s it — see `jam_table_hoisted` below.)
fn jam_table_per_round(rounds: &[Vec<u64>]) -> usize {
    let mut assigned = 0;
    for round in rounds {
        let jam_of: Vec<Option<u64>> = vec![None; round.len()];
        assigned += jam_of.iter().flatten().count();
    }
    assigned
}

fn jam_table_hoisted(rounds: &[Vec<u64>]) -> usize {
    // The sanctioned shape: one reusable table, cleared and resized.
    let mut jam_of: Vec<Option<u64>> = Vec::new();
    let mut assigned = 0;
    for round in rounds {
        jam_of.clear();
        jam_of.resize(round.len(), None);
        assigned += jam_of.iter().flatten().count();
    }
    assigned
}

// A protocol-style delivery handler: no visible loop, but the engine
// calls it once per delivery, so straight-line allocation here is a
// per-iteration allocation in disguise and must fire.
pub struct Proto {
    seen: Vec<String>,
}

impl Proto {
    fn on_message(&mut self, from: u32) {
        let key = from.to_string();
        self.seen.push(key);
    }

    fn on_round_end(&mut self) -> usize {
        // Same allocation outside on_message: cold, does not fire.
        let snapshot = self.seen.clone();
        snapshot.len()
    }
}
